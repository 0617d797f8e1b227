"""Grid evaluation: the one path every simulation and evaluation record takes.

:mod:`repro.sim.gridkernel` evaluates many (program, chip, dtype) points
in one batched pass; this module is the engine-side wrapper around it,
and the only code that makes a ``SimResult`` or ``Evaluation`` record.
Sweeps hand it many jobs; :meth:`DesignPoint.run` and
:meth:`DesignPoint.evaluate` are one-job calls of :func:`run_grid` and
:func:`evaluate_jobs`. It adds what the kernel deliberately does not
know about:

* **checked jobs** — a :class:`GridJob` rejects a bad ``batch`` or
  ``cmem_budget_bytes`` when it is built, before any memo is read;
* **cache exclusion** — jobs already in a DesignPoint memo or the
  :class:`~repro.engine.cache.EvalCache` disk tier never enter the
  batch; computed results are stored back through the same keys.
  ``run_grid`` (``"sim"`` records) and ``evaluate_jobs`` (``"eval"``
  records) share one hit/miss split and one store loop. A memo hit
  builds no key; a memo miss builds its disk key once
  (:meth:`DesignPoint.key`), and the miss dedupe and the store reuse it.
  Results merge deterministically in job order;
* **compile-content dedupe** — compiled programs depend on a strict
  subset of chip fields (memory sizes, MXU tile dim, dtypes, ISA
  generation — *not* clock, MXU count, or power/cooling limits), so a
  sweep axis over clock or MXU count compiles once per distinct content
  (:func:`~repro.engine.keys.compile_chip_fingerprint`, read once per
  design point as :attr:`DesignPoint.compile_fp`; invariance asserted in
  ``tests/test_gridsim.py``) instead of once per chip. :func:`compiled`
  is the one compile memo: a sweep keeps its compiles only for the
  batch it runs, while the per-point calls pass the point's own memo,
  which :meth:`DesignPoint.compiled` reads too;
* **one disk write per batch** — the store loop runs inside
  :meth:`EvalCache.batch` of every distinct cache the jobs use, so the
  disk tier lands a whole batch's records as one pack per cache.

The per-point loop the grid replaced (lookup, compile, one
``TensorCoreSim.run``, store) is the test-only oracle in
``tests/reference/engine.py``; ``tests/test_gridsim.py`` and
``tests/test_engine.py`` hold the grid to it.

Counters flow through :func:`repro.obs.metrics.metrics`, the
``engine.grid.*`` family and the ``tier.*`` timers (``repro metrics``
prints them).
"""

from __future__ import annotations

import gc
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.engine.keys import key_meta
from repro.obs.metrics import metrics
from repro.sim.gridkernel import GridPoint, evaluate_grid

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.pipeline import CompiledModel
    from repro.core.design_point import DesignPoint, Evaluation
    from repro.workloads.models import WorkloadSpec

#: A compile memo: :func:`compiled`'s key -> the compiled model.
CompileMemo = Dict[tuple, "CompiledModel"]


# ------------------------------------------------------------------- jobs

@dataclass(frozen=True)
class GridJob:
    """One (design point, workload, batch, CMEM budget, dtype) evaluation.

    ``batch`` None means the workload's default batch and ``dtype`` None
    the point's chip's native dtype. ``batch`` must be an ``int`` >= 1
    and ``cmem_budget_bytes`` an ``int`` >= 0 (a bool is neither); a
    bad value raises a ``ValueError`` naming the field when the job is
    built, before any memo is read. The memos key by value, where
    ``True == 1`` and ``2.0 == 2``, so an unchecked value would be
    served another job's record.
    """

    point: "DesignPoint"
    spec: "WorkloadSpec"
    batch: Optional[int] = None
    cmem_budget_bytes: Optional[int] = None
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        batch, budget = self.batch, self.cmem_budget_bytes
        if batch is not None and (type(batch) is not int or batch < 1):
            raise ValueError(f"batch must be an int >= 1, got {batch!r}")
        if budget is not None and (type(budget) is not int or budget < 0):
            raise ValueError(
                f"cmem_budget_bytes must be an int >= 0, got {budget!r}")

    @property
    def resolved_batch(self) -> int:
        return self.batch if self.batch is not None \
            else self.spec.default_batch

    @property
    def resolved_dtype(self) -> str:
        return self.dtype if self.dtype is not None \
            else self.point.native_dtype

    @property
    def memo_key(self) -> tuple:
        """The job's key in its point's record memos: (workload, batch,
        CMEM budget, dtype)."""
        return (self.spec.name, self.resolved_batch, self.cmem_budget_bytes,
                self.resolved_dtype)


# ---------------------------------------------------------------- helpers

def compiled(job: GridJob, memo: CompileMemo) -> "CompiledModel":
    """The job's compiled model, compiled once per distinct compile
    content (chip content, release, workload, batch, budget, dtype) in
    ``memo``.

    A sweep passes a memo that lives for one batch; a design point
    passes its own, so per-point callers compile each model once.
    """
    point, batch, dtype = job.point, job.resolved_batch, job.resolved_dtype
    key = (point.compile_fp, point.compiler_fp, job.spec.name, batch,
           job.cmem_budget_bytes, dtype)
    model = memo.get(key)
    if model is None:
        with metrics().timer("tier.compile_s"):
            model = point.compile(job.spec, batch, job.cmem_budget_bytes,
                                  dtype)
        memo[key] = model
    else:
        metrics().count("engine.grid.shared_compiles")
    return model


def _lookup(kind: str, jobs: Sequence[GridJob]) -> Tuple[list, list, list]:
    """Each job's cached ``kind`` record (None on a miss), the misses, and
    each miss's disk key.

    A memo hit builds no key. A memo miss builds its key once and reads
    the disk tier with it; a disk hit is copied into the memo, and a
    miss hands the key on to the dedupe and the store.
    """
    results: list = []
    misses: list = []
    keys: list = []
    reg = metrics()
    for job in jobs:
        point = job.point
        memo = point.records[kind]
        record = memo.get(job.memo_key)
        if record is None:
            key = point.key(kind, job.spec, job.resolved_batch,
                            job.cmem_budget_bytes, job.dtype)
            with reg.timer("tier.cache_lookup_s"):
                record = point.engine_cache().get(key)
            if record is None:
                misses.append(job)
                keys.append(key)
            else:
                memo[job.memo_key] = record
        results.append(record)
    reg.count("engine.grid.points", len(results))
    reg.count("engine.grid.cache_hits", len(results) - len(misses))
    return results, misses, keys


def _store(kind: str, results: list, misses: list, keys: list,
           records: list) -> list:
    """Store each miss's record under its key (disk tier and memo) and
    fill the misses' slots in ``results``.

    The writes run inside :meth:`EvalCache.batch` of every distinct
    cache the jobs use, so each disk tier lands them as one pack.
    """
    with ExitStack() as stack:
        for cache in dict.fromkeys(job.point.engine_cache()
                                   for job in misses):
            stack.enter_context(cache.batch())
        for job, key, record in zip(misses, keys, records):
            point, spec = job.point, job.spec
            point.engine_cache().put(key, record, key_meta(
                kind, point.chip.name, point.version.name, spec.name,
                job.resolved_batch, job.cmem_budget_bytes,
                job.resolved_dtype, phase=getattr(spec, "phase", None),
                kv_bucket=getattr(spec, "kv_bucket", None)))
            point.records[kind][job.memo_key] = record
    filled = iter(records)
    return [next(filled) if result is None else result
            for result in results]


# --------------------------------------------------------------- run_grid

def run_grid(jobs: Sequence[GridJob],
             compiled_by_key: Optional[CompileMemo] = None) -> list:
    """Simulate every job; ``SimResult`` objects in job order.

    Cached jobs are served from the memo/EvalCache tiers; missing jobs
    are evaluated in one kernel batch (compiling once per distinct
    compile content and dtype, in ``compiled_by_key``, a fresh memo by
    default) and stored back under the same keys.
    """
    results, misses, keys = _lookup("sim", jobs)
    if not misses:
        return results

    reg = metrics()
    reg.count("engine.grid.batches")
    if compiled_by_key is None:
        compiled_by_key = {}
    slot_by_key: Dict[str, int] = {}
    batch_points: list[GridPoint] = []
    slots: list[int] = []
    # The cyclic collector is paused over the compiles and the kernel
    # batch: they allocate tens of thousands of long-lived objects
    # (lowerings, bundles, structure tables) and almost no cycles, so
    # the collections they would trigger walk a growing heap and free
    # next to nothing. The caller's collector state is restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for job, key in zip(misses, keys):
            if key not in slot_by_key:
                model = compiled(job, compiled_by_key)
                slot_by_key[key] = len(batch_points)
                batch_points.append(GridPoint(
                    model.program, job.point.chip, job.resolved_dtype))
            slots.append(slot_by_key[key])
        with reg.timer("tier.sim_s"):
            sims = evaluate_grid(batch_points)
    finally:
        if collecting:
            gc.enable()
    reg.count("engine.grid.batched_points", len(batch_points))
    return _store("sim", results, misses, keys,
                  [sims[slot] for slot in slots])


# ----------------------------------------------------------- evaluate_jobs

def evaluate_jobs(jobs: Sequence[GridJob],
                  compiled_by_key: Optional[CompileMemo] = None) -> list:
    """Evaluate every job; ``Evaluation`` objects in job order.

    Evaluation-cache hits are excluded; missing jobs share one
    :func:`run_grid` batch and one compile per distinct compile content
    (in ``compiled_by_key``, a fresh memo by default), and
    :meth:`DesignPoint.evaluation_from` derives each chip-level record.
    """
    results, misses, keys = _lookup("eval", jobs)
    if not misses:
        return results

    if compiled_by_key is None:
        compiled_by_key = {}
    sims = run_grid(misses, compiled_by_key)
    by_key: Dict[str, "Evaluation"] = {}
    records = []
    for job, key, sim in zip(misses, keys, sims):
        record = by_key.get(key)
        if record is None:
            record = by_key[key] = job.point.evaluation_from(
                job.spec, job.resolved_batch, job.cmem_budget_bytes, sim,
                compiled(job, compiled_by_key), job.dtype)
        records.append(record)
    return _store("eval", results, misses, keys, records)
