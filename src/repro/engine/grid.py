"""Batched grid evaluation: EvalCache-aware routing into the grid kernel.

:mod:`repro.sim.gridkernel` evaluates many (program, chip, dtype) points
in one batched pass; this module is the engine-side wrapper the sweeps
and planners call. It adds what the kernel deliberately does not know
about:

* **cache exclusion** — jobs already in a DesignPoint memo or the
  :class:`~repro.engine.cache.EvalCache` disk tier never enter the
  batch; computed results are stored back through the same keys.
  ``run_grid`` (``"sim"`` records) and ``evaluate_jobs`` (``"eval"``
  records) share one hit/miss split and one store loop, both on
  :meth:`DesignPoint.lookup` / :meth:`DesignPoint.store`, so a
  grid-warmed cache is indistinguishable from a per-point-warmed one
  and results merge deterministically in job order;
* **compile-content dedupe** — compiled programs depend on a strict
  subset of chip fields (memory sizes, MXU tile dim, dtypes, ISA
  generation — *not* clock, MXU count, or power/cooling limits), so a
  sweep axis over clock or MXU count compiles once per distinct content
  (:func:`~repro.engine.keys.compile_chip_fingerprint`, read once per
  design point as :attr:`DesignPoint.compile_fp`; invariance asserted in
  ``tests/test_gridsim.py``) instead of once per chip;
* **one disk write per batch** — the store loop runs inside
  :meth:`EvalCache.batch` of every distinct cache the jobs use, so the
  disk tier lands a whole batch's records as one pack per cache.

Sweeps (DSE, CMEM sweeps, SLO probes, latency tables, the capacity
planner) batch through here. The per-point path is production too:
:meth:`DesignPoint.run` and :meth:`DesignPoint.evaluate` serve the
serving simulators, multitenancy, priority, fleet sizing and ``repro
evaluate``/``compare``/``metrics``. They read and write the same memo
and disk tier under the same keys, so either path serves the other's
results; ``tests/test_gridsim.py`` holds the grid to the per-point loop.

Counters flow through :func:`repro.obs.metrics.metrics`, the
``engine.grid.*`` family (``repro metrics`` prints them).
"""

from __future__ import annotations

import gc
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.obs.metrics import metrics
from repro.sim.gridkernel import GridPoint, evaluate_grid

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.pipeline import CompiledModel
    from repro.core.design_point import DesignPoint, Evaluation
    from repro.sim.core import SimResult
    from repro.workloads.models import WorkloadSpec


# ------------------------------------------------------------------- jobs

@dataclass(frozen=True)
class GridJob:
    """One (design point, workload, batch, CMEM budget, dtype) evaluation.

    ``dtype`` None means the point's chip's native dtype; the
    :class:`DesignPoint` methods resolve it before forming any key.
    """

    point: "DesignPoint"
    spec: "WorkloadSpec"
    batch: Optional[int] = None
    cmem_budget_bytes: Optional[int] = None
    dtype: Optional[str] = None

    @property
    def resolved_batch(self) -> int:
        return self.batch if self.batch is not None \
            else self.spec.default_batch

    @property
    def resolved_dtype(self) -> str:
        return self.dtype if self.dtype is not None \
            else self.point.native_dtype


# ---------------------------------------------------------------- helpers

def _shared_compiled(job: GridJob,
                     compiled_by_key: Dict[tuple, "CompiledModel"]
                     ) -> "CompiledModel":
    """Compile once per distinct compile content across the whole batch."""
    batch = job.resolved_batch
    key = (job.point.compile_fp, job.point.compiler_fp, job.spec.name, batch,
           job.cmem_budget_bytes, job.resolved_dtype)
    compiled = compiled_by_key.get(key)
    if compiled is None:
        with metrics().timer("tier.compile_s"):
            compiled = job.point.compile(job.spec, batch,
                                         job.cmem_budget_bytes, job.dtype)
        compiled_by_key[key] = compiled
    else:
        metrics().count("engine.grid.shared_compiles")
    return compiled


def _key(kind: str, job: GridJob) -> str:
    return job.point.key(kind, job.spec, job.resolved_batch,
                         job.cmem_budget_bytes, job.dtype)


def _lookup(kind: str, jobs: list) -> Tuple[list, list]:
    """Each job's cached ``kind`` record (None on a miss), and the misses."""
    results = [job.point.lookup(kind, job.spec, job.resolved_batch,
                                job.cmem_budget_bytes, job.dtype)
               for job in jobs]
    misses = [job for job, result in zip(jobs, results) if result is None]
    hits = len(jobs) - len(misses)
    reg = metrics()
    reg.count("engine.grid.points", len(jobs))
    reg.count("engine.grid.cache_hits", hits)
    return results, misses


def _store(kind: str, results: list, misses: list, records: list) -> list:
    """Store each miss's record and fill the misses' slots in ``results``.

    The writes run inside :meth:`EvalCache.batch` of every distinct
    cache the jobs use, so each disk tier lands them as one pack.
    """
    with ExitStack() as stack:
        for cache in dict.fromkeys(job.point.engine_cache()
                                   for job in misses):
            stack.enter_context(cache.batch())
        for job, record in zip(misses, records):
            job.point.store(kind, job.spec, job.resolved_batch,
                            job.cmem_budget_bytes, record, job.dtype)
    filled = iter(records)
    return [next(filled) if result is None else result
            for result in results]


# --------------------------------------------------------------- run_grid

def run_grid(jobs: Sequence[GridJob],
             compiled_by_key: Optional[Dict[tuple, "CompiledModel"]] = None
             ) -> list:
    """Simulate every job; ``SimResult`` objects in job order.

    Identical to ``[job.point.run(job.spec, job.resolved_batch,
    job.cmem_budget_bytes, job.dtype) for job in jobs]`` — cached jobs
    are served from the same memo/EvalCache tiers, missing jobs are
    evaluated in one kernel batch (compiling once per distinct compile
    content and dtype) and stored back under the same keys.
    """
    results, misses = _lookup("sim", list(jobs))
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
        for job in misses:
            key = _key("sim", job)
            if key not in slot_by_key:
                compiled = _shared_compiled(job, compiled_by_key)
                slot_by_key[key] = len(batch_points)
                batch_points.append(GridPoint(
                    compiled.program, job.point.chip, job.resolved_dtype))
            slots.append(slot_by_key[key])
        with reg.timer("tier.sim_s"):
            sims = evaluate_grid(batch_points)
    finally:
        if collecting:
            gc.enable()
    reg.count("engine.grid.batched_points", len(batch_points))
    return _store("sim", results, misses, [sims[slot] for slot in slots])


# ----------------------------------------------------------- evaluate_jobs

def evaluate_jobs(jobs: Sequence[GridJob]) -> list:
    """Evaluate every job; ``Evaluation`` objects in job order.

    The batched counterpart of ``[job.point.evaluate(...) for job in
    jobs]``: evaluation-cache hits are excluded, missing jobs share one
    simulation batch *and* one compile per distinct compile content, and
    the derived chip-level arithmetic
    (:meth:`DesignPoint.evaluation_from`) is the per-point code, so the
    records are identical either way.
    """
    results, misses = _lookup("eval", list(jobs))
    if not misses:
        return results

    compiled_by_key: Dict[tuple, "CompiledModel"] = {}
    sims = run_grid(misses, compiled_by_key=compiled_by_key)
    by_key: Dict[str, "Evaluation"] = {}
    records = []
    for job, sim in zip(misses, sims):
        key = _key("eval", job)
        if key not in by_key:
            by_key[key] = job.point.evaluation_from(
                job.spec, job.resolved_batch, job.cmem_budget_bytes, sim,
                _shared_compiled(job, compiled_by_key), job.dtype)
        records.append(by_key[key])
    return _store("eval", results, misses, records)
