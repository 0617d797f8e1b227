"""Test-only oracle for the grid's record path.

The per-point loop ``DesignPoint.run`` and ``DesignPoint.evaluate`` ran
before every record came from ``repro.engine.grid``, kept as functions
that take the design point: read the point's memo, then its EvalCache,
under a key built for that read; on a miss compile through the point's
compile memo, replay the one program with ``TensorCoreSim.run`` (or
derive the chip-level record from the run and the compile) and store
the record under a key built again for the write. It shares no lookup,
store, dedupe or kernel code with the grid, so
``tests/test_gridsim.py`` and ``tests/test_engine.py`` compare the two,
and ``tests/conftest.py::reference_paths`` patches this loop in for
``run_grid`` / ``evaluate_jobs``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.design_point import DesignPoint, Evaluation
from repro.engine.keys import key_meta
from repro.sim.core import SimResult
from repro.workloads.models import WorkloadSpec


def lookup(point: DesignPoint, kind: str, spec: WorkloadSpec, batch: int,
           cmem_budget_bytes: Optional[int], dtype: str):
    """A memo/EvalCache hit of a ``kind`` record, or None."""
    memo = point.records[kind]
    memo_key = (spec.name, batch, cmem_budget_bytes, dtype)
    hit = memo.get(memo_key)
    if hit is not None:
        return hit
    hit = point.engine_cache().get(
        point.key(kind, spec, batch, cmem_budget_bytes, dtype))
    if hit is not None:
        memo[memo_key] = hit
    return hit


def store(point: DesignPoint, kind: str, spec: WorkloadSpec, batch: int,
          cmem_budget_bytes: Optional[int], record, dtype: str) -> None:
    """Publish a ``kind`` record under the keys :func:`lookup` reads."""
    meta = key_meta(kind, point.chip.name, point.version.name, spec.name,
                    batch, cmem_budget_bytes, dtype,
                    phase=getattr(spec, "phase", None),
                    kv_bucket=getattr(spec, "kv_bucket", None))
    point.engine_cache().put(
        point.key(kind, spec, batch, cmem_budget_bytes, dtype), record, meta)
    point.records[kind][(spec.name, batch, cmem_budget_bytes, dtype)] = record


def run(point: DesignPoint, spec: WorkloadSpec, batch: int,
        cmem_budget_bytes: Optional[int] = None,
        dtype: Optional[str] = None) -> SimResult:
    """Simulate (memoized) one inference of a workload, one point alone."""
    if dtype is None:
        dtype = point.native_dtype
    result = lookup(point, "sim", spec, batch, cmem_budget_bytes, dtype)
    if result is None:
        compiled = point.compiled(spec, batch, cmem_budget_bytes, dtype)
        result = point.sim.run(compiled.program, dtype=dtype)
        store(point, "sim", spec, batch, cmem_budget_bytes, result, dtype)
    return result


def evaluate(point: DesignPoint, spec: WorkloadSpec,
             batch: Optional[int] = None,
             cmem_budget_bytes: Optional[int] = None,
             dtype: Optional[str] = None) -> Evaluation:
    """Chip-level evaluation at a batch size, one point alone."""
    if dtype is None:
        dtype = point.native_dtype
    b = batch if batch is not None else spec.default_batch
    evaluation = lookup(point, "eval", spec, b, cmem_budget_bytes, dtype)
    if evaluation is None:
        result = run(point, spec, b, cmem_budget_bytes, dtype)
        compiled = point.compiled(spec, b, cmem_budget_bytes, dtype)
        evaluation = point.evaluation_from(spec, b, cmem_budget_bytes,
                                           result, compiled, dtype)
        store(point, "eval", spec, b, cmem_budget_bytes, evaluation, dtype)
    return evaluation
