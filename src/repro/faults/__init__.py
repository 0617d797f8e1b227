"""Fault injection: deterministic failures for serving, fleets, engine.

The paper's serving numbers (Lesson 9) and TCO comparisons (Lesson 3)
assume nothing ever breaks. This package drops that assumption without
giving up reproducibility:

* :mod:`repro.faults.model` — :class:`FaultModel` (seeded MTBF-style
  core/chip failures, transient slowdowns, repair times, retry policy)
  and :class:`FaultSchedule`, the realized per-core outage timeline the
  serving simulator consumes;
* :mod:`repro.faults.sweep` — :func:`fault_sweep`, the seeded
  faultless-vs-faulted sweep over (chip generation, app) pairs behind
  the ``repro faults`` CLI.

Companion changes live where the failures land: ``ServingSimulator.
simulate(faults=...)`` retries lost batches under a budget,
``plan_fleet(spare_chips=k)`` sizes N+k fleets and prices the resilience
premium, and the engine's :class:`~repro.engine.cache.EvalCache`
survives corrupt disk entries.

Determinism guarantee: a zero-fault model is bit-identical to no model
at all, and any seeded sweep is a pure function of its arguments.
"""

from repro.faults.model import FaultModel, FaultSchedule
from repro.faults.sweep import FaultSweepRow, fault_sweep, latency_table

__all__ = [
    "FaultModel",
    "FaultSchedule",
    "FaultSweepRow",
    "fault_sweep",
    "latency_table",
]
