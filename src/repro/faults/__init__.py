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

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.faults.model": ("FaultModel", "FaultSchedule"),
    "repro.faults.sweep": ("FaultSweepRow", "fault_sweep", "latency_table"),
})
