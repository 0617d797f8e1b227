"""Observability: deterministic tracing, metrics, and profiling reports.

Three pieces, split by what clock they run on:

* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges and fixed-bucket histograms the engine cache, grid sweeps,
  serving simulator and fault scheduler report into. Disabled
  by default; zero cost (one boolean check) until enabled.
* :mod:`repro.obs.tracer` — span tracing on *simulated* time (never
  wall-clock), with a byte-stable Chrome trace-event JSON exporter;
  per-instruction spans come from the timing engine's tracing mode
  (``FastReplay.run`` with a tracer), so traced and untraced runs share
  one engine.
* :mod:`repro.obs.report` — cycle attribution for one run and
  compile/sim/cache wall-time attribution for a sweep (the
  ``repro metrics`` output).
"""

from repro import _lazy_exports

# Eager on purpose: ``metrics`` names both this submodule and the
# registry accessor it defines. Importing a submodule binds it on its
# package, so if anything imported ``repro.obs.metrics`` before the
# function was read through the package, ``from repro.obs import
# metrics`` would return the module. Importing it here rebinds the name
# to the function once; the module is light and every layer loads it.
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting_metrics,
    metrics,
    render_snapshot,
    set_metrics,
)

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.obs.report": ("RunProfile", "profile_result", "tier_report"),
    "repro.obs.tracer": ("Span", "SpanTracer", "TraceResult", "build_trace"),
})
__all__ += ["Counter", "Gauge", "Histogram", "MetricsRegistry",
            "collecting_metrics", "metrics", "render_snapshot", "set_metrics"]
