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

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting_metrics,
    diff_snapshots,
    disable_metrics,
    enable_metrics,
    metrics,
    render_snapshot,
    set_metrics,
)
from repro.obs.report import RunProfile, goodput_report, \
    profile_result, tier_report
from repro.obs.tracer import (
    Span,
    SpanTracer,
    TraceResult,
    build_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunProfile",
    "Span",
    "SpanTracer",
    "TraceResult",
    "build_trace",
    "collecting_metrics",
    "diff_snapshots",
    "disable_metrics",
    "enable_metrics",
    "metrics",
    "profile_result",
    "render_snapshot",
    "set_metrics",
    "tier_report",
    "goodput_report",
]
