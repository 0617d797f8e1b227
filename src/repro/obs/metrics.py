"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The observability layer's numeric half. Instrumented subsystems — the
engine's :class:`~repro.engine.cache.EvalCache` (disk hits/misses/corrupt),
the grid sweeps of :mod:`repro.engine.grid` (jobs, batches, cache
hits), the serving simulator (queue depth, batch
occupancy, retries, outage wait) and :class:`~repro.faults.model.
FaultModel` schedules — report into a process-global
:class:`MetricsRegistry` through :func:`metrics`.

Two rules every consumer can rely on:

* **Zero cost when disabled.** The global registry starts *disabled*;
  every instrumented call site guards its recording with a single
  ``registry.enabled`` check (hot loops hoist it once per call), so the
  default paths do no metric work at all and stay bit-identical to the
  uninstrumented code (asserted in ``tests/test_obs.py``, which also
  bounds the disabled guards' cost).
* **Deterministic recording.** Histograms use *fixed* bucket bounds
  supplied at creation; observing the same value sequence always yields
  the same bucket counts, so two runs of a seeded simulation snapshot
  identically. Wall-clock enters only through :meth:`MetricsRegistry.
  timer` counters, which exist for the human-facing ``repro metrics``
  report and are never part of a determinism contract (the span tracer
  in :mod:`repro.obs.tracer` is the deterministic instrument).

Snapshots are plain nested dicts (JSON-serializable).

This module deliberately imports nothing from the rest of ``repro`` so
any layer (arch, sim, engine, serving) may report into it.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting_metrics",
    "metrics",
    "render_snapshot",
    "set_metrics",
]


class Counter:
    """A monotonically increasing value (counts or accumulated seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (pool width, queue length, horizon)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


#: Default histogram bounds: powers of two — right for counts (queue
#: depths, batch sizes) and wide enough for most rates.
DEFAULT_BUCKETS: tuple = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Bounds for values already normalized into [0, 1] (occupancies).
UNIT_BUCKETS: tuple = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


class Histogram:
    """Fixed-bucket histogram with deterministic recording.

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound. Recording is a bisect over
    the fixed bounds — no adaptive resizing, no sampling — so identical
    observation sequences always produce identical snapshots.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        ordered = tuple(bounds)
        if any(b <= a for b, a in zip(ordered[1:], ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        buckets = {f"le_{bound:g}": count
                   for bound, count in zip(self.bounds, self.counts)}
        buckets["overflow"] = self.counts[-1]
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "buckets": buckets,
        }


class _NullTimer:
    """Reusable no-op context manager for disabled registries."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _Timer:
    """Accumulates elapsed wall seconds into a counter on exit."""

    __slots__ = ("_counter", "_t0")

    def __init__(self, counter: Counter) -> None:
        self._counter = counter
        self._t0 = 0.0

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()
        return None

    def __exit__(self, *exc) -> bool:
        self._counter.inc(time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Named metrics, created on first use.

    ``enabled`` is the one switch call sites check; a disabled registry's
    accessors still work (so tests can poke at it) but instrumented code
    never reaches them. ``op_count`` tallies recording operations while
    enabled — ``tests/test_obs.py`` uses it to bound what the *disabled*
    guards could possibly cost.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.op_count = 0
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------- accessors

    def _named(self, name: str, factory) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        if self.enabled:
            self.op_count += 1
        metric = self._named(name, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
        return metric

    def gauge(self, name: str) -> Gauge:
        if self.enabled:
            self.op_count += 1
        metric = self._named(name, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if self.enabled:
            self.op_count += 1
        metric = self._named(name, lambda n: Histogram(n, bounds))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
        return metric

    # ------------------------------------------------- recording conveniences

    def count(self, name: str, amount: float = 1) -> None:
        """Guarded counter increment (no-op when disabled)."""
        if self.enabled:
            self.counter(name).inc(amount)

    def timer(self, name: str):
        """Context manager adding elapsed wall seconds to counter ``name``.

        Wall-clock by design — this feeds the tier attribution in
        ``repro metrics``, never a deterministic artifact. Disabled
        registries return a shared no-op context (no allocation).
        """
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self.counter(name))

    # --------------------------------------------------------------- exports

    def snapshot(self) -> dict:
        """All metrics as a name-sorted plain dict (JSON-serializable)."""
        return {name: self._metrics[name].as_dict()  # type: ignore[attr-defined]
                for name in sorted(self._metrics)}


def render_snapshot(snapshot: dict) -> str:
    """A human-readable, name-sorted rendering of a snapshot."""
    if not snapshot:
        return "(no metrics recorded)"
    lines = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]
        if kind == "histogram":
            lines.append(
                f"  {name:<34} n={entry['count']:<8g} "
                f"mean={entry['mean']:.4g} min={entry['min']:.4g} "
                f"max={entry['max']:.4g}")
        else:
            value = entry["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<34} {text}")
    return "\n".join(lines)


# --------------------------------------------------------- global registry

_REGISTRY = MetricsRegistry(enabled=False)


def metrics() -> MetricsRegistry:
    """The process-global registry (disabled until someone enables it)."""
    return _REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry in; returns the previous one."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    return previous


@contextmanager
def collecting_metrics() -> Iterator[MetricsRegistry]:
    """Install a fresh, enabled registry for the ``with`` body.

    The previous registry (and its enabled state) is restored on exit,
    so tests and the CLI can collect without leaking global state.
    """
    fresh = MetricsRegistry(enabled=True)
    previous = set_metrics(fresh)
    try:
        yield fresh
    finally:
        set_metrics(previous)
