"""Deterministic fault injection: who fails, when, and for how long.

Production fleets are never the perfect world the rest of the library
models: cores die mid-batch, whole chips drop out for repair, and
thermally throttled parts run slow for a while. This module makes those
events first-class, *deterministic* inputs:

* :class:`FaultModel` — the configuration: MTBF-style mean times between
  core failures, chip-wide outages and transient slowdowns, plus mean
  repair times, a retry budget and a retry timeout. All stochastic draws
  come from :class:`~repro.util.rng.DeterministicRng` streams forked per
  fault source, so a seed fully determines every failure.
* :class:`FaultSchedule` — the realized timeline: per-core down
  intervals and slowdown windows over a horizon. The serving simulator
  consumes schedules; tests can also construct them by hand to place an
  outage at an exact instant.

A model whose every MTBF is infinite is *zero-fault*: it produces an
empty schedule, and simulating with it is bit-identical to simulating
with no fault model at all (asserted in
``tests/test_faults.py::TestZeroFaultIdentity``).

Times are simulated seconds, the same compressed clock the serving
simulator runs on; an MTBF of 0.5 s simply means "a couple of failures
per second of simulated traffic", not a statement about real hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.metrics import metrics
from repro.util.rng import DeterministicRng

#: Stream salts: each fault source forks its own RNG so adding one
#: source (say, slowdowns) never perturbs another's draws.
_CHIP_SALT = 1
_CORE_SALT = 1_000
_SLOWDOWN_SALT = 1_000_000


class FaultSchedule:
    """Realized fault timeline: down intervals and slowdowns per core.

    ``down`` holds ``(core, start_s, end_s)`` outages (``end_s`` may be
    ``inf`` for a core that is never repaired); ``slowdowns`` holds
    ``(core, start_s, end_s, factor)`` windows during which batches
    launched on that core run ``factor`` times slower. Chip-wide outages
    are expanded to one interval per core before construction.

    **Boundary contract.** Every interval is half-open ``[start, end)``:
    a query at exactly ``start`` is *inside* the interval, a query at
    exactly ``end`` is *outside*. Concretely:

    * ``outage_end(core, start)`` returns the interval's end;
      ``outage_end(core, end)`` returns ``None`` (the core is back).
    * ``slowdown_factor(core, start)`` applies the factor;
      ``slowdown_factor(core, end)`` does not.
    * ``first_failure_between(core, a, b)`` matches outages whose start
      is *strictly* inside the open interval ``(a, b)``: a failure at
      exactly ``a`` (batch launch — the launcher already checked the
      core was up) or exactly ``b`` (batch completion — results are
      committed) does not kill the batch.

    These semantics are pinned by regression tests in
    ``tests/test_faults.py`` — link and slice fault sources in
    ``repro.pod`` reuse these queries with link indices in the core
    slot, so changing any boundary silently changes pod chaos results.
    """

    def __init__(self, cores: int, horizon_s: float,
                 down: Sequence[tuple[int, float, float]] = (),
                 slowdowns: Sequence[tuple[int, float, float, float]] = (),
                 ) -> None:
        if cores < 1:
            raise ValueError("a schedule needs at least one core")
        if not horizon_s >= 0:  # phrased to reject NaN too
            raise ValueError(f"horizon must be non-negative, got {horizon_s}")
        for core, start, end in down:
            if not 0 <= core < cores:
                raise ValueError(f"down interval on unknown core {core}")
            if not 0 <= start <= end:  # rejects negatives and NaN
                raise ValueError(f"bad down interval [{start}, {end})")
        for core, start, end, factor in slowdowns:
            if not 0 <= core < cores:
                raise ValueError(f"slowdown on unknown core {core}")
            if not 0 <= start <= end:
                raise ValueError(f"bad slowdown interval [{start}, {end})")
            if not factor >= 1.0:
                raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.cores = cores
        self.horizon_s = horizon_s
        self.down = tuple(sorted(down, key=lambda d: (d[1], d[0], d[2])))
        self.slowdowns = tuple(
            sorted(slowdowns, key=lambda s: (s[1], s[0], s[2])))
        self._down_by_core: dict[int, list[tuple[float, float]]] = {
            c: [] for c in range(cores)}
        for core, start, end in self.down:
            self._down_by_core[core].append((start, end))
        self._slow_by_core: dict[int, list[tuple[float, float, float]]] = {
            c: [] for c in range(cores)}
        for core, start, end, factor in self.slowdowns:
            self._slow_by_core[core].append((start, end, factor))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return (self.cores == other.cores
                and self.horizon_s == other.horizon_s
                and self.down == other.down
                and self.slowdowns == other.slowdowns)

    def __hash__(self) -> int:
        return hash((self.cores, self.horizon_s, self.down, self.slowdowns))

    @property
    def is_empty(self) -> bool:
        """True when the schedule contains no events of any kind."""
        return not self.down and not self.slowdowns

    # --------------------------------------------------------------- queries

    def outage_end(self, core: int, t: float) -> Optional[float]:
        """End of the outage covering instant ``t`` on ``core``, or None.

        Intervals are half-open: an outage ``[start, stop)`` covers
        ``t == start`` but not ``t == stop`` (the core is considered
        repaired at the instant the interval ends).

        Overlapping outages (a core failure inside a chip outage) return
        the latest covering end, so a caller waiting it out never lands
        inside another known interval.
        """
        end: Optional[float] = None
        for start, stop in self._down_by_core[core]:
            if start > t:
                break
            if t < stop and (end is None or stop > end):
                end = stop
        return end

    def first_failure_between(self, core: int, start_s: float,
                              end_s: float) -> Optional[tuple[float, float]]:
        """Earliest outage beginning strictly inside ``(start_s, end_s)``.

        This is the "core dies mid-batch" query: a batch occupying
        ``[start_s, end_s)`` is destroyed by the first failure that
        begins after launch and before completion. Both endpoints are
        exclusive — a failure at exactly ``start_s`` is the launcher's
        problem (it should have consulted :meth:`outage_end`), and a
        failure at exactly ``end_s`` arrives after the batch committed.
        """
        for start, stop in self._down_by_core[core]:
            if start >= end_s:
                break
            if start > start_s:
                return (start, stop)
        return None

    def permanent_death_s(self, core: int) -> Optional[float]:
        """Start of the earliest never-repaired outage on ``core``.

        A ``down`` interval whose end is ``inf`` marks a core that dies
        and is never repaired within the schedule — the migration
        orchestrator (``repro.serving.continuous``) uses this to decide
        which cores need their sequences rebalanced to survivors before
        the run. Returns ``None`` when every outage on the core repairs.
        """
        for start, stop in self._down_by_core[core]:
            if math.isinf(stop):
                return start
        return None

    def slowdown_factor(self, core: int, t: float) -> float:
        """Combined slowdown multiplier in effect on ``core`` at ``t``.

        Windows are half-open like outages: the factor applies at
        exactly ``start`` and no longer applies at exactly ``stop``.
        Overlapping windows multiply.
        """
        factor = 1.0
        for start, stop, scale in self._slow_by_core[core]:
            if start > t:
                break
            if t < stop:
                factor *= scale
        return factor

    def next_boundary(self, core: int, t: float) -> float:
        """Earliest window edge on ``core`` strictly after ``t``, or ``inf``.

        An edge is the start or stop of any down or slowdown window.
        Under the half-open contract state only changes *at* an edge:
        :meth:`outage_end` and :meth:`slowdown_factor` answer the same
        at every instant of ``[t, next_boundary(core, t))``, and no
        outage starts inside it, so a caller can run uniform steps up to
        the edge without re-querying. Infinite stops are not edges.
        """
        edge = math.inf
        for windows in (self._down_by_core[core], self._slow_by_core[core]):
            for window in windows:
                start, stop = window[0], window[1]
                if start > t:
                    # Sorted by start: every later window starts (and
                    # stops) no earlier than this one starts.
                    edge = min(edge, start)
                    break
                if t < stop < edge:
                    edge = stop
        return edge

    def downtime_core_s(self, window_start_s: float,
                        window_end_s: float) -> float:
        """Total core-seconds of outage inside a window (overlaps merged)."""
        if window_end_s <= window_start_s:
            return 0.0
        total = 0.0
        for intervals in self._down_by_core.values():
            merged_start: Optional[float] = None
            merged_end = 0.0
            for start, stop in intervals:
                lo = max(start, window_start_s)
                hi = min(stop, window_end_s)
                if hi <= lo:
                    continue
                if merged_start is None:
                    merged_start, merged_end = lo, hi
                elif lo <= merged_end:
                    merged_end = max(merged_end, hi)
                else:
                    total += merged_end - merged_start
                    merged_start, merged_end = lo, hi
            if merged_start is not None:
                total += merged_end - merged_start
        return total


def repair_seconds(stream: DeterministicRng, mean_s: float) -> float:
    """One repair time with mean ``mean_s`` (inf: never, 0: instant)."""
    if math.isinf(mean_s):
        return math.inf
    if mean_s == 0.0:
        return 0.0
    return stream.exponential(mean_s)


@dataclass(frozen=True)
class FaultModel:
    """Seeded fault-injection configuration (all times in simulated s).

    The defaults are all-infinite MTBFs: a :class:`FaultModel` with no
    overrides is the zero-fault model, and schedules it generates are
    empty. Repair durations are drawn per event (exponential with the
    given mean); a mean of 0 repairs instantly, ``inf`` never repairs.

    ``retry_budget`` caps how many times one request may be re-enqueued
    after losing its in-flight batch before it is dropped;
    ``retry_timeout_s`` additionally drops a request whose batch dies
    later than this long after its arrival. ``horizon_pad_s`` extends
    the generated schedule past the last arrival so retries that run
    beyond the traffic window still see failures.
    """

    seed: int = 0
    core_mtbf_s: float = math.inf
    core_repair_s: float = 0.1
    chip_mtbf_s: float = math.inf
    chip_repair_s: float = 0.5
    slowdown_mtbf_s: float = math.inf
    slowdown_s: float = 0.25
    slowdown_factor: float = 2.0
    retry_budget: int = 2
    retry_timeout_s: float = math.inf
    horizon_pad_s: float = 1.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # Every rate/duration is validated here, at construction: a bad
        # value must never survive into schedule generation, where a
        # negative mean would crash deep inside the RNG and a NaN would
        # pass every comparison and spin event_times() forever.
        for name in ("core_mtbf_s", "chip_mtbf_s", "slowdown_mtbf_s",
                     "core_repair_s", "chip_repair_s", "slowdown_s",
                     "slowdown_factor", "retry_timeout_s", "horizon_pad_s"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        for name in ("core_mtbf_s", "chip_mtbf_s", "slowdown_mtbf_s"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        for name in ("core_repair_s", "chip_repair_s", "slowdown_s",
                     "horizon_pad_s"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        if self.slowdown_factor < 1.0:
            raise ValueError(
                f"slowdown_factor must be >= 1, got {self.slowdown_factor}")
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be non-negative, got {self.retry_budget}")
        if self.retry_timeout_s <= 0:
            raise ValueError(
                f"retry_timeout_s must be positive, got {self.retry_timeout_s}")

    @property
    def zero_fault(self) -> bool:
        """True when no fault source is active (every MTBF infinite)."""
        return (math.isinf(self.core_mtbf_s)
                and math.isinf(self.chip_mtbf_s)
                and math.isinf(self.slowdown_mtbf_s))

    def schedule(self, cores: int, horizon_s: float) -> FaultSchedule:
        """Realize the model into a schedule for ``cores`` over a horizon.

        Deterministic: the same (model, cores, horizon) always yields the
        same schedule. Each fault source draws from its own forked
        stream, so e.g. enabling slowdowns does not move core failures.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        root = DeterministicRng(self.seed)
        down: list[tuple[int, float, float]] = []
        for core in range(cores):
            stream = root.fork(_CORE_SALT + core)
            for start in stream.event_times(self.core_mtbf_s, horizon_s):
                down.append(
                    (core, start,
                     start + repair_seconds(stream, self.core_repair_s)))
        core_outages = len(down)
        chip_stream = root.fork(_CHIP_SALT)
        chip_outages = 0
        for start in chip_stream.event_times(self.chip_mtbf_s, horizon_s):
            end = start + repair_seconds(chip_stream, self.chip_repair_s)
            down.extend((core, start, end) for core in range(cores))
            chip_outages += 1
        slowdowns: list[tuple[int, float, float, float]] = []
        for core in range(cores):
            stream = root.fork(_SLOWDOWN_SALT + core)
            for start in stream.event_times(self.slowdown_mtbf_s, horizon_s):
                slowdowns.append((core, start, start + self.slowdown_s,
                                  self.slowdown_factor))
        reg = metrics()
        if reg.enabled:
            reg.counter("faults.schedules").inc()
            reg.counter("faults.core_outages").inc(core_outages)
            reg.counter("faults.chip_outages").inc(chip_outages)
            reg.counter("faults.slowdowns").inc(len(slowdowns))
        return FaultSchedule(cores, horizon_s, down, slowdowns)

    def describe(self) -> str:
        def mtbf(value: float) -> str:
            return "never" if math.isinf(value) else f"{value:.3g} s"

        return (f"FaultModel(seed={self.seed}): core MTBF "
                f"{mtbf(self.core_mtbf_s)}, chip MTBF "
                f"{mtbf(self.chip_mtbf_s)}, slowdown MTBF "
                f"{mtbf(self.slowdown_mtbf_s)}, retry budget "
                f"{self.retry_budget}")
