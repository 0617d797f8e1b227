"""Discrete-event serving simulator.

Feeds a request stream through a dynamic batcher onto a chip's cores
(each core is an independent server running one batch at a time). Batch
compute latencies come from the cycle simulator, memoized per compiled
batch size, so a multi-second traffic simulation costs only a handful of
program simulations.

Failures are first-class inputs: :meth:`ServingSimulator.simulate`
optionally consumes a :class:`~repro.faults.model.FaultModel` (or a
hand-built :class:`~repro.faults.model.FaultSchedule`). A core failing
mid-batch destroys the in-flight batch; surviving requests are
re-enqueued (keeping their original arrival times) and retried on
whatever cores remain, bounded by the model's retry budget and timeout.
Cores inside an outage window accept no work until repaired, and
transient slowdown windows stretch batch compute. The fault-free path
and the zero-fault model run the *same* replay and produce
bit-identical :class:`ServingStats` (asserted in
``tests/test_faults.py::TestZeroFaultIdentity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.core.design_point import DesignPoint
from repro.obs.metrics import metrics
from repro.serving.batching import BatchPolicy
from repro.serving.fastserve import replay_serving
from repro.serving.slo import Slo, largest_batch_within
from repro.workloads.generator import Request
from repro.workloads.models import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultModel, FaultSchedule
    from repro.obs.tracer import SpanTracer

#: Retry policy applied when a bare FaultSchedule is passed without a
#: FaultModel carrying its own budget/timeout.
DEFAULT_RETRY_BUDGET = 2
DEFAULT_RETRY_TIMEOUT_S = math.inf


# ------------------------------------------------------------ front door

def arrival_times(requests: Sequence, *,
                  empty_ok: bool = False) -> list[float]:
    """Arrival timestamps of a request stream, checked to be sorted.

    ``requests`` may be objects with an ``arrival_s`` (:class:`Request`,
    ``GenRequest``) or bare timestamps: the simulators only read arrival
    times, so sweeps skip building objects. An empty stream raises
    unless ``empty_ok``.
    """
    if not requests:
        if empty_ok:
            return []
        raise ValueError("cannot simulate an empty request stream")
    if hasattr(requests[0], "arrival_s"):
        arrivals = [r.arrival_s for r in requests]
    else:
        arrivals = list(requests)
    if arrivals != sorted(arrivals):  # C-speed on near-sorted input
        raise ValueError("requests must be sorted by arrival time")
    return arrivals


def retry_policy(faults) -> tuple[int, float]:
    """``(retry budget, retry timeout)`` of a fault model, or the
    defaults when there is none (a bare schedule, or no faults)."""
    if faults is None:
        return DEFAULT_RETRY_BUDGET, DEFAULT_RETRY_TIMEOUT_S
    return faults.retry_budget, faults.retry_timeout_s


def resolve_schedule(schedule: Optional["FaultSchedule"],
                     faults: Optional["FaultModel"], cores: int,
                     horizon_s: float, owner: str = "chip",
                     ) -> Optional["FaultSchedule"]:
    """The fault timeline one simulator replays (``None`` = faultless).

    Resolution order: an explicit ``schedule`` wins; otherwise a
    non-zero-fault ``faults`` model is drawn over ``[0, horizon_s)``,
    and no model or a zero-fault one is faultless. A schedule built for
    another core count is rejected (``owner`` names the simulator in
    the message), and an empty one takes the faultless path, so it is
    bit-identical to passing nothing.
    """
    if schedule is None:
        if faults is None or faults.zero_fault:
            return None
        schedule = faults.schedule(cores, horizon_s)
    if schedule.cores != cores:
        raise ValueError(f"schedule built for {schedule.cores} cores, "
                         f"{owner} has {cores}")
    return None if schedule.is_empty else schedule


def serving_inputs(requests: Sequence, faults: Optional["FaultModel"],
                   schedule: Optional["FaultSchedule"], cores: int, *,
                   empty_ok: bool = False) -> tuple:
    """The fault/stream front door of a one-chip simulator's ``simulate``.

    Returns ``(arrivals, schedule, retry budget, retry timeout)``: the
    sorted arrival times (:func:`arrival_times`), the retry policy
    (:func:`retry_policy`), and the schedule :func:`resolve_schedule`
    picks, drawn over ``last arrival + faults.horizon_pad_s``.

    What each caller does differently: continuous batching passes
    ``empty_ok`` (an empty stream is a quiet window; nothing is drawn
    for it). The cluster router and a pod slice call the pieces
    directly: the router draws one forked schedule per replica
    (:func:`~repro.cluster.cluster.replica_schedules`), and a slice
    resolves its chip schedule over the pod's horizon pad and merges
    its link schedule into it.
    """
    arrivals = arrival_times(requests, empty_ok=empty_ok)
    drawn = faults if arrivals else None  # an empty stream draws nothing
    horizon = arrivals[-1] + drawn.horizon_pad_s if drawn is not None else 0.0
    return (arrivals, resolve_schedule(schedule, drawn, cores, horizon),
            *retry_policy(faults))


def check_seed_latency(batch, latency: float) -> None:
    """Reject a seeded batch latency that is negative, NaN or infinite.

    ``batch`` names the table entry in the error. A NaN would pass
    ``latency < 0`` and poison the simulated clock (``max(nan, t)``
    stays NaN); an infinite one never completes.
    """
    if not (math.isfinite(latency) and latency >= 0):
        raise ValueError(f"latency for batch {batch!r} must be "
                         f"non-negative and finite, got {latency!r}")


@dataclass(frozen=True)
class ServingStats:
    """Latency/throughput summary of one serving simulation.

    The fault fields keep their defaults on a faultless run, so a
    zero-fault simulation compares equal — field for field, bit for
    bit — to one that never saw a fault model at all.

    Request conservation is a constructor invariant: every offered
    request must be accounted for exactly once, ``requests == served +
    dropped + shed`` (``shed`` is only ever non-zero when a cluster
    router performed admission control upstream of the simulator).
    ``served_requests`` defaults to "derive it" so existing callers are
    unaffected; the simulator passes its actual completion count so a
    request can never silently vanish from the totals.
    """

    workload: str
    chip: str
    requests: int
    duration_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_batch: float
    throughput_qps: float
    slo_violation_fraction: float
    availability: float = 1.0          # served / offered requests
    retried_requests: int = 0          # re-enqueue events after batch loss
    dropped_requests: int = 0          # budget/timeout exhausted, never served
    lost_batches: int = 0              # in-flight batches destroyed
    lost_capacity_fraction: float = 0.0  # core-seconds down / core-seconds
    shed_requests: int = 0             # rejected by upstream admission control
    served_requests: int = -1          # completions (-1: derive from the rest)

    def __post_init__(self) -> None:
        if self.served_requests < 0:
            object.__setattr__(
                self, "served_requests",
                self.requests - self.dropped_requests - self.shed_requests)
        accounted = (self.served_requests + self.dropped_requests
                     + self.shed_requests)
        if accounted != self.requests:
            raise ValueError(
                f"request conservation violated: {self.requests} arrived != "
                f"{self.served_requests} served + {self.dropped_requests} "
                f"dropped + {self.shed_requests} shed")

    def describe(self) -> str:
        base = (f"{self.workload} on {self.chip}: {self.requests} reqs, "
                f"p99 {self.p99_s * 1e3:.2f} ms, mean batch "
                f"{self.mean_batch:.1f}, {self.throughput_qps:.0f} qps, "
                f"{self.slo_violation_fraction:.1%} SLO violations")
        if (self.availability < 1.0 or self.retried_requests
                or self.lost_batches):
            base += (f", {self.availability:.2%} available "
                     f"({self.retried_requests} retries, "
                     f"{self.dropped_requests} dropped, "
                     f"{self.lost_batches} batches lost, "
                     f"{self.lost_capacity_fraction:.1%} capacity down)")
        return base


def fold_stats(sim: "ServingSimulator",
               schedule: Optional["FaultSchedule"], requests: int,
               first_arrival: Optional[float], last_arrival: float,
               last_completion: float, latencies: Sequence[float],
               batch_sizes: list[int], retried: int, dropped: int,
               lost_batches: int) -> ServingStats:
    """Fold one serving timeline's outputs into :class:`ServingStats`.

    The one constructor of serving stats, for a simulator's own replay
    and for each cluster replica. The duration runs from the first
    arrival to the later of the last arrival and last completion (0
    when nothing arrived); lost capacity is the schedule's core-seconds
    down over that window. Percentiles and violations come from one
    :meth:`~repro.serving.slo.Slo.summarize` pass.
    """
    if first_arrival is None:
        duration = 0.0
    else:
        duration = max(last_completion, last_arrival) - first_arrival
    lost_capacity = 0.0
    if schedule is not None and duration > 0:
        lost_capacity = (
            schedule.downtime_core_s(first_arrival, first_arrival + duration)
            / (sim.point.chip.cores * duration))
    served = len(latencies)
    p50, p95, p99, violations = sim.slo.summarize(latencies)
    return ServingStats(
        workload=sim.spec.name,
        chip=sim.point.chip.name,
        requests=requests,
        duration_s=duration,
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        mean_batch=(sum(batch_sizes) / len(batch_sizes)
                    if batch_sizes else 0.0),
        throughput_qps=served / duration if duration > 0 else 0.0,
        slo_violation_fraction=violations,
        availability=served / requests if requests else 1.0,
        retried_requests=retried,
        dropped_requests=dropped,
        lost_batches=lost_batches,
        lost_capacity_fraction=lost_capacity,
        served_requests=served,
    )


class ServingSimulator:
    """Simulates request serving for one workload on one design point."""

    #: Per-instance memos :meth:`share_memos` hands from one identical
    #: simulator to another.
    _MEMOS: tuple[str, ...] = ("_latency_cache",)

    def __init__(self, point: DesignPoint, spec: WorkloadSpec,
                 policy: BatchPolicy, slo: Slo) -> None:
        self.point = point
        self.spec = spec
        self.policy = policy
        self.slo = slo
        self._latency_cache: dict[int, float] = {}

    def batch_latency_s(self, batch: int) -> float:
        """Compute latency of one padded batch (memoized), in the chip's
        :attr:`~repro.arch.chip.ChipConfig.native_dtype`.

        Lookups route through the design point's memo and the engine's
        :class:`~repro.engine.cache.EvalCache`: a second simulator on
        the same design point — or, with the disk tier on, any point of
        the same configuration in this or a later process — reuses
        these latencies.
        """
        padded = self.policy.padded_size(batch)
        if padded not in self._latency_cache:
            self._latency_cache[padded] = self.point.latency_s(
                self.spec, padded, dtype=self.point.chip.native_dtype)
        return self._latency_cache[padded]

    def seed_latencies(self, table: Mapping[int, float]) -> None:
        """Pre-seed the padded-batch -> latency memo.

        For latencies obtained outside the design point's default path —
        a batched grid pass, an int8 retarget on a bf16 chip (the
        cluster's degraded tier), or a synthetic table in tests. Keys
        must be padded batch steps and latencies finite and non-negative
        (:func:`check_seed_latency`).
        """
        for batch, latency in table.items():
            if batch < 1:
                raise ValueError("batch must be >= 1")
            check_seed_latency(batch, latency)
        self._latency_cache.update(table)

    def simulate(self, requests: Sequence[Request],
                 faults: Optional["FaultModel"] = None,
                 schedule: Optional["FaultSchedule"] = None,
                 tracer: Optional["SpanTracer"] = None) -> ServingStats:
        """Run the event loop over a time-sorted request stream.

        ``faults`` injects the model's seeded failure schedule;
        ``schedule`` supplies a pre-built (or hand-written) one directly
        and wins when both are given. With neither — or with a
        zero-fault model — the loop reduces to the faultless arithmetic
        and the returned stats are bit-identical to a plain run.

        ``tracer`` records one span per launched batch (and per batch
        lost to a fault) on ``serving/core<i>`` tracks, timestamped in
        simulated microseconds. Observability is a pure side channel:
        with ``tracer=None`` and the metrics registry disabled (the
        defaults) the loop performs no extra work beyond one boolean
        check per launch, and the returned stats are bit-identical
        either way (asserted in ``tests/test_obs.py``).

        ``requests`` may be :class:`Request` objects or bare arrival
        timestamps (floats) — the simulator only ever reads arrival
        times, and large sweeps skip a lot of object construction by
        passing timestamps directly.
        """
        arrivals, schedule, retry_budget, retry_timeout = serving_inputs(
            requests, faults, schedule, self.point.chip.cores)
        return replay_serving(self, arrivals, schedule, retry_budget,
                              retry_timeout, tracer)

    def _finalize(self, arrivals: list[float],
                  schedule: Optional["FaultSchedule"],
                  latencies: list[float], batch_sizes: list[int],
                  retried: int, dropped: int, lost_batches: int,
                  last_completion: float) -> ServingStats:
        """Fold replay outputs into :class:`ServingStats` (shared by the
        fastserve kernel and the test-only event loop) and count them in the
        ``serving.*`` registry family — only this single-simulator path
        counts there; cluster replicas fold through :func:`fold_stats`
        alone."""
        reg = metrics()
        if reg.enabled:
            reg.counter("serving.batches").inc(len(batch_sizes))
            reg.counter("serving.requests_offered").inc(len(arrivals))
            reg.counter("serving.requests_served").inc(len(latencies))
            reg.counter("serving.retried_requests").inc(retried)
            reg.counter("serving.dropped_requests").inc(dropped)
            reg.counter("serving.lost_batches").inc(lost_batches)
        return fold_stats(self, schedule, len(arrivals), arrivals[0],
                          arrivals[-1], last_completion, latencies,
                          batch_sizes, retried, dropped, lost_batches)

    def share_memos(self, source: "ServingSimulator") -> None:
        """Serve from ``source``'s memos instead of this simulator's own.

        For identical simulators (same design point, workload, batcher
        and, for a slice, topology): replicas of one cluster then
        compute each latency — and a slice each shard graph and link
        state — once, not once per replica.
        """
        for name in self._MEMOS:
            setattr(self, name, getattr(source, name))

    def max_slo_batch(self) -> int:
        """Largest compiled batch step whose *compute alone* fits the SLO.

        The Lesson 9 headline number: even with zero queueing, the latency
        budget caps the batch.
        """
        return largest_batch_within(
            {step: self.batch_latency_s(step)
             for step in BatchPolicy.batch_steps(self.policy.max_batch)},
            self.slo.limit_s, 0)
