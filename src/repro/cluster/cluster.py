"""Deterministic cluster-serving simulator: N replicas behind a router.

Composes N replica :class:`~repro.serving.server.ServingSimulator`\\ s on
one shared simulated clock behind a router that implements the
protections a :class:`~repro.cluster.policy.ClusterPolicy` declares:
health-checked routing with ejection and half-open re-admission,
token-bucket admission control with queue-depth backpressure, request
hedging with first-response-wins accounting, and a graceful-degradation
tier ladder (smaller batches, then an int8-retargeted compile).

The whole thing is a discrete-event simulation. Events — request
arrivals, batch completions, health probes, hedge timers and batch
launches — are processed in simulated-time order with a fixed priority
at equal timestamps (completions, then probes, then arrivals, then
hedge timers, then launches; replica index breaks remaining ties), so a
run is a pure function of its inputs: byte-identical stats on every
repeat.

**Identity contract** (asserted in
``tests/test_cluster.py::TestPassthroughIdentity``): a one-replica
cluster under a passthrough policy — and with no faults — produces a
per-replica :class:`~repro.serving.server.ServingStats` that equals the
plain ``ServingSimulator.simulate`` result on the same trace, field for
field, bit for bit. The router adds *nothing* to the fault-free path;
every protection is pay-for-what-you-use.

Replica fault streams are forked deterministically: replica ``i``
realizes ``FaultModel`` with seed ``DeterministicRng(model.seed)
.fork(_REPLICA_SALT + i).seed``, so adding a replica never perturbs the
failures another replica sees.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.cluster.policy import ClusterPolicy
from repro.obs.metrics import metrics
from repro.serving.batching import BatchPolicy
from repro.serving.fastserve import replay_cluster
from repro.serving.server import (ServingSimulator, ServingStats,
                                  arrival_times, fold_stats,
                                  resolve_schedule, retry_policy)
from repro.serving.slo import Slo

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultModel, FaultSchedule
    from repro.obs.tracer import SpanTracer

#: Per-replica fault-stream salt: far above the model's internal salts
#: so replica streams never collide with core/chip/slowdown streams.
_REPLICA_SALT = 9_000_000

#: Event priorities at equal simulated timestamps. Completions free
#: capacity before anything else looks at it; probes update health
#: before routing decisions; arrivals join queues before the batch that
#: could absorb them launches (this reproduces the single-simulator
#: absorb rule ``arrival <= max(server_free, deadline)`` exactly).
_P_COMPLETION = 0
_P_PROBE = 1
_P_ARRIVAL = 2
_P_HEDGE = 3
_P_LAUNCH = 4

_HEALTHY = 0
_EJECTED = 1


@dataclass(frozen=True)
class ClusterStats:
    """Cluster-level summary plus the per-replica breakdown.

    Unique-request accounting: ``requests`` counts offered requests,
    each counted once no matter how many hedged or failed-over copies
    existed; conservation (``requests == served + dropped + shed``) is
    a constructor invariant, same as :class:`ServingStats`. The
    per-replica stats count *copies*, so with hedging on their sums can
    exceed the cluster totals — that surplus is exactly the hedging
    overhead (``wasted_hedges`` batches of it actually burned compute).
    """

    workload: str
    chip: str
    replicas: int
    requests: int
    duration_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_batch: float
    throughput_qps: float
    slo_violation_fraction: float
    availability: float
    served_requests: int
    dropped_requests: int
    shed_requests: int
    retried_requests: int = 0
    lost_batches: int = 0
    hedged_requests: int = 0       # hedge copies issued
    cancelled_hedges: int = 0      # loser copies cancelled while queued
    wasted_hedges: int = 0         # loser copies that burned compute
    failed_over_requests: int = 0  # queued copies moved off an ejected replica
    probes: int = 0
    probe_failures: int = 0
    ejections: int = 0
    readmissions: int = 0
    time_in_tier_s: tuple = ()     # ((tier name, simulated seconds), ...)
    replica_stats: tuple = ()      # per-replica ServingStats

    def __post_init__(self) -> None:
        accounted = (self.served_requests + self.dropped_requests
                     + self.shed_requests)
        if accounted != self.requests:
            raise ValueError(
                f"request conservation violated: {self.requests} arrived != "
                f"{self.served_requests} served + {self.dropped_requests} "
                f"dropped + {self.shed_requests} shed")

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered requests rejected by admission control."""
        return self.shed_requests / self.requests if self.requests else 0.0

    @property
    def degraded_s(self) -> float:
        """Simulated seconds spent below the full-service tier."""
        return sum(seconds for name, seconds in self.time_in_tier_s[1:])

    def describe(self) -> str:
        base = (f"{self.workload} x{self.replicas} on {self.chip}: "
                f"{self.requests} reqs, {self.availability:.2%} available, "
                f"p99 {self.p99_s * 1e3:.2f} ms, "
                f"{self.shed_fraction:.1%} shed")
        extras = []
        if self.hedged_requests:
            extras.append(f"{self.hedged_requests} hedged "
                          f"({self.cancelled_hedges} cancelled, "
                          f"{self.wasted_hedges} wasted)")
        if self.ejections:
            extras.append(f"{self.ejections} ejections "
                          f"({self.readmissions} readmitted, "
                          f"{self.failed_over_requests} failed over)")
        if self.degraded_s:
            extras.append(f"{self.degraded_s:.3g} s degraded")
        if extras:
            base += " [" + "; ".join(extras) + "]"
        return base


class _Replica:
    """Mutable per-replica state of one cluster simulation run."""

    __slots__ = ("index", "sim", "schedule", "servers", "queue", "health",
                 "consecutive_failures", "ejected_until", "dead",
                 "latencies", "batch_sizes", "retried", "dropped",
                 "lost_batches", "last_completion", "first_arrival",
                 "last_arrival")

    def __init__(self, index: int, sim: ServingSimulator,
                 schedule: Optional["FaultSchedule"]) -> None:
        self.index = index
        self.sim = sim
        self.schedule = schedule
        self.servers = [(0.0, core) for core in range(sim.point.chip.cores)]
        heapq.heapify(self.servers)
        # Queue entries are (arrival_s, retries, request id); hedge and
        # failed-over copies keep the original arrival time, exactly as
        # retried requests do inside ServingSimulator.
        self.queue: list[tuple[float, int, int]] = []
        self.health = _HEALTHY
        self.consecutive_failures = 0
        self.ejected_until = 0.0
        self.dead = False  # every core is down for good
        self.latencies: list[float] = []
        self.batch_sizes: list[int] = []
        self.retried = 0
        self.dropped = 0
        self.lost_batches = 0
        self.last_completion = 0.0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None

    def note_assignment(self, arrival: float) -> None:
        if self.first_arrival is None or arrival < self.first_arrival:
            self.first_arrival = arrival
        if self.last_arrival is None or arrival > self.last_arrival:
            self.last_arrival = arrival

    def next_launch(self, cap: int) -> Optional[float]:
        """When the head batch would launch, or None (idle / dead)."""
        if not self.queue:
            return None
        free = self.servers[0][0]
        if math.isinf(free):
            self.dead = True
            return None
        if len(self.queue) >= cap:
            ready = self.queue[cap - 1][0]
        else:
            ready = self.queue[0][0] + self.sim.policy.max_wait_s
        return max(free, ready)

    def stats(self, latencies: np.ndarray) -> ServingStats:
        """Fold this replica, given its latencies already in numpy."""
        served = len(latencies)
        return fold_stats(self.sim, self.schedule, served + self.dropped,
                          self.first_arrival, self.last_arrival,
                          self.last_completion, latencies,
                          self.batch_sizes, self.retried, self.dropped,
                          self.lost_batches)


def replica_schedules(faults: Optional["FaultModel"], cores: Sequence[int],
                      last_arrival: float,
                      ) -> list[Optional["FaultSchedule"]]:
    """One independently-seeded schedule per replica (None = clean).

    Replica ``i`` (with ``cores[i]`` cores) draws ``faults`` reseeded
    to ``DeterministicRng(faults.seed).fork(_REPLICA_SALT + i).seed``
    over ``last_arrival + faults.horizon_pad_s``, so adding a replica
    never moves the failures another one sees.
    """
    if faults is None or faults.zero_fault:
        return [None] * len(cores)
    from repro.util.rng import DeterministicRng
    root = DeterministicRng(faults.seed)
    horizon = last_arrival + faults.horizon_pad_s
    return [resolve_schedule(
                None, replace(faults, seed=root.fork(_REPLICA_SALT + i).seed),
                n, horizon)
            for i, n in enumerate(cores)]


class ClusterSimulator:
    """N replica serving simulators behind one policy-driven router."""

    def __init__(self, replicas: Sequence[ServingSimulator],
                 policy: Optional[ClusterPolicy] = None) -> None:
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        names = {sim.spec.name for sim in replicas}
        if len(names) != 1:
            raise ValueError(
                f"replicas must serve one workload, got {sorted(names)}")
        self.replica_sims = tuple(replicas)
        self.policy = policy if policy is not None else ClusterPolicy()
        if self.policy.degrades and not self.policy.probes:
            raise ValueError(
                "degradation tiers need health probing: the tier controller "
                "runs on the probe clock (set probe_interval_s)")

    @classmethod
    def homogeneous(cls, point, spec, policy: BatchPolicy, slo: Slo,
                    replicas: int,
                    cluster_policy: Optional[ClusterPolicy] = None,
                    ) -> "ClusterSimulator":
        """Build N identical replicas of one (design point, workload).

        Identical replicas serve identical latencies, so they share one
        batch-latency memo: the cluster compiles/simulates each padded
        batch size once, not once per replica.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        sims = [ServingSimulator(point, spec, policy, slo)
                for _ in range(replicas)]
        for sim in sims[1:]:
            sim.share_memos(sims[0])
        return cls(sims, cluster_policy)

    # ------------------------------------------------------------- internals

    def _tier_tables(self) -> list[dict[str, dict[int, float]]]:
        """Per-replica dtype -> (padded batch -> latency) for dtype tiers.

        Prices every tier dtype through :func:`~repro.faults.sweep.
        latency_table` (identical replicas hit their design point's
        memo, so each table is compiled once); lookups go by the
        replica's own padded size so a tier cap that is not a compiled
        step still maps onto an existing program (fewer requests padded
        into it), never a phantom one.
        """
        dtypes = sorted({t.dtype for t in self.policy.tiers if t.dtype})
        from repro.faults.sweep import latency_table
        return [{dtype: latency_table(
                    sim.point, sim.spec,
                    BatchPolicy.batch_steps(sim.policy.max_batch),
                    dtype=dtype)
                 for dtype in dtypes}
                for sim in self.replica_sims]

    # -------------------------------------------------------------- simulate

    def simulate(self, requests: Sequence[Request],
                 faults: Optional["FaultModel"] = None,
                 schedules: Optional[Sequence[
                     Optional["FaultSchedule"]]] = None,
                 tracer: Optional["SpanTracer"] = None) -> ClusterStats:
        """Run the cluster event loop over a time-sorted request stream.

        ``faults`` forks one independently-seeded schedule per replica;
        ``schedules`` supplies them directly (one entry per replica,
        ``None`` for a clean replica) and wins when both are given.
        ``tracer`` records batch spans per replica core plus router
        instants (ejections, re-admissions, tier changes) — a pure side
        channel, bit-identical stats either way.

        ``requests`` may be :class:`Request` objects or bare arrival
        timestamps (floats) — the router only ever reads arrival times,
        and sweeps over hundreds of thousands of requests skip a lot of
        object construction by passing timestamps directly.
        """
        arrivals = arrival_times(requests)
        sims = self.replica_sims
        if schedules is not None:
            if len(schedules) != len(sims):
                raise ValueError(
                    f"{len(schedules)} schedules for {len(sims)} replicas")
            plan = [resolve_schedule(schedule, None, sim.point.chip.cores,
                                     0.0, owner="replica")
                    for sim, schedule in zip(sims, schedules)]
        else:
            plan = replica_schedules(
                faults, [sim.point.chip.cores for sim in sims], arrivals[-1])
        retry_budget, retry_timeout = retry_policy(faults)

        reps = [_Replica(i, sim, plan[i])
                for i, sim in enumerate(self.replica_sims)]
        tier_tables = self._tier_tables()

        return replay_cluster(self, arrivals, reps, tier_tables,
                              retry_budget, retry_timeout, tracer)

    def _replay_events(self, arrivals: list[float], reps: list[_Replica],
                       tier_tables: list, retry_budget: int,
                       retry_timeout: float,
                       tracer: Optional["SpanTracer"]) -> ClusterStats:
        """Reference event loop: the test-only oracle for
        :func:`~repro.serving.fastserve.replay_cluster`."""
        policy = self.policy
        n = len(reps)
        reg = metrics()
        rec = reg.enabled

        # ----- per-request state (unique-request accounting) -----
        total = len(arrivals)
        completed_at: list[Optional[float]] = [None] * total
        outstanding = [0] * total
        holding: list[list[int]] = [[] for _ in range(total)]
        hedged_flag = [False] * total

        cluster_latencies: list[float] = []
        shed = dropped_unique = 0
        hedged = cancelled_hedges = wasted_hedges = failed_over = 0
        probes = probe_failures = ejections = readmissions = 0

        # ----- router clocks -----
        tokens = policy.admission_burst
        tokens_at = arrivals[0]
        next_probe = (arrivals[0] + policy.probe_interval_s
                      if policy.probes else math.inf)
        hedge_heap: list[tuple[float, int]] = []   # (fire time, request id)
        completion_heap: list = []  # (time, replica, seq, batch entries)
        completion_seq = 0

        # ----- degradation ladder -----
        tier = 0
        tier_names = ("full",) + tuple(t.name for t in policy.tiers)
        tier_time = [0.0] * len(tier_names)
        tier_since = arrivals[0]
        bad_windows = good_windows = 0

        def tier_cap(rep: _Replica) -> int:
            base = rep.sim.policy.max_batch
            if tier == 0:
                return base
            override = policy.tiers[tier - 1].max_batch
            return base if override is None else min(base, override)

        def tier_latency(rep: _Replica, size: int) -> float:
            if tier == 0 or policy.tiers[tier - 1].dtype is None:
                return rep.sim.batch_latency_s(size)
            dtype = policy.tiers[tier - 1].dtype
            padded = rep.sim.policy.padded_size(size)
            return tier_tables[rep.index][dtype][padded]

        # ----- helpers -----
        def route(exclude: frozenset = frozenset(),
                  last_resort: bool = False) -> Optional[_Replica]:
            """Join-shortest-queue among healthy live replicas.

            Falls back to any live replica when none is healthy; with
            ``last_resort`` it will even pick a dead one (the caller
            then drops the request — mirroring what a lone simulator
            does when its last core dies).
            """
            pools = [
                (r for r in reps if r.health == _HEALTHY and not r.dead
                 and r.index not in exclude),
                (r for r in reps if not r.dead and r.index not in exclude),
            ]
            if last_resort:
                pools.append(r for r in reps if r.index not in exclude)
            for pool in pools:
                best = min(pool, key=lambda r: (len(r.queue), r.index),
                           default=None)
                if best is not None:
                    return best
            return None

        def copy_dropped(rid: int, rep: _Replica) -> None:
            nonlocal dropped_unique
            outstanding[rid] -= 1
            if rep.index in holding[rid]:
                holding[rid].remove(rep.index)
            if outstanding[rid] == 0 and completed_at[rid] is None:
                dropped_unique += 1

        def assign(rep: _Replica, entry: tuple[float, int, int]) -> None:
            rid = entry[2]
            rep.note_assignment(entry[0])
            if rep.dead:
                # Routing of last resort: the whole cluster is down.
                rep.dropped += 1
                outstanding[rid] += 1
                holding[rid].append(rep.index)
                copy_dropped(rid, rep)
                return
            rep.queue.append(entry)
            outstanding[rid] += 1
            holding[rid].append(rep.index)

        def fail_over(rep: _Replica, entries: list) -> None:
            nonlocal failed_over
            for entry in entries:
                rid = entry[2]
                outstanding[rid] -= 1
                if rep.index in holding[rid]:
                    holding[rid].remove(rep.index)
                target = route(exclude=frozenset((rep.index,)))
                if target is None or target.dead or target.health != _HEALTHY:
                    # No healthy peer can take it: account the drop to
                    # the replica that lost it.
                    rep.dropped += 1
                    outstanding[rid] += 1
                    holding[rid].append(rep.index)
                    copy_dropped(rid, rep)
                else:
                    failed_over += 1
                    assign(target, entry)

        def eject(rep: _Replica, now: float) -> None:
            nonlocal ejections
            rep.health = _EJECTED
            rep.ejected_until = now + policy.ejection_s
            rep.consecutive_failures = 0
            ejections += 1
            if tracer is not None:
                tracer.record("eject", "router", "cluster", "router",
                              now * 1e6, 0.0,
                              (("replica", rep.index),))
            moved, rep.queue = rep.queue, []
            fail_over(rep, moved)

        def probe_fails(rep: _Replica, now: float) -> bool:
            if rep.schedule is None:
                return False
            return all(rep.schedule.outage_end(core, now) is not None
                       for core in range(rep.sim.point.chip.cores))

        def set_tier(new_tier: int, now: float) -> None:
            nonlocal tier, tier_since
            tier_time[tier] += now - tier_since
            tier = new_tier
            tier_since = now
            if rec:
                reg.counter("cluster.tier_changes").inc()
            if tracer is not None:
                tracer.record("tier", "router", "cluster", "router",
                              now * 1e6, 0.0,
                              (("tier", tier_names[new_tier]),))

        # ----- the event loop -----
        index = 0
        while True:
            t_completion = (completion_heap[0][0] if completion_heap
                            else math.inf)
            t_arrival = arrivals[index] if index < total else math.inf
            t_hedge = hedge_heap[0][0] if hedge_heap else math.inf
            pending = (index < total or completion_heap or hedge_heap
                       or any(r.queue for r in reps))
            t_probe = next_probe if (policy.probes and pending) else math.inf

            best_time = math.inf
            best_kind = None
            best_rep: Optional[_Replica] = None
            for kind, when in ((_P_COMPLETION, t_completion),
                               (_P_PROBE, t_probe),
                               (_P_ARRIVAL, t_arrival),
                               (_P_HEDGE, t_hedge)):
                if when < best_time or (when == best_time
                                        and best_kind is not None
                                        and kind < best_kind):
                    best_time, best_kind = when, kind
            for rep in reps:
                when = rep.next_launch(tier_cap(rep))
                if when is None:
                    if rep.dead and rep.queue and (
                            not policy.probes or rep.health != _HEALTHY):
                        # No probe will eject this dead replica (probing
                        # is off, or it is already ejected): mirror the
                        # lone simulator and drop its stranded queue on
                        # detection.
                        stranded, rep.queue = rep.queue, []
                        for entry in stranded:
                            rep.dropped += 1
                            copy_dropped(entry[2], rep)
                    continue
                if when < best_time:
                    best_time, best_kind, best_rep = when, _P_LAUNCH, rep
            if best_kind is None:
                if any(r.queue for r in reps) and policy.probes:
                    best_time, best_kind = next_probe, _P_PROBE
                else:
                    break

            if best_kind == _P_COMPLETION:
                when, _, _, rep_index, batch = heapq.heappop(completion_heap)
                rep = reps[rep_index]
                for arrival, _, rid in batch:
                    outstanding[rid] -= 1
                    if rep_index in holding[rid]:
                        holding[rid].remove(rep_index)
                    if completed_at[rid] is None:
                        completed_at[rid] = when
                        cluster_latencies.append(when - arrival)
                        if outstanding[rid] > 0:
                            # A losing hedge twin is still out there:
                            # cancel it if it has not launched yet.
                            for peer_index in list(holding[rid]):
                                peer = reps[peer_index]
                                for pos, entry in enumerate(peer.queue):
                                    if entry[2] == rid:
                                        del peer.queue[pos]
                                        outstanding[rid] -= 1
                                        holding[rid].remove(peer_index)
                                        cancelled_hedges += 1
                                        break
                    else:
                        wasted_hedges += 1
                continue

            if best_kind == _P_PROBE:
                now = next_probe
                for rep in reps:
                    if rep.health == _HEALTHY:
                        probes += 1
                        if probe_fails(rep, now):
                            probe_failures += 1
                            rep.consecutive_failures += 1
                            if (rep.consecutive_failures
                                    >= policy.unhealthy_after):
                                eject(rep, now)
                        else:
                            rep.consecutive_failures = 0
                    elif now >= rep.ejected_until:
                        # Half-open: one probe decides re-admission.
                        probes += 1
                        if probe_fails(rep, now):
                            probe_failures += 1
                            rep.ejected_until = now + policy.ejection_s
                        else:
                            rep.health = _HEALTHY
                            readmissions += 1
                            if tracer is not None:
                                tracer.record(
                                    "readmit", "router", "cluster", "router",
                                    now * 1e6, 0.0,
                                    (("replica", rep.index),))
                healthy = sum(1 for r in reps
                              if r.health == _HEALTHY and not r.dead)
                if rec:
                    reg.gauge("cluster.healthy_replicas").set(healthy)
                if policy.degrades:
                    queued = sum(len(r.queue) for r in reps)
                    bad = (healthy / n < policy.degrade_below_healthy
                           or (policy.degrade_above_queue is not None
                               and queued > policy.degrade_above_queue))
                    if bad:
                        bad_windows += 1
                        good_windows = 0
                        if (bad_windows >= policy.degrade_after
                                and tier < len(policy.tiers)):
                            set_tier(tier + 1, now)
                            bad_windows = 0
                    else:
                        good_windows += 1
                        bad_windows = 0
                        if good_windows >= policy.recover_after and tier > 0:
                            set_tier(tier - 1, now)
                            good_windows = 0
                next_probe = now + policy.probe_interval_s
                continue

            if best_kind == _P_ARRIVAL:
                arrival = arrivals[index]
                rid = index
                index += 1
                if policy.admission_rate_qps is not None:
                    tokens = min(
                        policy.admission_burst,
                        tokens + (arrival - tokens_at)
                        * policy.admission_rate_qps)
                    tokens_at = arrival
                    if tokens < 1.0:
                        shed += 1
                        if rec:
                            reg.counter("cluster.shed_requests").inc()
                        continue
                    tokens -= 1.0
                target = route(last_resort=True)
                if (policy.max_queue_depth is not None
                        and len(target.queue) >= policy.max_queue_depth):
                    shed += 1
                    if rec:
                        reg.counter("cluster.shed_requests").inc()
                    continue
                assign(target, (arrival, 0, rid))
                if policy.hedges and not target.dead:
                    heapq.heappush(
                        hedge_heap, (arrival + policy.hedge_delay_s, rid))
                continue

            if best_kind == _P_HEDGE:
                _, rid = heapq.heappop(hedge_heap)
                if (completed_at[rid] is not None or hedged_flag[rid]
                        or outstanding[rid] == 0):
                    continue
                target = route(exclude=frozenset(holding[rid]))
                if (target is None or target.dead
                        or target.health != _HEALTHY):
                    continue  # no second healthy replica: no hedge
                hedged_flag[rid] = True
                hedged += 1
                if rec:
                    reg.counter("cluster.hedged_requests").inc()
                assign(target, (arrivals[rid], 0, rid))
                continue

            # ----- launch on best_rep at best_time -----
            rep = best_rep
            launch = best_time
            cap = tier_cap(rep)
            free, core = rep.servers[0]

            if rep.retried and not math.isinf(retry_timeout):
                alive = [e for e in rep.queue
                         if not (e[1] > 0 and launch - e[0] > retry_timeout)]
                if len(alive) != len(rep.queue):
                    for entry in rep.queue:
                        if entry[1] > 0 and launch - entry[0] > retry_timeout:
                            rep.dropped += 1
                            copy_dropped(entry[2], rep)
                    rep.queue = alive
                    continue

            if rep.schedule is not None:
                down_until = rep.schedule.outage_end(core, launch)
                if down_until is not None:
                    if rec:
                        reg.counter("serving.outage_wait_s").inc(
                            max(0.0, down_until - launch))
                    heapq.heapreplace(rep.servers, (down_until, core))
                    continue

            size = min(len(rep.queue), cap)
            latency = tier_latency(rep, size)
            if rep.schedule is not None:
                factor = rep.schedule.slowdown_factor(core, launch)
                if factor != 1.0:
                    latency *= factor
            completion = launch + latency

            if rep.schedule is not None:
                failure = rep.schedule.first_failure_between(
                    core, launch, completion)
                if failure is not None:
                    fail_start, fail_end = failure
                    rep.lost_batches += 1
                    if tracer is not None:
                        tracer.record(
                            "batch.lost", "serve", "cluster",
                            f"replica{rep.index}/core{core}",
                            launch * 1e6, (fail_start - launch) * 1e6,
                            (("size", size),))
                    batch, rep.queue = rep.queue[:size], rep.queue[size:]
                    survivors: list[tuple[float, int, int]] = []
                    for arrival, retries, rid in batch:
                        if (retries + 1 > retry_budget
                                or fail_start - arrival > retry_timeout):
                            rep.dropped += 1
                            copy_dropped(rid, rep)
                        else:
                            rep.retried += 1
                            survivors.append((arrival, retries + 1, rid))
                    if rep.health == _HEALTHY:
                        rep.queue = survivors + rep.queue
                    else:
                        # The router already ejected this replica while
                        # the batch was in flight: survivors go to a
                        # healthy peer instead of its drained queue.
                        # (In-flight entries are still tracked in
                        # outstanding/holding, so fail_over's hand-off
                        # bookkeeping applies to them unchanged.)
                        fail_over(rep, survivors)
                    heapq.heapreplace(rep.servers, (fail_end, core))
                    continue

            batch, rep.queue = rep.queue[:size], rep.queue[size:]
            heapq.heapreplace(rep.servers, (completion, core))
            if tracer is not None:
                tracer.record("batch", "serve", "cluster",
                              f"replica{rep.index}/core{core}",
                              launch * 1e6, latency * 1e6,
                              (("size", size),))
            rep.latencies.extend(completion - a for a, _, _ in batch)
            rep.batch_sizes.append(size)
            rep.last_completion = max(rep.last_completion, completion)
            completion_seq += 1
            heapq.heappush(
                completion_heap,
                (completion, _P_COMPLETION, completion_seq, rep.index,
                 tuple(batch)))

        return self._finalize(
            arrivals, reps, cluster_latencies, shed, dropped_unique, hedged,
            cancelled_hedges, wasted_hedges, failed_over, probes,
            probe_failures, ejections, readmissions, tier_names, tier_time,
            tier, tier_since)

    def _finalize(self, arrivals: list[float], reps: list[_Replica],
                  cluster_latencies: Optional[list[float]], shed: int,
                  dropped_unique: int, hedged: int, cancelled_hedges: int,
                  wasted_hedges: int, failed_over: int, probes: int,
                  probe_failures: int, ejections: int, readmissions: int,
                  tier_names: tuple, tier_time: list[float], tier: int,
                  tier_since: float) -> ClusterStats:
        """Fold replay outputs into :class:`ClusterStats` (shared by the
        event loop and the fastserve kernel). Each latency list goes to
        numpy once. ``cluster_latencies`` is None when every replica
        latency is a cluster latency (one copy per request): the cluster
        sample is then the replicas' arrays concatenated, since
        percentiles and violations depend only on the multiset."""
        total = len(arrivals)
        n = len(reps)
        reg = metrics()
        rec = reg.enabled
        last_completion = max((r.last_completion for r in reps), default=0.0)
        end_time = max(last_completion, arrivals[-1])
        # Probes can outlive the traffic window while draining a dead
        # replica, so the final tier stint is clamped at zero.
        tier_time[tier] += max(0.0, end_time - tier_since)
        duration = end_time - arrivals[0]
        samples = [np.asarray(rep.latencies, dtype=np.float64)
                   for rep in reps]
        replica_stats = tuple(rep.stats(sample)
                              for rep, sample in zip(reps, samples))
        cluster_sample = (np.concatenate(samples) if cluster_latencies is None
                          else cluster_latencies)
        served = len(cluster_sample)
        retried = sum(r.retried for r in reps)
        lost_batches = sum(r.lost_batches for r in reps)
        mean_batch_num = sum(sum(r.batch_sizes) for r in reps)
        mean_batch_den = sum(len(r.batch_sizes) for r in reps)

        if rec:
            reg.counter("cluster.requests_offered").inc(total)
            reg.counter("cluster.requests_served").inc(served)
            reg.counter("cluster.requests_dropped").inc(dropped_unique)
            reg.counter("cluster.cancelled_hedges").inc(cancelled_hedges)
            reg.counter("cluster.wasted_hedges").inc(wasted_hedges)
            reg.counter("cluster.failed_over").inc(failed_over)
            reg.counter("cluster.probes").inc(probes)
            reg.counter("cluster.probe_failures").inc(probe_failures)
            reg.counter("cluster.ejections").inc(ejections)
            reg.counter("cluster.readmissions").inc(readmissions)

        p50, p95, p99, violations = self.replica_sims[0].slo.summarize(
            cluster_sample)
        return ClusterStats(
            workload=self.replica_sims[0].spec.name,
            chip=self.replica_sims[0].point.chip.name,
            replicas=n,
            requests=total,
            duration_s=duration,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            mean_batch=(mean_batch_num / mean_batch_den
                        if mean_batch_den else 0.0),
            throughput_qps=served / duration if duration > 0 else 0.0,
            slo_violation_fraction=violations,
            availability=served / total,
            served_requests=served,
            dropped_requests=dropped_unique,
            shed_requests=shed,
            retried_requests=retried,
            lost_batches=lost_batches,
            hedged_requests=hedged,
            cancelled_hedges=cancelled_hedges,
            wasted_hedges=wasted_hedges,
            failed_over_requests=failed_over,
            probes=probes,
            probe_failures=probe_failures,
            ejections=ejections,
            readmissions=readmissions,
            time_in_tier_s=tuple(zip(tier_names, tier_time)),
            replica_stats=replica_stats,
        )
