"""Test-only oracle for the cluster router.

:func:`replay_events` is the event-at-a-time loop that
``repro.serving.fastserve.replay_cluster`` replaced. Each pass re-derives
every replica's next launch (:func:`next_launch`) and picks the earliest
event, with a fixed priority at equal timestamps: completions, then
probes, then arrivals, then hedge timers, then launches (the lowest
replica index breaks remaining ties). Requests keep a holder list and an
outstanding-copy count, so hedged and failed-over copies are accounted
once. The kernel must return the same :class:`ClusterStats`, metric
observations and tracer spans bit for bit (``tests/test_fastserve.py``);
``tests/conftest.py::reference_paths`` patches this loop in for
``replay_cluster``. DESIGN.md ("Serving replay semantics") states the
rules in prose.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Optional

from repro.cluster.cluster import _EJECTED, _HEALTHY, _Replica
from repro.obs.metrics import metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterSimulator, ClusterStats
    from repro.obs.tracer import SpanTracer

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


def next_launch(rep: _Replica, cap: int) -> Optional[float]:
    """When ``rep``'s head batch would launch, or None (idle / dead)."""
    if not rep.queue:
        return None
    free = rep.servers[0][0]
    if math.isinf(free):
        rep.dead = True
        return None
    if len(rep.queue) >= cap:
        ready = rep.queue[cap - 1][0]
    else:
        ready = rep.queue[0][0] + rep.sim.policy.max_wait_s
    return max(free, ready)


def replay_events(cluster: "ClusterSimulator", arrivals: list[float],
                  reps: list[_Replica], tier_tables: list, retry_budget: int,
                  retry_timeout: float,
                  tracer: Optional["SpanTracer"]) -> "ClusterStats":
    """Replay one cluster timeline one event at a time."""
    policy = cluster.policy
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
            when = next_launch(rep, tier_cap(rep))
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

    return cluster._finalize(
        arrivals, reps, cluster_latencies, shed, dropped_unique, hedged,
        cancelled_hedges, wasted_hedges, failed_over, probes,
        probe_failures, ejections, readmissions, tier_names, tier_time,
        tier, tier_since)

