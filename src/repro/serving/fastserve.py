"""Vectorized serving-replay kernel: whole timelines as batched scans.

These are the serving layer's only replay loops. A discrete-event loop
pays Python interpreter overhead per *request*: every arrival is
absorbed one comparison at a time, every event-selection pass re-derives
each replica's next launch time from scratch, and every routing decision
spins up generators. This module replays the same timelines at batch
granularity:

* :func:`replay_serving` — one :class:`ServingSimulator` timeline.
  Between fault boundaries the queue provably drains on every launch
  (absorption is capped at ``max_batch``), so each batch is a
  *contiguous window* of the sorted arrival array: the absorb loop
  collapses to one :func:`bisect.bisect_right` over the arrivals and
  the per-request latency appends to one list comprehension. Fault
  boundaries — outages, mid-batch kills, retry-timeout purges — cut
  the timeline into segments; the short survivor list is carried across
  a boundary explicitly and each fault-free segment replays vectorized.
* :func:`replay_cluster` — one :class:`ClusterSimulator` timeline, as
  two streams: the sorted arrivals against each replica's cached next
  launch time. Arrivals up to the earliest launch join their
  join-shortest-queue target (arrivals win ties); then that launch runs
  inline (the lowest replica index wins equal times). A launch time is
  recomputed only when its queue goes from 0 to 1 entry or reaches the
  batch cap — no other append can move it — and after the replica's own
  launch. Latency memos are per-replica lists indexed by batch size.
  Completions, probe windows and hedge timers fold into one "next
  router event" time that bounds both streams, and a cursor over
  request ids replaces the hedge-timer heap. One loop serves every
  policy: without probes or hedges there is no router event, and every
  completion settles at launch.

Both kernels reproduce the reference event loops' arithmetic operation
for operation — same floats, same metric observations, same tracer
spans — so the returned stats are **bit-identical** to the event loop
on every scenario (asserted per chaos-sweep scenario in
``tests/test_fastserve.py``). The event loops are test code
(``tests/reference/serving.py``, ``tests/reference/cluster.py``), and
DESIGN.md ("Serving replay semantics") states their rules in prose.
"the reference" below means them.

Replay/batch/segment/boundary counts go to the ``serving.fastserve.*``
counters when the metrics registry is enabled (``repro metrics``
prints them).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.obs.metrics import UNIT_BUCKETS, metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ClusterSimulator, ClusterStats, _Replica
    from repro.faults.model import FaultSchedule
    from repro.obs.tracer import SpanTracer
    from repro.serving.server import ServingSimulator, ServingStats

# --------------------------------------------------- single-simulator kernel

def replay_serving(sim: "ServingSimulator", arrivals: List[float],
                   schedule: Optional["FaultSchedule"], retry_budget: int,
                   retry_timeout: float,
                   tracer: Optional["SpanTracer"]) -> "ServingStats":
    """Replay one serving timeline; bit-identical to the event loop.

    Called by :meth:`ServingSimulator.simulate` (and a pod slice's)
    after the front door in :mod:`repro.serving.server`, with the fault
    schedule already resolved (``None`` for a faultless run).
    The queue invariant the kernel exploits: absorption never grows the
    queue past ``max_batch``, so a successful launch always drains it
    and a mid-batch kill leaves only the survivor list — the queue is
    always "survivors + a contiguous arrival window".
    """
    policy = sim.policy
    max_batch = policy.max_batch
    max_wait = policy.max_wait_s
    total = len(arrivals)

    servers = [(0.0, core) for core in range(sim.point.chip.cores)]
    heapq.heapify(servers)

    reg = metrics()
    rec = reg.enabled

    # Per-size latency memo over batch_latency_s (same lookups, one
    # padded_size call per distinct size instead of one per batch).
    lat_by_size: List[Optional[float]] = [None] * (max_batch + 1)

    latencies: List[float] = []
    batch_sizes: List[int] = []
    last_completion = 0.0
    retried = dropped = lost_batches = 0
    segments = 1
    boundaries = 0

    heapreplace = heapq.heapreplace
    record = tracer.record if tracer is not None else None

    if schedule is None:
        # One fault-free segment: every batch is a contiguous window
        # [s, e) of the arrival array and the queue drains each launch.
        s = 0
        while s < total:
            server_free, core = servers[0]
            deadline = arrivals[s] + max_wait
            horizon = server_free if server_free > deadline else deadline
            top = s + max_batch
            if top > total:
                top = total
            e = bisect_right(arrivals, horizon, s + 1, top)
            size = e - s
            if size >= max_batch:
                ready = arrivals[e - 1]
            else:
                ready = deadline
            launch = server_free if server_free > ready else ready
            if rec:
                reg.histogram("serving.queue_depth").observe(size)
                reg.histogram("serving.batch_occupancy",
                              UNIT_BUCKETS).observe(size / max_batch)
            latency = lat_by_size[size]
            if latency is None:
                latency = sim.batch_latency_s(size)
                lat_by_size[size] = latency
            completion = launch + latency
            heapreplace(servers, (completion, core))
            if record is not None:
                record("batch", "serve", "serving", f"core{core}",
                       launch * 1e6, latency * 1e6, (("size", size),))
            latencies.extend([completion - a for a in arrivals[s:e]])
            batch_sizes.append(size)
            if completion > last_completion:
                last_completion = completion
            s = e
    else:
        outage_end = schedule.outage_end
        slowdown_factor = schedule.slowdown_factor
        first_failure = schedule.first_failure_between
        check_timeout = not math.isinf(retry_timeout)
        # Queue = the retried survivors ``pend`` + the contiguous
        # absorbed window arrivals[s:t]; t advances by bisection.
        pend: List[Tuple[float, int]] = []
        s = t = 0
        while True:
            n_pend = len(pend)
            if n_pend == 0 and t == s:
                if s >= total:
                    break
                t = s + 1
            server_free, core = servers[0]
            if math.isinf(server_free):
                # Every core is gone for good (same drop accounting as
                # the event loop: queued entries plus the unseen stream).
                dropped += n_pend + (total - s)
                pend = []
                s = t = total
                break
            qlen = n_pend + (t - s)
            if t < total and qlen < max_batch:
                head = pend[0][0] if n_pend else arrivals[s]
                deadline = head + max_wait
                horizon = (server_free if server_free > deadline
                           else deadline)
                top = t + (max_batch - qlen)
                if top > total:
                    top = total
                t = bisect_right(arrivals, horizon, t, top)
                qlen = n_pend + (t - s)
            if qlen >= max_batch:
                k = max_batch - 1
                ready = pend[k][0] if k < n_pend else arrivals[s + k - n_pend]
            else:
                head = pend[0][0] if n_pend else arrivals[s]
                ready = head + max_wait
            launch = server_free if server_free > ready else ready

            if retried and check_timeout:
                # Only survivor entries carry retries > 0, so the purge
                # scan never touches the stream window.
                alive = [e_ for e_ in pend
                         if not (e_[1] > 0 and launch - e_[0] > retry_timeout)]
                if len(alive) != n_pend:
                    dropped += n_pend - len(alive)
                    pend = alive
                    boundaries += 1
                    segments += 1
                    continue

            down_until = outage_end(core, launch)
            if down_until is not None:
                if rec:
                    reg.counter("serving.outage_wait_s").inc(
                        max(0.0, down_until - launch))
                heapreplace(servers, (down_until, core))
                boundaries += 1
                segments += 1
                continue

            size = qlen
            if rec:
                reg.histogram("serving.queue_depth").observe(qlen)
                reg.histogram("serving.batch_occupancy",
                              UNIT_BUCKETS).observe(size / max_batch)
            latency = lat_by_size[size]
            if latency is None:
                latency = sim.batch_latency_s(size)
                lat_by_size[size] = latency
            factor = slowdown_factor(core, launch)
            if factor != 1.0:
                latency *= factor
            completion = launch + latency

            failure = first_failure(core, launch, completion)
            if failure is not None:
                fail_start, fail_end = failure
                lost_batches += 1
                if record is not None:
                    record("batch.lost", "serve", "serving", f"core{core}",
                           launch * 1e6, (fail_start - launch) * 1e6,
                           (("size", size),))
                survivors: List[Tuple[float, int]] = []
                for arrival, retries in pend:
                    if (retries + 1 > retry_budget
                            or fail_start - arrival > retry_timeout):
                        dropped += 1
                    else:
                        retried += 1
                        survivors.append((arrival, retries + 1))
                for j in range(s, t):
                    arrival = arrivals[j]
                    if 1 > retry_budget or fail_start - arrival > retry_timeout:
                        dropped += 1
                    else:
                        retried += 1
                        survivors.append((arrival, 1))
                pend = survivors
                s = t
                heapreplace(servers, (fail_end, core))
                boundaries += 1
                segments += 1
                continue

            heapreplace(servers, (completion, core))
            if record is not None:
                record("batch", "serve", "serving", f"core{core}",
                       launch * 1e6, latency * 1e6, (("size", size),))
            if n_pend:
                latencies.extend([completion - a for a, _ in pend])
                pend = []
            latencies.extend([completion - a for a in arrivals[s:t]])
            batch_sizes.append(size)
            if completion > last_completion:
                last_completion = completion
            s = t

    if rec:
        reg.count("serving.fastserve.replays")
        reg.count("serving.fastserve.batches", len(batch_sizes))
        reg.count("serving.fastserve.segments", segments)
        reg.count("serving.fastserve.boundaries", boundaries)
    return sim._finalize(arrivals, schedule, latencies, batch_sizes,
                         retried, dropped, lost_batches, last_completion)


# ------------------------------------------------------------ cluster kernel

def replay_cluster(cluster: "ClusterSimulator", arrivals: List[float],
                   reps: List["_Replica"], tier_tables: list,
                   retry_budget: int, retry_timeout: float,
                   tracer: Optional["SpanTracer"]) -> "ClusterStats":
    """Replay one cluster timeline; bit-identical to the event loop.

    Called by :meth:`ClusterSimulator.simulate` after validation with
    replicas and degradation-tier tables already built, for every
    policy. The event loop's completions, probe windows and hedge
    timers fold into one "next router event" time; arrivals and
    launches strictly before it (an arrival also at a hedge timer) run
    inline as the two streams the module docstring describes. A policy
    that neither probes nor hedges has no router event, so one pass of
    the streams replays its whole timeline. A request never has more
    than two live copies (one primary plus at most one hedge; fail-over
    moves a copy, it does not add one), so the reference's per-request
    holder *list* flattens into two int slots (-1 = empty).
    """
    from repro.cluster.cluster import _EJECTED, _HEALTHY

    policy = cluster.policy
    n = len(reps)
    total = len(arrivals)
    inf = math.inf
    before = math.nextafter

    reg = metrics()
    rec = reg.enabled

    probes_on = policy.probes
    hedges_on = policy.hedges
    admission_rate = policy.admission_rate_qps
    admission_burst = policy.admission_burst
    max_queue_depth = policy.max_queue_depth
    check_timeout = not math.isinf(retry_timeout)

    # ----- per-request state (unique-request accounting) -----
    completed_at: List[Optional[float]] = [None] * total
    outstanding = [0] * total
    hold_a = [-1] * total
    hold_b = [-1] * total
    hedged_flag = [False] * total

    cluster_latencies: List[float] = []
    shed = dropped_unique = 0
    hedged = cancelled_hedges = wasted_hedges = failed_over = 0
    probes = probe_failures = ejections = readmissions = 0
    boundaries = 0

    # ----- router clocks -----
    tokens = admission_burst
    tokens_at = arrivals[0]
    next_probe = (arrivals[0] + policy.probe_interval_s
                  if probes_on else inf)
    hedge_delay = policy.hedge_delay_s
    # Hedge timers fire at arrival + a constant delay after nondecreasing
    # arrivals, so they fire in request-id order: a cursor over ids
    # replaces the reference's heap. Every id below ``hcur`` has a no-op
    # timer (finished, already hedged, lost, shed, or never queued);
    # ``last_timer`` is the newest id that got a timer.
    hcur = 0
    last_timer = -1
    last_hedge_at = -inf  # fire time of the latest hedge placed
    completion_heap: list = []
    completion_seq = 0
    # Latest completion settled inline (no heap event). The reference
    # keeps such completions in its heap until the clock passes them,
    # and its probe clock runs while the heap is non-empty.
    settled_until = -inf

    # ----- degradation ladder -----
    tier = 0
    tier_names = ("full",) + tuple(t.name for t in policy.tiers)
    tier_time = [0.0] * len(tier_names)
    tier_since = arrivals[0]
    bad_windows = good_windows = 0

    max_waits = [r.sim.policy.max_wait_s for r in reps]
    base_caps = [r.sim.policy.max_batch for r in reps]

    def caps_for_tier() -> List[int]:
        if tier == 0:
            return list(base_caps)
        override = policy.tiers[tier - 1].max_batch
        if override is None:
            return list(base_caps)
        return [b if b < override else override for b in base_caps]

    caps = caps_for_tier()
    # Pre-slowdown latency memo per tier, per replica, by batch size.
    lat_memos = [[[None] * (cap + 1) for cap in base_caps]
                 for _ in tier_names]
    cur_lats = lat_memos[0]

    def tier_latency(rep: "_Replica", size: int) -> float:
        if tier == 0 or policy.tiers[tier - 1].dtype is None:
            return rep.sim.batch_latency_s(size)
        dtype = policy.tiers[tier - 1].dtype
        padded = rep.sim.policy.padded_size(size)
        return tier_tables[rep.index][dtype][padded]

    # Queue objects are mutated in place (never rebound), so this alias
    # list stays valid for the whole replay.
    queues: List[list] = [r.queue for r in reps]
    # Cached next launch per replica (inf = nothing to launch). Router
    # events that edit several replicas mark them stale and refresh them
    # once the event is over, when the reference's next pass would.
    launches = [inf] * n
    stale = [False] * n
    # Queue lengths as of each replica's last refresh, kept current by
    # the arrival loop: every other queue edit ends in a refresh.
    lens = [0] * n
    # Ascending indices of healthy live replicas, the first routing pool.
    pool = tuple(range(n))
    pool_rest = pool[1:]

    def rebuild_pool() -> None:
        nonlocal pool, pool_rest
        pool = tuple(i for i in range(n)
                     if reps[i].health == _HEALTHY and not reps[i].dead)
        pool_rest = pool[1:]

    # ----- helpers (transcribed from the event loop) -----
    def copy_dropped(rid: int, rep_index: int) -> None:
        nonlocal dropped_unique
        outstanding[rid] -= 1
        if hold_a[rid] == rep_index:
            hold_a[rid] = -1
        elif hold_b[rid] == rep_index:
            hold_b[rid] = -1
        if outstanding[rid] == 0 and completed_at[rid] is None:
            dropped_unique += 1

    def refresh(i: int) -> None:
        # The reference's next-launch rule, plus its lazy discovery of a
        # dead replica and the drop of its queue when no probe will eject
        # it: probes are off, or it is already ejected.
        nonlocal dropped_unique
        q = queues[i]
        lens[i] = len(q)
        if not q:
            launches[i] = inf
            return
        rep = reps[i]
        free = rep.servers[0][0]
        if free == inf:
            rep.dead = True
            rebuild_pool()
            launches[i] = inf
            if not probes_on or rep.health != _HEALTHY:
                for entry in q:
                    rep.dropped += 1
                    copy_dropped(entry[2], i)
                q.clear()
                lens[i] = 0
            return
        cap = caps[i]
        if len(q) >= cap:
            ready = q[cap - 1][0]
        else:
            ready = q[0][0] + max_waits[i]
        launches[i] = free if free > ready else ready

    def route(exclude=(), last_resort: bool = False) -> Optional["_Replica"]:
        # Join-shortest-queue with the reference's pool fallbacks: first
        # healthy live, then live, then (last resort) anything. Ascending
        # index with strict < keeps min()'s first-minimal tie-break.
        best = None
        best_len = 0
        for rep in reps:
            if (rep.health == _HEALTHY and not rep.dead
                    and rep.index not in exclude):
                qn = len(rep.queue)
                if best is None or qn < best_len:
                    best, best_len = rep, qn
        if best is not None:
            return best
        for rep in reps:
            if not rep.dead and rep.index not in exclude:
                qn = len(rep.queue)
                if best is None or qn < best_len:
                    best, best_len = rep, qn
        if best is not None or not last_resort:
            return best
        for rep in reps:
            if rep.index not in exclude:
                qn = len(rep.queue)
                if best is None or qn < best_len:
                    best, best_len = rep, qn
        return best

    def hold_add(rid: int, rep_index: int) -> None:
        if hold_a[rid] < 0:
            hold_a[rid] = rep_index
        else:
            hold_b[rid] = rep_index

    def assign(rep: "_Replica", entry: Tuple[float, int, int]) -> None:
        rid = entry[2]
        rep.note_assignment(entry[0])
        outstanding[rid] += 1
        hold_add(rid, rep.index)
        if rep.dead:
            rep.dropped += 1
            copy_dropped(rid, rep.index)
            return
        rep.queue.append(entry)
        stale[rep.index] = True

    def fail_over(rep: "_Replica", entries: list) -> None:
        nonlocal failed_over
        for entry in entries:
            rid = entry[2]
            outstanding[rid] -= 1
            if hold_a[rid] == rep.index:
                hold_a[rid] = -1
            elif hold_b[rid] == rep.index:
                hold_b[rid] = -1
            target = route(exclude=(rep.index,))
            if target is None or target.dead or target.health != _HEALTHY:
                rep.dropped += 1
                outstanding[rid] += 1
                hold_add(rid, rep.index)
                copy_dropped(rid, rep.index)
            else:
                failed_over += 1
                assign(target, entry)

    def eject(rep: "_Replica", now: float) -> None:
        nonlocal ejections, boundaries
        rep.health = _EJECTED
        rep.ejected_until = now + policy.ejection_s
        rep.consecutive_failures = 0
        ejections += 1
        boundaries += 1
        rebuild_pool()
        if tracer is not None:
            tracer.record("eject", "router", "cluster", "router",
                          now * 1e6, 0.0, (("replica", rep.index),))
        q = rep.queue
        moved = q[:]
        q.clear()
        stale[rep.index] = True
        fail_over(rep, moved)

    def probe_fails(rep: "_Replica", now: float) -> bool:
        if rep.schedule is None:
            return False
        oe = rep.schedule.outage_end
        for core in range(rep.sim.point.chip.cores):
            if oe(core, now) is None:
                return False
        return True

    def set_tier(new_tier: int, now: float) -> None:
        nonlocal tier, tier_since, caps, cur_lats, boundaries
        tier_time[tier] += now - tier_since
        tier = new_tier
        tier_since = now
        caps = caps_for_tier()
        cur_lats = lat_memos[tier]
        boundaries += 1
        for i in range(n):
            stale[i] = True
        if rec:
            reg.counter("cluster.tier_changes").inc()
        if tracer is not None:
            tracer.record("tier", "router", "cluster", "router",
                          now * 1e6, 0.0, (("tier", tier_names[new_tier]),))

    # ----- the replay loop -----
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    kernel_batches = 0
    min_launch = inf
    best = 0
    index = 0
    while True:
        # ----- the next router event: completion, probe or hedge -----
        t_completion = completion_heap[0][0] if completion_heap else inf
        t_probe = next_probe
        if hedges_on:
            # Timer conditions are monotone (what is a no-op now is a
            # no-op at fire time), so skipping them early is exact.
            while hcur < index and (outstanding[hcur] == 0
                                    or completed_at[hcur] is not None
                                    or hedged_flag[hcur]):
                hcur += 1
            # With no live timer, the next arrival's is the earliest one
            # that can appear (if it is shed, that stop is a no-op).
            t_hedge = (arrivals[hcur] + hedge_delay if hcur < total
                       else inf)
        else:
            t_hedge = inf
        # Launches run strictly before the router event; arrivals run
        # strictly before a completion or probe and at a hedge timer
        # (``a_bound`` also caps them at the next launch).
        t_router = t_completion if t_completion < t_probe else t_probe
        a_limit = before(t_router, -inf)
        if t_hedge < t_router:
            t_router = t_hedge
        if t_hedge < a_limit:
            a_limit = t_hedge
        a_bound = min_launch if min_launch < a_limit else a_limit

        # ----- arrivals and launches up to the router event -----
        while True:
            while index < total:
                arrival = arrivals[index]
                if arrival > a_bound:
                    break
                rid = index
                index += 1
                if admission_rate is not None:
                    tokens += (arrival - tokens_at) * admission_rate
                    if tokens > admission_burst:
                        tokens = admission_burst
                    tokens_at = arrival
                    if tokens < 1.0:
                        shed += 1
                        if rec:
                            reg.counter("cluster.shed_requests").inc()
                        continue
                    tokens -= 1.0
                if pool:
                    ti = pool[0]
                    tql = lens[ti]
                    for pi in pool_rest:
                        if lens[pi] < tql:
                            ti = pi
                            tql = lens[pi]
                else:
                    ti = route(last_resort=True).index
                    tql = lens[ti]
                if max_queue_depth is not None and tql >= max_queue_depth:
                    shed += 1
                    if rec:
                        reg.counter("cluster.shed_requests").inc()
                    continue
                target = reps[ti]
                if not pool and target.dead:
                    assign(target, (arrival, 0, rid))  # cluster down
                    continue
                target.last_arrival = arrival
                queues[ti].append((arrival, 0, rid))
                lens[ti] = tql + 1
                outstanding[rid] = 1
                hold_a[rid] = ti
                last_timer = rid
                # Only the 0 -> 1 and -> cap appends move a launch time,
                # and then only earlier.
                if tql == 0 or tql + 1 == caps[ti]:
                    if target.first_arrival is None:
                        target.first_arrival = arrival
                    free = target.servers[0][0]
                    if free == inf:
                        refresh(ti)  # the dead replica is discovered
                        continue
                    ready = (arrival if tql + 1 == caps[ti]
                             else arrival + max_waits[ti])
                    when = free if free > ready else ready
                    launches[ti] = when
                    if when < min_launch or (when == min_launch
                                             and ti < best):
                        min_launch = when
                        best = ti
                        if when < a_bound:
                            a_bound = when
            if min_launch >= t_router:
                break

            # ----- launch on reps[best] at min_launch -----
            i = best
            rep = reps[i]
            launch = min_launch
            q = queues[i]
            servers = rep.servers
            core = servers[0][1]
            sched = rep.schedule
            if rep.retried and check_timeout and any(
                    e[1] > 0 and launch - e[0] > retry_timeout for e in q):
                # Retry-timeout purge of the retried entries.
                for entry in q:
                    if entry[1] > 0 and launch - entry[0] > retry_timeout:
                        rep.dropped += 1
                        copy_dropped(entry[2], i)
                q[:] = [e for e in q
                        if not (e[1] > 0 and launch - e[0] > retry_timeout)]
                boundaries += 1
            elif sched is not None and (down_until := sched.outage_end(
                    core, launch)) is not None:
                if rec:
                    reg.counter("serving.outage_wait_s").inc(
                        max(0.0, down_until - launch))
                heapreplace(servers, (down_until, core))
                boundaries += 1
            else:
                cap = caps[i]
                qn = len(q)
                size = qn if qn < cap else cap
                memo = cur_lats[i]
                latency = memo[size]
                if latency is None:
                    latency = memo[size] = tier_latency(rep, size)
                failure = None
                if sched is not None:
                    factor = sched.slowdown_factor(core, launch)
                    if factor != 1.0:
                        latency *= factor
                    completion = launch + latency
                    failure = sched.first_failure_between(core, launch,
                                                          completion)
                else:
                    completion = launch + latency
                batch = q[:size]
                del q[:size]
                if failure is not None:
                    fail_start, fail_end = failure
                    rep.lost_batches += 1
                    boundaries += 1
                    if tracer is not None:
                        tracer.record("batch.lost", "serve", "cluster",
                                      f"replica{i}/core{core}",
                                      launch * 1e6,
                                      (fail_start - launch) * 1e6,
                                      (("size", size),))
                    survivors: list = []
                    for arrival, retries, rid in batch:
                        if (retries + 1 > retry_budget
                                or fail_start - arrival > retry_timeout):
                            rep.dropped += 1
                            copy_dropped(rid, i)
                        else:
                            rep.retried += 1
                            survivors.append((arrival, retries + 1, rid))
                    if rep.health == _HEALTHY:
                        q[:0] = survivors
                    else:
                        # Ejected mid-flight: survivors fail over instead
                        # of rejoining a drained queue.
                        fail_over(rep, survivors)
                    heapreplace(servers, (fail_end, core))
                    for j in range(n):
                        if stale[j]:
                            stale[j] = False
                            refresh(j)
                else:
                    heapreplace(servers, (completion, core))
                    if tracer is not None:
                        tracer.record("batch", "serve", "cluster",
                                      f"replica{i}/core{core}",
                                      launch * 1e6, latency * 1e6,
                                      (("size", size),))
                    kernel_batches += 1
                    if completion > rep.last_completion:
                        rep.last_completion = completion
                    rep.batch_sizes.append(size)
                    lats = [completion - e[0] for e in batch]
                    rep.latencies.extend(lats)
                    if not hedges_on:
                        # One copy per request: settle the batch now
                        # (its latencies are the replica's, so the
                        # cluster sample is the replicas' concatenated).
                        # The reference still holds the completion
                        # event, which keeps its probe clock alive.
                        if completion > settled_until:
                            settled_until = completion
                    elif (last_hedge_at < completion
                            <= min(batch)[0] + hedge_delay):
                        # Every timer here falls at or after the
                        # completion, which is later than the last hedge
                        # placed, so none has fired: each copy is its
                        # request's only one, and each timer will find
                        # its request finished. Settle them now.
                        for e in batch:
                            outstanding[e[2]] = 0
                        cluster_latencies += lats
                        if completion > settled_until:
                            settled_until = completion
                    else:
                        # Entry by entry: hedged copies, and copies that
                        # land after their timer, ride the heap.
                        deferred = []
                        for entry, lat in zip(batch, lats):
                            rid = entry[2]
                            if (not hedged_flag[rid]
                                    and completion <= entry[0] + hedge_delay):
                                outstanding[rid] = 0
                                cluster_latencies.append(lat)
                            else:
                                deferred.append(entry)
                        if deferred:
                            completion_seq += 1
                            heappush(completion_heap,
                                     (completion, completion_seq, i,
                                      tuple(deferred)))
                            if completion < t_router:
                                t_router = completion
                            if completion <= a_limit:
                                a_limit = before(completion, -inf)
                        elif completion > settled_until:
                            settled_until = completion
            qn = lens[i] = len(q)
            if not qn:
                launches[i] = inf
            elif servers[0][0] == inf:
                refresh(i)  # the dead replica is discovered
            else:
                free = servers[0][0]
                cap = caps[i]
                ready = q[cap - 1][0] if qn >= cap else q[0][0] + max_waits[i]
                launches[i] = free if free > ready else ready
            min_launch = min(launches)
            best = launches.index(min_launch)
            a_bound = min_launch if min_launch < a_limit else a_limit

        # ----- the router event (priority: completion, probe, hedge) -----
        t_completion = completion_heap[0][0] if completion_heap else inf
        if t_completion <= t_probe and t_completion <= t_hedge:
            if t_completion == inf:
                break
            when, _, rep_index, batch = heappop(completion_heap)
            for arrival, _, rid in batch:
                outstanding[rid] -= 1
                if hold_a[rid] == rep_index:
                    hold_a[rid] = -1
                elif hold_b[rid] == rep_index:
                    hold_b[rid] = -1
                if completed_at[rid] is None:
                    completed_at[rid] = when
                    cluster_latencies.append(when - arrival)
                    if outstanding[rid] > 0:
                        # Cancel queued twins; the slot snapshot mirrors
                        # the reference's list(h) copy.
                        for peer_index in (hold_a[rid], hold_b[rid]):
                            if peer_index < 0:
                                continue
                            peer_q = queues[peer_index]
                            for pos, entry in enumerate(peer_q):
                                if entry[2] == rid:
                                    del peer_q[pos]
                                    stale[peer_index] = True
                                    outstanding[rid] -= 1
                                    if hold_a[rid] == peer_index:
                                        hold_a[rid] = -1
                                    elif hold_b[rid] == peer_index:
                                        hold_b[rid] = -1
                                    cancelled_hedges += 1
                                    break
                else:
                    wasted_hedges += 1
        elif t_probe <= t_hedge:
            now = next_probe
            # The reference's probe clock runs only while some event is
            # pending in its heaps or queues. Its heaps then hold every
            # completion and every hedge timer at or after ``now``.
            if not (index < total or completion_heap
                    or settled_until > now
                    or (hedges_on and last_timer >= 0
                        and arrivals[last_timer] + hedge_delay >= now)
                    or any(queues)):
                break
            for rep in reps:
                if rep.health == _HEALTHY:
                    probes += 1
                    if probe_fails(rep, now):
                        probe_failures += 1
                        rep.consecutive_failures += 1
                        if rep.consecutive_failures >= policy.unhealthy_after:
                            eject(rep, now)
                    else:
                        rep.consecutive_failures = 0
                elif now >= rep.ejected_until:
                    probes += 1
                    if probe_fails(rep, now):
                        probe_failures += 1
                        rep.ejected_until = now + policy.ejection_s
                    else:
                        rep.health = _HEALTHY
                        readmissions += 1
                        rebuild_pool()
                        if tracer is not None:
                            tracer.record(
                                "readmit", "router", "cluster", "router",
                                now * 1e6, 0.0, (("replica", rep.index),))
            healthy = len(pool)
            if rec:
                reg.gauge("cluster.healthy_replicas").set(healthy)
            if policy.degrades:
                queued = sum(map(len, queues))
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
        else:
            rid = hcur
            hcur += 1
            if not (outstanding[rid] == 0 or completed_at[rid] is not None
                    or hedged_flag[rid]):
                target = route(exclude=(hold_a[rid], hold_b[rid]))
                if not (target is None or target.dead
                        or target.health != _HEALTHY):
                    hedged_flag[rid] = True
                    hedged += 1
                    last_hedge_at = arrivals[rid] + hedge_delay
                    if rec:
                        reg.counter("cluster.hedged_requests").inc()
                    assign(target, (arrivals[rid], 0, rid))
        if True in stale:
            for j in range(n):
                if stale[j]:
                    stale[j] = False
                    refresh(j)
            min_launch = min(launches)
            best = launches.index(min_launch)

    if rec:
        reg.count("serving.fastserve.cluster_replays")
        reg.count("serving.fastserve.batches", kernel_batches)
        reg.count("serving.fastserve.segments", boundaries + 1)
        reg.count("serving.fastserve.boundaries", boundaries)
    return cluster._finalize(
        arrivals, reps, cluster_latencies if hedges_on else None, shed,
        dropped_unique, hedged, cancelled_hedges, wasted_hedges,
        failed_over, probes, probe_failures, ejections, readmissions,
        tier_names, tier_time, tier, tier_since)
