"""Vectorized serving-replay kernel: whole timelines as batched scans.

The discrete-event loops in :mod:`repro.serving.server` and
:mod:`repro.cluster.cluster` pay Python interpreter overhead per
*request*: every arrival is absorbed one comparison at a time, every
event-selection pass re-derives each replica's next launch time from
scratch, and every routing decision spins up generators. That made the
cluster chaos sweep the cold path of the whole repo once the grid
kernel (PR 6) made design-point simulation nearly free.

This module replays the same timelines at batch granularity:

* :func:`replay_serving` — one :class:`ServingSimulator` timeline.
  Between fault boundaries the queue provably drains on every launch
  (absorption is capped at ``max_batch``), so each batch is a
  *contiguous window* of the sorted arrival array: the absorb loop
  collapses to one :func:`bisect.bisect_right` over the arrivals and
  the per-request latency appends to one list comprehension. Fault
  boundaries — outages, mid-batch kills, retry-timeout purges — cut
  the timeline into segments; the short survivor list is carried across
  a boundary explicitly and each fault-free segment replays vectorized.
* :func:`replay_cluster` — one :class:`ClusterSimulator` timeline. The
  router's event loop is replayed with each replica's next launch time
  *cached* and invalidated only on the state changes that can move it
  (queue edits, server-heap edits, tier changes), join-shortest-queue
  routing inlined, per-(tier, replica, size) latency memos, and — when
  the policy neither probes nor hedges — completion events elided
  entirely (a request then has exactly one copy, so first-response-wins
  bookkeeping is order-independent and can be settled at launch).

Both kernels reproduce the reference event loops' arithmetic operation
for operation — same floats, same metric observations, same tracer
spans — so the returned stats are **bit-identical** to the event loop
on every scenario (asserted per chaos-sweep scenario in
``tests/test_fastserve.py``). The kernels are the simulators' only
production path; the original event loops
(``ServingSimulator._replay_events``, ``ClusterSimulator._replay_events``)
remain as the test-only reference.

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
        # Queue = survivor prefix P (retried entries) + the contiguous
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
    replicas and degradation-tier tables already built. The event loop's
    per-iteration ``next_launch``/``tier_cap``/``route`` calls are
    replaced by cached launch times with explicit invalidation, a
    precomputed per-tier cap array, and inlined join-shortest-queue
    scans; lazy dead-replica discovery keeps its exact timing because a
    replica's launch cache only refreshes after the queue/server change
    that the reference's rediscovery would have reacted to.
    """
    from repro.cluster.cluster import _EJECTED, _HEALTHY, _P_COMPLETION

    policy = cluster.policy
    n = len(reps)
    total = len(arrivals)
    inf = math.inf

    reg = metrics()
    rec = reg.enabled

    probes_on = policy.probes
    hedges_on = policy.hedges
    # Without probes or hedges a request has exactly one live copy, so
    # completion bookkeeping is order-independent: settle it at launch
    # and skip the completion heap entirely.
    simple = not probes_on and not hedges_on

    admission_rate = policy.admission_rate_qps
    admission_burst = policy.admission_burst
    max_queue_depth = policy.max_queue_depth
    check_timeout = not math.isinf(retry_timeout)

    # ----- per-request state (unique-request accounting) -----
    # Simple mode keeps exactly one copy per request, so the per-copy
    # ledgers are never consulted: drops/completions settle directly.
    # A request never has more than two live copies (one primary plus
    # at most one hedge; fail-over moves a copy, it does not add one),
    # so the reference's per-request holder *list* flattens into two
    # int slots (-1 = empty) — no 100k-list allocation, no method calls.
    if simple:
        completed_at: List[Optional[float]] = []
        outstanding: List[int] = []
        hold_a: List[int] = []
        hold_b: List[int] = []
        hedged_flag: List[bool] = []
    else:
        completed_at = [None] * total
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
    # Hedge-race bound for inline completion settling: with hedging off
    # a request only ever has one copy, so every completion qualifies.
    hedge_bound = hedge_delay if hedges_on else inf
    # Hedge timers fire arrival + constant delay after nondecreasing
    # arrivals, so the pending set is already sorted: a list with a head
    # cursor replaces the reference's heap (same pop order). Only the
    # request id is stored — the fire time is recomputed as
    # ``arrivals[rid] + hedge_delay``, the exact float the reference
    # pushed (same operands, same addition).
    hedges: List[int] = []
    hedge_head = 0
    completion_heap: list = []
    completion_seq = 0

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
    # Pre-slowdown latency memo per (tier, replica, size).
    lat_memos: List[dict] = [{} for _ in tier_names]
    cur_lats = lat_memos[0]

    def tier_latency(rep: "_Replica", size: int) -> float:
        if tier == 0 or policy.tiers[tier - 1].dtype is None:
            return rep.sim.batch_latency_s(size)
        dtype = policy.tiers[tier - 1].dtype
        padded = rep.sim.policy.padded_size(size)
        return tier_tables[rep.index][dtype][padded]

    # Cached _Replica.next_launch(tier_cap) values (inf = nothing to
    # launch); stale[i] marks a replica whose queue, server heap, or cap
    # changed since computed.
    launches: List[float] = [inf] * n
    stale = [True] * n
    queued_total = 0  # total queued entries (replaces any(r.queue ...))
    # Latest completion time settled inline (no heap event). The
    # reference keeps such completions in its heap until the clock
    # passes them, and its probe clock runs while the heap is
    # non-empty — so probes must keep ticking until this time passes.
    settled_until = -inf
    # Queue objects are mutated in place (del/clear/slice-assign, never
    # rebound), so this alias list stays valid for the whole replay and
    # the hot join-shortest-queue scan indexes it directly.
    queues: List[list] = [r.queue for r in reps]
    # Ascending indices of healthy live replicas — the first routing
    # pool. Rebuilt at the only three places membership changes: eject,
    # readmit, and lazy dead discovery.
    pool1 = tuple(range(n))

    def rebuild_pool() -> None:
        nonlocal pool1
        pool1 = tuple(i for i in range(n)
                      if reps[i].health == _HEALTHY and not reps[i].dead)

    # ----- helpers (transcribed from the event loop) -----
    def copy_dropped(rid: int, rep_index: int) -> None:
        # Never called in simple mode (single-copy drops count
        # dropped_unique directly at the drop site).
        nonlocal dropped_unique
        outstanding[rid] -= 1
        if hold_a[rid] == rep_index:
            hold_a[rid] = -1
        elif hold_b[rid] == rep_index:
            hold_b[rid] = -1
        if outstanding[rid] == 0 and completed_at[rid] is None:
            dropped_unique += 1

    def route(exclude=(), last_resort: bool = False) -> Optional["_Replica"]:
        # Join-shortest-queue with the reference's pool fallbacks,
        # inlined: first healthy live, then live, then (last resort)
        # anything. Ascending index with strict < keeps min()'s
        # first-minimal tie-break.
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
        nonlocal queued_total, dropped_unique
        rid = entry[2]
        rep.note_assignment(entry[0])
        if rep.dead:
            rep.dropped += 1
            if simple:
                dropped_unique += 1
            else:
                outstanding[rid] += 1
                hold_add(rid, rep.index)
                copy_dropped(rid, rep.index)
            return
        rep.queue.append(entry)
        queued_total += 1
        stale[rep.index] = True
        if not simple:
            outstanding[rid] += 1
            hold_add(rid, rep.index)

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
        nonlocal ejections, queued_total, boundaries
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
        queued_total -= len(moved)
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
    index = 0
    while True:
        # Refresh stale launch caches (the reference recomputes every
        # replica's next_launch each iteration; only changed replicas
        # can produce a different answer, including the lazy dead
        # discovery and the no-probe stranded-queue drop) and find the
        # earliest launch in the same pass. min_launch doubles as the
        # launch candidate (first minimal index wins ties, matching the
        # reference's strict-< scan) and as the launch bound for the
        # drain loops below.
        min_launch = inf
        best_i = -1
        for i in range(n):
            if stale[i]:
                stale[i] = False
                q = queues[i]
                if not q:
                    launches[i] = inf
                else:
                    rep = reps[i]
                    free = rep.servers[0][0]
                    if free == inf:
                        rep.dead = True
                        rebuild_pool()
                        launches[i] = inf
                        if not probes_on:
                            queued_total -= len(q)
                            if simple:
                                rep.dropped += len(q)
                                dropped_unique += len(q)
                            else:
                                for entry in q:
                                    rep.dropped += 1
                                    copy_dropped(entry[2], i)
                            q.clear()
                        continue
                    cap = caps[i]
                    if len(q) >= cap:
                        ready = q[cap - 1][0]
                    else:
                        ready = q[0][0] + max_waits[i]
                    launches[i] = free if free > ready else ready
            when = launches[i]
            if when < min_launch:
                min_launch = when
                best_i = i

        t_completion = completion_heap[0][0] if completion_heap else inf
        t_arrival = arrivals[index] if index < total else inf
        # Timers for requests that already finished (or already hedged,
        # or lost every copy) are guaranteed no-ops — the conditions are
        # monotone, so what is true now is true at fire time, and the
        # reference pops them without touching any state. Skipping them
        # here saves a full loop round per timer; the probe-clock
        # bookkeeping below accounts for them by fire time instead.
        hlen = len(hedges)
        while hedge_head < hlen:
            hrid = hedges[hedge_head]
            if (completed_at[hrid] is not None or hedged_flag[hrid]
                    or outstanding[hrid] == 0):
                hedge_head += 1
            else:
                break
        if hedge_head < hlen:
            t_hedge = arrivals[hedges[hedge_head]] + hedge_delay
        else:
            t_hedge = inf
        # The reference's probe clock runs while its event heaps are
        # non-empty. Inline-settled completions and pruned no-op timers
        # never reach this kernel's heaps, but the reference holds them
        # until the clock passes their fire times — so count them by
        # time: an elided completion pends strictly past next_probe
        # (completions win the tie), a timer through it (probes beat
        # hedges at equal times, so the reference still sees the timer
        # in its heap when the tied probe is selected).
        if probes_on and (
                index < total or completion_heap or queued_total
                or settled_until > next_probe
                or (hedges and arrivals[hedges[-1]] + hedge_delay
                    >= next_probe)):
            t_probe = next_probe
        else:
            t_probe = inf

        best_time = inf
        best_kind = None
        if t_completion < best_time:
            best_time, best_kind = t_completion, 0   # completion
        if t_probe < best_time:
            best_time, best_kind = t_probe, 1        # probe
        if t_arrival < best_time:
            best_time, best_kind = t_arrival, 2      # arrival
        if t_hedge < best_time:
            best_time, best_kind = t_hedge, 3        # hedge
        if min_launch < best_time:
            best_time, best_kind = min_launch, 4     # launch
        if best_kind is None:
            if probes_on and queued_total:
                best_time, best_kind = next_probe, 1
            else:
                break

        if best_kind == 0:       # ----- completion drain -----
            # Completions win every tie, so drain the heap until the
            # next one would land after some other event. Hedge cancels
            # only push launch times later, so min_launch stays a valid
            # (conservative) bound.
            while True:
                when, _, _, rep_index, batch = heappop(completion_heap)
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
                            # Cancel queued twins; the slot snapshot
                            # mirrors the reference's list(h) copy.
                            for peer_index in (hold_a[rid], hold_b[rid]):
                                if peer_index < 0:
                                    continue
                                peer_q = queues[peer_index]
                                for pos, entry in enumerate(peer_q):
                                    if entry[2] == rid:
                                        del peer_q[pos]
                                        queued_total -= 1
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
                if not completion_heap:
                    break
                nxt = completion_heap[0][0]
                if (nxt > t_probe or nxt > t_arrival or nxt > t_hedge
                        or nxt > min_launch):
                    break
            continue

        if best_kind == 1:       # ----- probe window -----
            now = next_probe
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
            healthy = 0
            for rep in reps:
                if rep.health == _HEALTHY and not rep.dead:
                    healthy += 1
            if rec:
                reg.gauge("cluster.healthy_replicas").set(healthy)
            if policy.degrades:
                queued = queued_total
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

        if best_kind == 2:       # ----- arrival drain -----
            # Arrivals dominate event counts, and only the *target*
            # replica's launch time can change between consecutive
            # arrivals, so absorb a whole run in one tight loop with
            # join-shortest-queue and the launch refresh inlined.
            while True:
                arrival = arrivals[index]
                rid = index
                index += 1
                admitted = True
                if admission_rate is not None:
                    tokens += (arrival - tokens_at) * admission_rate
                    if tokens > admission_burst:
                        tokens = admission_burst
                    tokens_at = arrival
                    if tokens < 1.0:
                        shed += 1
                        if rec:
                            reg.counter("cluster.shed_requests").inc()
                        admitted = False
                    else:
                        tokens -= 1.0
                if admitted:
                    # route(last_resort=True), inlined: the maintained
                    # healthy-live pool first, then live, then anything.
                    ti = -1
                    tql = 0
                    for pi in pool1:
                        ql = len(queues[pi])
                        if ti < 0 or ql < tql:
                            ti, tql = pi, ql
                    if ti < 0:
                        target = None
                        for rr in reps:
                            if not rr.dead:
                                ql = len(rr.queue)
                                if target is None or ql < tql:
                                    target, tql = rr, ql
                        if target is None:
                            for rr in reps:
                                ql = len(rr.queue)
                                if target is None or ql < tql:
                                    target, tql = rr, ql
                        ti = target.index
                    else:
                        target = reps[ti]
                    if max_queue_depth is not None and tql >= max_queue_depth:
                        shed += 1
                        if rec:
                            reg.counter("cluster.shed_requests").inc()
                    elif target.dead:
                        assign(target, (arrival, 0, rid))  # cluster down
                    else:
                        # assign() + note_assignment, inlined (arrivals
                        # are nondecreasing, so last_arrival is a plain
                        # overwrite and first_arrival a set-once).
                        if target.first_arrival is None:
                            target.first_arrival = arrival
                        target.last_arrival = arrival
                        q = queues[ti]
                        q.append((arrival, 0, rid))
                        queued_total += 1
                        if not simple:
                            outstanding[rid] = 1
                            hold_a[rid] = ti
                            if hedges_on:
                                hedges.append(rid)
                                if t_hedge == inf:
                                    t_hedge = arrival + hedge_delay
                        # Refresh the target's launch time in place.
                        # Deep queues skip it: with more than cap
                        # entries already ahead, the cap-th arrival pins
                        # ``ready`` and this append cannot change it
                        # (stale[ti] is always False inside the drain,
                        # so the cached time is the current one).
                        cap = caps[ti]
                        if len(q) <= cap:
                            free = target.servers[0][0]
                            if free == inf:
                                stale[ti] = True  # refresh handles it
                                break
                            if len(q) >= cap:
                                ready = q[cap - 1][0]
                            else:
                                ready = q[0][0] + max_waits[ti]
                            when = free if free > ready else ready
                            launches[ti] = when
                            stale[ti] = False
                            if when < min_launch:
                                min_launch = when
                if index >= total:
                    break
                nxt = arrivals[index]
                if (nxt >= t_completion or nxt >= t_probe
                        or nxt > t_hedge or nxt > min_launch):
                    break
            continue

        if best_kind == 3:       # ----- hedge-timer drain -----
            # Timers whose request already finished (the common case)
            # are no-ops: drain them in a run, pausing only to place an
            # actual hedge copy (which can pull a launch earlier).
            while True:
                rid = hedges[hedge_head]
                hedge_head += 1
                if not (completed_at[rid] is not None or hedged_flag[rid]
                        or outstanding[rid] == 0):
                    target = route(exclude=(hold_a[rid], hold_b[rid]))
                    if not (target is None or target.dead
                            or target.health != _HEALTHY):
                        hedged_flag[rid] = True
                        hedged += 1
                        if rec:
                            reg.counter("cluster.hedged_requests").inc()
                        assign(target, (arrivals[rid], 0, rid))
                        ti = target.index
                        q = target.queue
                        free = target.servers[0][0]
                        if free == inf:
                            break  # assign left it stale; refresh decides
                        cap = caps[ti]
                        if len(q) >= cap:
                            ready = q[cap - 1][0]
                        else:
                            ready = q[0][0] + max_waits[ti]
                        when = free if free > ready else ready
                        launches[ti] = when
                        stale[ti] = False
                        if when < min_launch:
                            min_launch = when
                if hedge_head >= len(hedges):
                    break
                nxt = arrivals[hedges[hedge_head]] + hedge_delay
                if (nxt >= t_completion or nxt >= t_probe
                        or nxt >= t_arrival or nxt > min_launch):
                    break
            continue

        # ----- launch on reps[best_i] at best_time -----
        i = best_i
        rep = reps[i]
        launch = best_time
        stale[i] = True   # every outcome below edits the queue or heap
        q = queues[i]
        core = rep.servers[0][1]

        if rep.retried and check_timeout:
            alive = [e for e in q
                     if not (e[1] > 0 and launch - e[0] > retry_timeout)]
            if len(alive) != len(q):
                removed = len(q) - len(alive)
                rep.dropped += removed
                if simple:
                    dropped_unique += removed
                else:
                    for entry in q:
                        if entry[1] > 0 and launch - entry[0] > retry_timeout:
                            copy_dropped(entry[2], i)
                queued_total -= removed
                q[:] = alive
                boundaries += 1
                continue

        sched = rep.schedule
        if sched is not None:
            down_until = sched.outage_end(core, launch)
            if down_until is not None:
                if rec:
                    reg.counter("serving.outage_wait_s").inc(
                        max(0.0, down_until - launch))
                heapreplace(rep.servers, (down_until, core))
                boundaries += 1
                continue

        cap = caps[i]
        qn = len(q)
        size = qn if qn < cap else cap
        lat_key = (i, size)
        latency = cur_lats.get(lat_key)
        if latency is None:
            latency = tier_latency(rep, size)
            cur_lats[lat_key] = latency
        if sched is not None:
            factor = sched.slowdown_factor(core, launch)
            if factor != 1.0:
                latency *= factor
        completion = launch + latency

        if sched is not None:
            failure = sched.first_failure_between(core, launch, completion)
            if failure is not None:
                fail_start, fail_end = failure
                rep.lost_batches += 1
                boundaries += 1
                if tracer is not None:
                    tracer.record("batch.lost", "serve", "cluster",
                                  f"replica{i}/core{core}",
                                  launch * 1e6, (fail_start - launch) * 1e6,
                                  (("size", size),))
                batch = q[:size]
                del q[:size]
                queued_total -= size
                survivors: list = []
                for arrival, retries, rid in batch:
                    if (retries + 1 > retry_budget
                            or fail_start - arrival > retry_timeout):
                        rep.dropped += 1
                        if simple:
                            dropped_unique += 1
                        else:
                            copy_dropped(rid, i)
                    else:
                        rep.retried += 1
                        survivors.append((arrival, retries + 1, rid))
                if rep.health == _HEALTHY:
                    q[:0] = survivors
                    queued_total += len(survivors)
                else:
                    # Ejected mid-flight: survivors fail over instead of
                    # rejoining a drained queue.
                    fail_over(rep, survivors)
                heapreplace(rep.servers, (fail_end, core))
                continue

        batch = q[:size]
        del q[:size]
        queued_total -= size
        heapreplace(rep.servers, (completion, core))
        if tracer is not None:
            tracer.record("batch", "serve", "cluster",
                          f"replica{i}/core{core}",
                          launch * 1e6, latency * 1e6, (("size", size),))
        kernel_batches += 1
        if completion > rep.last_completion:
            rep.last_completion = completion
        rep.batch_sizes.append(size)
        if simple:
            # Single-copy completions settle at launch: with no hedge
            # twins to race or cancel, first-response-wins bookkeeping
            # is order-independent, so the completion heap is elided.
            lats = [completion - a for a, _, _ in batch]
            rep.latencies.extend(lats)
            cluster_latencies.extend(lats)
        else:
            # Single-copy entries whose completion lands no later than
            # their hedge timer also settle inline: the reference
            # processes the completion first there too (completions win
            # ties), so the timer sees them finished either way and no
            # cancel scan can involve them. Only the rest ride the heap.
            lats = []
            deferred = None
            for entry in batch:
                lat = completion - entry[0]
                lats.append(lat)
                rid = entry[2]
                if (outstanding[rid] == 1 and not hedged_flag[rid]
                        and completion <= entry[0] + hedge_bound):
                    outstanding[rid] = 0
                    if hold_a[rid] == i:
                        hold_a[rid] = -1
                    else:
                        hold_b[rid] = -1
                    completed_at[rid] = completion
                    cluster_latencies.append(lat)
                else:
                    if deferred is None:
                        deferred = []
                    deferred.append(entry)
            rep.latencies.extend(lats)
            if deferred is not None:
                completion_seq += 1
                heappush(completion_heap,
                         (completion, _P_COMPLETION, completion_seq, i,
                          tuple(deferred)))
            elif completion > settled_until:
                # Whole batch settled inline: the reference still holds
                # its completion event until the clock passes it, which
                # keeps the probe clock alive — remember the fire time.
                settled_until = completion

    if rec:
        reg.count("serving.fastserve.cluster_replays")
        reg.count("serving.fastserve.batches", kernel_batches)
        reg.count("serving.fastserve.segments", boundaries + 1)
        reg.count("serving.fastserve.boundaries", boundaries)
    return cluster._finalize(
        arrivals, reps, cluster_latencies, shed, dropped_unique, hedged,
        cancelled_hedges, wasted_hedges, failed_over, probes,
        probe_failures, ejections, readmissions, tier_names, tier_time,
        tier, tier_since)
