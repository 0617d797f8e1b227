"""Test-only oracle for the continuous-batching engine loop.

The per-slot loop that ``ContinuousBatchingSimulator._run_core`` ran
before its lockstep rewrite, kept as functions that take the simulator.
Every slot stores its own ``produced`` count and every decode run visits
each slot to advance it; fault state is queried from the schedule at
every step. The production loop must make the same iterations, commit
the same steps and produce every float bit for bit —
``tests/test_continuous_oracle.py`` draws random scenarios and compares
the two, and ``tests/conftest.py::reference_paths`` patches this loop in.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional

from repro.faults.model import FaultSchedule
from repro.serving.continuous import ContinuousBatchingSimulator, \
    _Accumulator, _Pending


class _Slot:
    """One admitted request's engine-side state (mutable, loop-internal)."""

    __slots__ = ("request", "retries", "produced", "target", "prefill_t",
                 "snap", "high_water", "restore_pending", "order")

    def __init__(self, entry: _Pending, target: int) -> None:
        self.request = entry.request
        self.retries = entry.retries
        self.produced = entry.produced  # tokens generated so far
        self.target = target            # decode_len capped at max_decode_len
        self.prefill_t = entry.first_token_t  # first-token time, or None
        self.snap = entry.resume_tokens       # tokens covered by snapshot
        self.high_water = entry.high_water    # deepest earlier attempt
        self.restore_pending = entry.resume_tokens > 0
        self.order = entry.order


def _restore_latency_s(sim: ContinuousBatchingSimulator,
                       slot: _Slot) -> float:
    """One restore step: snapshot reload + delta re-prefill."""
    depth = slot.request.prompt_len + slot.snap
    latency = sim.step_latency_s(
        "snapshot", sim.spec.kv_bucket(depth), 1)
    suffix = slot.produced - slot.snap
    if suffix > 0:
        latency += sim.step_latency_s(
            "prefill", sim.spec.prompt_bucket(suffix), 1)
    return latency


def _requeue_entry(sim: ContinuousBatchingSimulator, slot: _Slot,
                   ready_s: Optional[float] = None) -> _Pending:
    """The pending entry a killed slot re-enqueues as."""
    arrival = slot.request.arrival_s
    ready = arrival if ready_s is None else max(arrival, ready_s)
    high_water = max(slot.high_water, slot.produced)
    if sim.recovery is not None and slot.snap > 0:
        return _Pending(slot.request, slot.retries + 1, slot.snap,
                        slot.produced, slot.prefill_t, high_water,
                        ready, slot.order)
    return _Pending(slot.request, slot.retries + 1, 0, 0, None,
                    high_water, ready, slot.order)


def _lose_core(sim: ContinuousBatchingSimulator, active: List[_Slot],
               pending: Deque[_Pending], t: float, retry_budget: int,
               retry_timeout: float, acc: _Accumulator,
               migrants_out: Optional[List[_Pending]]) -> None:
    """A core is gone for good at ``t``: migrate or drop its work."""
    if migrants_out is None:
        acc.dropped += len(active) + len(pending)
        return
    for slot in active:
        if (slot.retries + 1 > retry_budget
                or t - slot.request.arrival_s > retry_timeout):
            acc.dropped += 1
        else:
            acc.retried += 1
            migrants_out.append(_requeue_entry(sim, slot, ready_s=t))
    for entry in pending:
        entry.ready_s = max(entry.ready_s, t)
        migrants_out.append(entry)


def run_core(sim: ContinuousBatchingSimulator, core: int,
             pending: Deque[_Pending], schedule: Optional[FaultSchedule],
             retry_budget: int, retry_timeout: float, acc: _Accumulator,
             migrants_out: Optional[List[_Pending]],
             completions: Optional[List[float]] = None) -> None:
    """One core's engine loop over its (possibly merged) queue.

    Each iteration commits one step, or a whole uniform decode run:
    after the run's first step passes the fault checks, the loop
    fast-forwards through the steps that would repeat it exactly.
    ``completions``, when given, receives the completion time of every
    committed step, so a test can place fault edges exactly on them.
    """
    active: List[_Slot] = []
    awaiting: Deque[_Slot] = deque()
    now = 0.0
    iterations = 0
    slots = sim.slots
    spec = sim.spec
    last_bucket = spec.kv_buckets[-1]
    latencies = sim._latency
    padded_of = [0] + [sim._policy.padded_size(n)
                       for n in range(1, slots + 1)]
    every = (sim.recovery.checkpoint_every
             if sim.recovery is not None and sim.recovery.checkpointing
             else 0)

    while pending or active:
        iterations += 1
        if not active and pending:
            now = max(now, pending[0].ready_s)

        waited = False
        if schedule is not None:
            down_until = schedule.outage_end(core, now)
            if down_until is not None:
                if math.isinf(down_until):
                    _lose_core(sim, active, pending, now, retry_budget,
                               retry_timeout, acc, migrants_out)
                    break
                now = down_until
                waited = True

        while (pending and len(active) < slots
               and pending[0].ready_s <= now):
            entry = pending.popleft()
            if (entry.retries > 0
                    and now - entry.request.arrival_s > retry_timeout):
                acc.dropped += 1
                continue
            slot = _Slot(entry, min(entry.request.decode_len,
                                    sim.max_decode_len))
            active.append(slot)
            awaiting.append(slot)
        if not active:
            continue

        steps_max = 1
        if awaiting:
            if awaiting[0].restore_pending:
                phase = "restore"
                latency = _restore_latency_s(sim, awaiting[0])
            else:
                phase = "prefill"
                bucket = spec.prompt_bucket(awaiting[0].request.prompt_len)
                latency = latencies.get((phase, bucket, padded_of[1]))
                if latency is None:
                    latency = sim.step_latency_s(phase, bucket, 1)
        else:
            deepest = 0
            to_retire = to_snapshot = sim.max_decode_len
            for slot in active:
                produced = slot.produced
                depth = slot.request.prompt_len + produced
                if depth > deepest:
                    deepest = depth
                if slot.target - produced < to_retire:
                    to_retire = slot.target - produced
                if every and every - produced + slot.snap < to_snapshot:
                    to_snapshot = every - produced + slot.snap
            if every and to_snapshot <= 0:
                members = [s for s in active
                           if s.produced - s.snap >= every]
                phase = "snapshot"
                deepest = max(s.request.prompt_len + s.produced
                              for s in members)
            else:
                members = active
                phase = "decode"
                steps_max = min(to_retire, to_snapshot)
            bucket = spec.kv_bucket(deepest)
            if phase == "decode" and bucket != last_bucket:
                steps_max = min(steps_max, bucket - deepest + 1)
            latency = latencies.get((phase, bucket,
                                     padded_of[len(members)]))
            if latency is None:
                latency = sim.step_latency_s(phase, bucket, len(members))
        if schedule is not None:
            latency *= schedule.slowdown_factor(core, now)
        completion = now + latency

        if schedule is not None:
            failure = schedule.first_failure_between(core, now, completion)
            if failure is not None:
                fail_start, fail_end = failure
                acc.lost_steps += 1
                if math.isinf(fail_end):
                    _lose_core(sim, active, pending, fail_start,
                               retry_budget, retry_timeout, acc,
                               migrants_out)
                    break
                survivors: List[_Pending] = []
                for slot in active:
                    if (slot.retries + 1 > retry_budget
                            or fail_start - slot.request.arrival_s
                            > retry_timeout):
                        acc.dropped += 1
                    else:
                        acc.retried += 1
                        survivors.append(_requeue_entry(sim, slot))
                pending.extendleft(reversed(survivors))
                active = []
                awaiting.clear()
                now = fail_end
                continue

        if completions is not None:
            completions.append(completion)
        steps = 1
        if steps_max > 1 and not waited:
            ready = (pending[0].ready_s
                     if pending and len(active) < slots else math.inf)
            edge = (math.inf if schedule is None
                    else schedule.next_boundary(core, now))
            while steps < steps_max and completion < ready:
                following = completion + latency
                if following >= edge:
                    break
                completion = following
                steps += 1
                if completions is not None:
                    completions.append(completion)

        now = completion
        retire = False
        if phase == "prefill":
            slot = awaiting.popleft()
            slot.prefill_t = completion
            slot.produced = 1
            acc.prefills += 1
            acc.computed += 1
            if slot.high_water >= 1:
                acc.recomputed += 1
            retire = slot.target <= 1
        elif phase == "restore":
            slot = awaiting.popleft()
            suffix = slot.produced - slot.snap
            acc.computed += suffix
            acc.recomputed += suffix
            acc.recovered += slot.snap
            acc.restores += 1
            slot.restore_pending = False
        elif phase == "snapshot":
            acc.snapshot_steps += 1
            acc.snapshots += len(members)
            for slot in members:
                slot.snap = slot.produced
        else:
            acc.decode_steps += steps
            acc.decode_batch_sum += steps * len(members)
            acc.computed += steps * len(members)
            for slot in members:
                replayed = slot.high_water - slot.produced
                if replayed > 0:
                    acc.recomputed += min(steps, replayed)
                slot.produced += steps
            retire = steps == to_retire

        if retire:
            retiring = [s for s in active if s.produced >= s.target]
            active = [s for s in active if s.produced < s.target]
            for slot in retiring:
                acc.served += 1
                acc.tokens += slot.target
                acc.ttft.append(slot.prefill_t - slot.request.arrival_s)
                if slot.target > 1:
                    acc.per_token.append(
                        (completion - slot.prefill_t)
                        / (slot.target - 1))
        acc.last_completion = max(acc.last_completion, completion)
    acc.iterations += iterations
