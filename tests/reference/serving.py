"""Test-only oracle for the single-simulator serving replay.

:func:`replay_events` is the request-at-a-time discrete-event loop that
``repro.serving.fastserve.replay_serving`` replaced: each pass pops the
earliest-free core, absorbs arrivals one comparison at a time, and
launches, waits out an outage, or loses the batch to a mid-batch kill.
The kernel must return the same :class:`ServingStats`, metric
observations and tracer spans bit for bit (``tests/test_fastserve.py``);
``tests/conftest.py::reference_paths`` patches this loop in for
``replay_serving``. DESIGN.md ("Serving replay semantics") states the
rules in prose.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import UNIT_BUCKETS, metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultSchedule
    from repro.obs.tracer import SpanTracer
    from repro.serving.server import ServingSimulator, ServingStats


def replay_events(sim: "ServingSimulator", arrivals: list[float],
                  schedule: Optional["FaultSchedule"], retry_budget: int,
                  retry_timeout: float,
                  tracer: Optional["SpanTracer"]) -> "ServingStats":
    """Replay one serving timeline one event at a time."""
    servers = [(0.0, core) for core in range(sim.point.chip.cores)]
    heapq.heapify(servers)

    # Observability: hoist the enabled checks so the faultless fast
    # path pays one boolean per launch and nothing else.
    reg = metrics()
    rec = reg.enabled

    latencies: list[float] = []
    batch_sizes: list[int] = []
    index = 0
    queue: list[tuple[float, int]] = []  # (arrival time, retries so far)
    total = len(arrivals)
    last_completion = 0.0
    retried = dropped = lost_batches = 0

    while index < total or queue:
        if not queue:
            queue.append((arrivals[index], 0))
            index += 1
        server_free, core = servers[0]
        if schedule is not None and math.isinf(server_free):
            # Every core is gone for good: nothing pending can ever
            # launch, so the remaining stream is lost outright.
            dropped += len(queue) + (total - index)
            queue.clear()
            index = total
            break
        # Absorb arrivals that land before this batch could launch.
        while (index < total and len(queue) < sim.policy.max_batch):
            deadline = queue[0][0] + sim.policy.max_wait_s
            horizon = max(server_free, deadline)
            if arrivals[index] <= horizon:
                queue.append((arrivals[index], 0))
                index += 1
            else:
                break
        if len(queue) >= sim.policy.max_batch:
            ready = queue[sim.policy.max_batch - 1][0]
        else:
            ready = queue[0][0] + sim.policy.max_wait_s
        launch = max(server_free, ready)

        if retried and not math.isinf(retry_timeout):
            # A re-enqueued request whose relaunch would happen
            # later than the retry timeout after its arrival is
            # dropped here, not served arbitrarily late (and never
            # silently lost: the conservation invariant in
            # ServingStats.__post_init__ would catch that).
            alive = [e for e in queue
                     if not (e[1] > 0 and launch - e[0] > retry_timeout)]
            if len(alive) != len(queue):
                dropped += len(queue) - len(alive)
                queue = alive
                continue

        if schedule is not None:
            down_until = schedule.outage_end(core, launch)
            if down_until is not None:
                # Core is mid-repair at launch time: it takes no work
                # until the outage ends; surviving cores go first.
                if rec:
                    reg.counter("serving.outage_wait_s").inc(
                        max(0.0, down_until - launch))
                heapq.heapreplace(servers, (down_until, core))
                continue

        size = min(len(queue), sim.policy.max_batch)
        if rec:
            reg.histogram("serving.queue_depth").observe(len(queue))
            reg.histogram("serving.batch_occupancy",
                          UNIT_BUCKETS).observe(
                size / sim.policy.max_batch)
        latency = sim.batch_latency_s(size)
        if schedule is not None:
            factor = schedule.slowdown_factor(core, launch)
            if factor != 1.0:
                latency *= factor
        completion = launch + latency

        if schedule is not None:
            failure = schedule.first_failure_between(
                core, launch, completion)
            if failure is not None:
                # The core died mid-batch: the whole in-flight batch
                # is lost. Requests under budget and timeout keep
                # their arrival times and rejoin the queue head.
                fail_start, fail_end = failure
                lost_batches += 1
                if tracer is not None:
                    tracer.record(
                        "batch.lost", "serve", "serving", f"core{core}",
                        launch * 1e6, (fail_start - launch) * 1e6,
                        (("size", size),))
                batch, queue = queue[:size], queue[size:]
                survivors: list[tuple[float, int]] = []
                for arrival, retries in batch:
                    if (retries + 1 > retry_budget
                            or fail_start - arrival > retry_timeout):
                        dropped += 1
                    else:
                        retried += 1
                        survivors.append((arrival, retries + 1))
                queue = survivors + queue
                heapq.heapreplace(servers, (fail_end, core))
                continue

        batch, queue = queue[:size], queue[size:]
        heapq.heapreplace(servers, (completion, core))
        if tracer is not None:
            tracer.record("batch", "serve", "serving", f"core{core}",
                          launch * 1e6, latency * 1e6, (("size", size),))
        latencies.extend(completion - a for a, _ in batch)
        batch_sizes.append(size)
        last_completion = max(last_completion, completion)

    return sim._finalize(arrivals, schedule, latencies, batch_sizes,
                         retried, dropped, lost_batches, last_completion)

