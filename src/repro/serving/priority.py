"""Two-tier serving: interactive traffic plus offline filler.

Inference fleets are provisioned for peak interactive load, which leaves
cycles idle off-peak. Production recovers them with a second tier of
offline work (batch scoring, backfills) that runs only when no
interactive request is waiting. The simulator quantifies the deal: how
much utilization the filler recovers, and what it costs the interactive
tier's tail latency (non-preemptive service means an interactive arrival
can find the core busy with an offline batch).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.design_point import DesignPoint
from repro.serving.slo import percentile
from repro.workloads.generator import Request
from repro.workloads.models import WorkloadSpec


@dataclass(frozen=True)
class TwoTierStats:
    """Outcome of one two-tier simulation."""

    interactive_requests: int
    interactive_p50_s: float
    interactive_p99_s: float
    offline_batches: int
    offline_samples_per_s: float
    busy_fraction: float


class TwoTierServer:
    """Non-preemptive priority serving on one chip's cores.

    Interactive requests are served individually (batch 1, lowest
    latency); whenever a core would idle, it runs one offline batch of
    ``offline_batch`` samples instead.
    """

    def __init__(self, point: DesignPoint, interactive: WorkloadSpec,
                 offline: WorkloadSpec, *, offline_batch: int = 32) -> None:
        if offline_batch < 1:
            raise ValueError("offline batch must be >= 1")
        self.point = point
        self.interactive = interactive
        self.offline = offline
        self.offline_batch = offline_batch
        self._interactive_s = point.latency_s(interactive, 1)
        self._offline_s = point.latency_s(offline, offline_batch)

    def simulate(self, requests: Sequence[Request], duration_s: float,
                 *, fill_idle: bool = True) -> TwoTierStats:
        """Serve a time-sorted interactive stream over ``duration_s``.

        With ``fill_idle=False`` the offline tier is disabled — the
        baseline whose idle fraction the filler recovers.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        arrivals = [r.arrival_s for r in requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("requests must be sorted by arrival time")

        cores = self.point.chip.cores
        servers = [0.0] * cores
        heapq.heapify(servers)

        latencies: List[float] = []
        offline_batches = 0
        busy_s = 0.0
        index = 0
        total = len(arrivals)

        while index < total:
            free_at = heapq.heappop(servers)
            arrival = arrivals[index]
            if fill_idle and free_at + 1e-12 < arrival:
                # Idle gap before the next interactive arrival: fill it
                # with offline batches (non-preemptive: possibly overrunning
                # into the interactive request's start).
                gap_batches = max(0, int((arrival - free_at)
                                         / self._offline_s))
                run = max(1, gap_batches)
                offline_batches += run
                busy_s += run * self._offline_s
                free_at += run * self._offline_s
            start = max(free_at, arrival)
            completion = start + self._interactive_s
            busy_s += self._interactive_s
            latencies.append(completion - arrival)
            heapq.heappush(servers, completion)
            index += 1

        # Tail: fill remaining time on every core until the horizon.
        if fill_idle:
            while servers and min(servers) < duration_s:
                free_at = heapq.heappop(servers)
                offline_batches += 1
                busy_s += self._offline_s
                heapq.heappush(servers, free_at + self._offline_s)

        capacity_s = cores * duration_s
        return TwoTierStats(
            interactive_requests=total,
            interactive_p50_s=percentile(latencies, 50) if latencies else 0.0,
            interactive_p99_s=percentile(latencies, 99) if latencies else 0.0,
            offline_batches=offline_batches,
            offline_samples_per_s=(offline_batches * self.offline_batch
                                   / duration_s),
            busy_fraction=min(1.0, busy_s / capacity_s),
        )
