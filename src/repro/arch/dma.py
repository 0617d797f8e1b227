"""DMA engine model: asynchronous bulk transfers that overlap compute.

TPU programs hide HBM latency by issuing DMA descriptors early and blocking
on a sync flag only when the data is needed. The model tracks per-engine
queue serialization and shared-bandwidth contention: two engines pulling
from HBM simultaneously each see half the bandwidth. The simulator
(`repro.sim.core`) drives this to decide how much transfer time compute
actually hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.arch.memory import MemorySystem


@dataclass(frozen=True)
class DmaTransfer:
    """One completed DMA: where it moved bytes and when.

    ``start_cycle``/``end_cycle`` are in core cycles. ``source`` is the
    bandwidth-limiting level (``"hbm"`` or ``"cmem"``).
    """

    source: str
    num_bytes: float
    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


class DmaEngine:
    """One DMA queue issuing serialized transfers from a memory level.

    ``contention`` scales effective bandwidth down when multiple engines
    share the level (the simulator sets it to the number of concurrently
    active engines on the same level).
    """

    def __init__(self, memory: MemorySystem, source: str, *,
                 per_transfer_overhead_cycles: int = 64) -> None:
        self.memory = memory
        self.source = source
        self.overhead = per_transfer_overhead_cycles
        self.busy_until = 0
        self.completed: List[DmaTransfer] = []
        memory.level(source)  # validate the level exists on this chip

    def issue(self, num_bytes: float, issue_cycle: int, contention: int = 1) -> DmaTransfer:
        """Issue a transfer; returns its completion record.

        The transfer starts when both the engine is free and the descriptor
        has been issued; duration is streaming time at ``bandwidth /
        contention`` plus fixed descriptor overhead.
        """
        if num_bytes < 0:
            raise ValueError("bytes must be non-negative")
        if contention < 1:
            raise ValueError("contention must be >= 1")
        level = self.memory.level(self.source)
        start = max(self.busy_until, issue_cycle)
        streaming_s = num_bytes * contention / level.bandwidth
        duration = self.overhead + level.latency_cycles + math.ceil(
            streaming_s * self.memory.chip.clock_hz)
        end = start + duration
        self.busy_until = end
        self.memory.record_traffic(self.source, num_bytes)
        transfer = DmaTransfer(self.source, num_bytes, start, end)
        self.completed.append(transfer)
        return transfer

    def busy_cycles(self) -> int:
        """Cycles this engine spent transferring (its queue occupancy)."""
        return sum(t.duration for t in self.completed)
