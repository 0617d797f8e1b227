"""Memory hierarchy model: VMEM, CMEM, and HBM.

TPUv4i's headline memory feature is CMEM — 128 MiB of on-chip SRAM between
VMEM and HBM. Weights (and large activations) resident in CMEM stream at
several times HBM bandwidth and at a fraction of the pJ/byte, which is what
moves the memory-bound production apps up the roofline (experiment E7/E10).

:class:`MemorySystem` describes the levels a chip has and their transfer
timing. It keeps no state: the timing engine counts traffic itself, and
the test-only interpreter keeps its ledger in a subclass
(``tests/reference/interpreter.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.arch.chip import ChipConfig


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy.

    Attributes:
        name: ``"vmem"``, ``"cmem"``, or ``"hbm"``.
        capacity_bytes: usable capacity.
        bandwidth: sustained bytes/s into the core.
        latency_cycles: load-use latency in core cycles.
    """

    name: str
    capacity_bytes: int
    bandwidth: float
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.latency_cycles < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")

    def transfer_seconds(self, num_bytes: float) -> float:
        """Streaming time for ``num_bytes`` at this level's bandwidth."""
        if num_bytes < 0:
            raise ValueError("bytes must be non-negative")
        return num_bytes / self.bandwidth

    def transfer_cycles(self, num_bytes: float, clock_hz: float) -> int:
        """Streaming time in core cycles, including one load-use latency."""
        if num_bytes == 0:
            return 0
        streaming = self.transfer_seconds(num_bytes) * clock_hz
        return self.latency_cycles + math.ceil(streaming)


class MemorySystem:
    """The chip's memory hierarchy.

    VMEM bandwidth is modeled as matching the compute datapath (it is a
    multi-banked scratchpad feeding the MXU/VPU directly), so in practice
    only CMEM and HBM appear as bandwidth limiters.
    """

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip
        # VMEM feeds the MXU: size it to sustain the peak MAC operand rate.
        vmem_bw = chip.peak_ops * 1.0  # ~1 byte/op operand traffic at bf16
        self.vmem = MemoryLevel("vmem", chip.vmem_bytes, vmem_bw, 2)
        self.hbm = MemoryLevel("hbm", chip.hbm_bytes, chip.hbm_bw,
                               chip.hbm_latency_cycles)
        self.cmem: Optional[MemoryLevel] = None
        if chip.has_cmem:
            self.cmem = MemoryLevel("cmem", chip.cmem_bytes, chip.cmem_bw,
                                    chip.cmem_latency_cycles)

    def levels(self) -> List[MemoryLevel]:
        """All levels, fastest first."""
        found = [self.vmem]
        if self.cmem is not None:
            found.append(self.cmem)
        found.append(self.hbm)
        return found

    def level(self, name: str) -> MemoryLevel:
        """Look up a level by name; raises for a CMEM request on a CMEM-less chip."""
        for candidate in self.levels():
            if candidate.name == name:
                return candidate
        raise KeyError(f"{self.chip.name} has no memory level {name!r}")

    # ---------------------------------------------------------------- timing

    def stream_cycles(self, name: str, num_bytes: float) -> int:
        """Core cycles to stream ``num_bytes`` from the named level."""
        return self.level(name).transfer_cycles(num_bytes, self.chip.clock_hz)
