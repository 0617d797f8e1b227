"""Cycle-approximate TensorCore simulator.

Executes compiled VLIW programs against a chip's timing models: in-order
bundle issue, pipelined MXU/VPU occupancy, DMA engines with shared-bandwidth
contention, and sync-flag blocking — enough fidelity to reproduce the
paper's utilization, roofline, and latency shapes (the repro band for this
paper is explicitly "analytical/cycle sim, not RTL").
"""

from repro.sim.perf import PerfCounters, PerfReport
from repro.sim.lowered import (
    FastReplay,
    LoweredProgram,
    lower_program,
)
from repro.sim.core import TensorCoreSim, SimResult

__all__ = [
    "FastReplay",
    "LoweredProgram",
    "PerfCounters",
    "PerfReport",
    "TensorCoreSim",
    "SimResult",
    "lower_program",
]
