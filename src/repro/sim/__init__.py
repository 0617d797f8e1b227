"""Cycle-approximate TensorCore simulator.

Executes compiled VLIW programs against a chip's timing models: in-order
bundle issue, pipelined MXU/VPU occupancy, DMA engines with shared-bandwidth
contention, and sync-flag blocking — enough fidelity to reproduce the
paper's utilization, roofline, and latency shapes (the repro band for this
paper is explicitly "analytical/cycle sim, not RTL").
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.sim.perf": ("PerfCounters", "PerfReport"),
    "repro.sim.lowered": ("FastReplay", "LoweredProgram", "lower_program"),
    "repro.sim.core": ("TensorCoreSim", "SimResult"),
})
