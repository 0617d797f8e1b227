"""Hardware component models for the TPU generations.

This package is the "silicon" substrate: chip configurations for the three
training/inference generations the paper draws lessons from (TPUv1, TPUv2,
TPUv3) plus the design the lessons produced (TPUv4i), and timing/power models
for their major components — systolic MXUs, the vector unit, the on-chip
memory hierarchy (VMEM/CMEM), HBM, inter-chip links, and the power/cooling
envelope. The DMA engine pools are part of the timing engine
(:mod:`repro.sim.gridkernel`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.arch.chip": ("ChipConfig", "TPUV1", "TPUV2", "TPUV3", "TPUV4I",
                        "GENERATIONS", "chip_by_name"),
    "repro.arch.mxu": ("MxuModel", "MatmulTiming"),
    "repro.arch.vpu": ("VpuModel",),
    "repro.arch.memory": ("MemoryLevel", "MemorySystem"),
    "repro.arch.ici": ("IciLink",),
    "repro.arch.power": ("PowerModel", "PowerBreakdown"),
    "repro.arch.cooling": ("CoolingSolution", "AIR_COOLING", "LIQUID_COOLING"),
    "repro.arch.thermal": ("ThermalModel", "ThermalSample"),
    "repro.arch.config_io": ("chip_from_json", "chip_to_json", "load_chip",
                             "save_chip"),
})
