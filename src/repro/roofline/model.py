"""Classic roofline: attainable performance vs operational intensity.

The TPUv4i paper uses rooflines to show why CMEM matters: several
production apps sit left of the HBM ridge point, and moving their weight
traffic on chip (CMEM bandwidth is ~4.5x HBM) slides the bandwidth roof
up, converting memory-bound apps to compute-bound. ``chip_roofline``
builds both roofs; ``place_module`` positions a workload on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.chip import ChipConfig
from repro.graph.hlo import HloModule
from repro.util.units import TERA


@dataclass(frozen=True)
class Roofline:
    """One roof: a peak-compute ceiling and a bandwidth slope.

    ``attainable(oi)`` = min(peak_ops, oi * bandwidth).
    """

    name: str
    peak_ops: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_ops <= 0 or self.bandwidth <= 0:
            raise ValueError("peak and bandwidth must be positive")

    @property
    def ridge_ops_per_byte(self) -> float:
        """Intensity where the bandwidth slope meets the compute ceiling."""
        return self.peak_ops / self.bandwidth

    def attainable_ops(self, ops_per_byte: float) -> float:
        if ops_per_byte < 0:
            raise ValueError("operational intensity must be non-negative")
        return min(self.peak_ops, ops_per_byte * self.bandwidth)

    def attainable_tops(self, ops_per_byte: float) -> float:
        return self.attainable_ops(ops_per_byte) / TERA

    def is_memory_bound(self, ops_per_byte: float) -> bool:
        return ops_per_byte < self.ridge_ops_per_byte


@dataclass(frozen=True)
class RooflinePoint:
    """A workload placed on a chip's roofline(s)."""

    workload: str
    ops_per_byte: float
    attainable_tops_hbm: float
    attainable_tops_cmem: Optional[float]
    memory_bound_hbm: bool


def chip_roofline(chip: ChipConfig, level: str = "hbm") -> Roofline:
    """The roofline of a chip against one memory level's bandwidth."""
    if level == "hbm":
        bandwidth = chip.hbm_bw
    elif level == "cmem":
        if not chip.has_cmem:
            raise ValueError(f"{chip.name} has no CMEM")
        bandwidth = chip.cmem_bw
    else:
        raise ValueError(f"roofline level must be 'hbm' or 'cmem', got {level!r}")
    return Roofline(f"{chip.name}/{level}", chip.peak_ops, bandwidth)


def place_module(module: HloModule, chip: ChipConfig,
                 cmem_hit_fraction: float = 1.0) -> RooflinePoint:
    """Place one workload on a chip's rooflines.

    ``cmem_hit_fraction`` is the share of weight traffic served by CMEM
    (from the allocator); the CMEM roof applies an effective bandwidth
    blending the two levels.
    """
    if not 0.0 <= cmem_hit_fraction <= 1.0:
        raise ValueError("cmem_hit_fraction must be in [0, 1]")
    oi = module.operational_intensity()
    hbm_roof = chip_roofline(chip, "hbm")
    cmem_tops: Optional[float] = None
    if chip.has_cmem:
        # Effective bandwidth: hit fraction at CMEM speed, rest at HBM.
        seconds_per_byte = (cmem_hit_fraction / chip.cmem_bw
                            + (1.0 - cmem_hit_fraction) / chip.hbm_bw)
        blended = Roofline(f"{chip.name}/blend", chip.peak_ops,
                           1.0 / seconds_per_byte)
        cmem_tops = blended.attainable_tops(oi)
    return RooflinePoint(
        workload=module.name,
        ops_per_byte=oi,
        attainable_tops_hbm=hbm_roof.attainable_tops(oi),
        attainable_tops_cmem=cmem_tops,
        memory_bound_hbm=hbm_roof.is_memory_bound(oi),
    )
