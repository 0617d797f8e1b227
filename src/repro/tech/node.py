"""Per-node CMOS characteristics used by the area/power/cost models.

Values follow published industry trends (ITRS/WikiChip-style aggregates and
the Horowitz energy tables widely cited in architecture papers). Absolute
numbers matter less than the *ratios* between nodes: logic density roughly
doubles per node while SRAM bit density and wire performance improve far
more slowly — which is exactly Lesson 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class ProcessNode:
    """One CMOS process node.

    Attributes:
        name: marketing name, e.g. ``"7nm"``.
        feature_nm: nominal feature size in nanometres.
        year: approximate year of high-volume availability.
        logic_density_mtr_mm2: logic transistor density, millions/mm^2.
        sram_bit_density_mbit_mm2: SRAM density, Mbit/mm^2.
        wire_delay_ps_mm: RC delay of a repeated mid-level wire, ps/mm.
        mac_energy_pj: energy of one bf16 multiply-accumulate, pJ.
        sram_read_energy_pj_byte: energy to read one byte from a large SRAM, pJ.
        dram_access_energy_pj_byte: energy to move one byte from off-chip DRAM/HBM, pJ.
        wafer_cost_usd: cost of one processed 300mm wafer, USD (for the TCO model).
        defect_density_per_cm2: D0 used by the yield model.
    """

    name: str
    feature_nm: float
    year: int
    logic_density_mtr_mm2: float
    sram_bit_density_mbit_mm2: float
    wire_delay_ps_mm: float
    mac_energy_pj: float
    sram_read_energy_pj_byte: float
    dram_access_energy_pj_byte: float
    wafer_cost_usd: float
    defect_density_per_cm2: float

    def __post_init__(self) -> None:
        for field_name in (
            "feature_nm",
            "logic_density_mtr_mm2",
            "sram_bit_density_mbit_mm2",
            "wire_delay_ps_mm",
            "mac_energy_pj",
            "sram_read_energy_pj_byte",
            "dram_access_energy_pj_byte",
            "wafer_cost_usd",
            "defect_density_per_cm2",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    def logic_area_mm2(self, transistors_m: float) -> float:
        """Area for ``transistors_m`` million logic transistors."""
        return transistors_m / self.logic_density_mtr_mm2

    def sram_area_mm2(self, capacity_bytes: float) -> float:
        """Area for a ``capacity_bytes`` SRAM macro (data bits only)."""
        mbit = capacity_bytes * 8 / 1e6
        return mbit / self.sram_bit_density_mbit_mm2


# The trajectory the three TPU generations rode: TPUv1 at 28nm, TPUv2/v3 at
# 16nm, TPUv4i at 7nm, with neighbours included so the scaling figure has a
# full curve to draw. Logic density ~doubles per step; SRAM density improves
# ~1.4-1.8x; wire delay/mm barely improves (and worsens at the finest pitches).
NODES: Tuple[ProcessNode, ...] = (
    ProcessNode("45nm", 45, 2008, 3.3, 0.85, 90.0, 4.6, 1.20, 41.0, 2600, 0.25),
    ProcessNode("28nm", 28, 2011, 8.0, 1.55, 96.0, 2.4, 0.84, 35.0, 3000, 0.20),
    ProcessNode("16nm", 16, 2015, 28.9, 3.20, 105.0, 0.92, 0.52, 28.0, 3900, 0.12),
    ProcessNode("10nm", 10, 2017, 52.5, 4.70, 112.0, 0.62, 0.41, 25.0, 5100, 0.11),
    ProcessNode("7nm", 7, 2019, 96.5, 6.10, 120.0, 0.39, 0.33, 21.0, 9300, 0.10),
    ProcessNode("5nm", 5, 2021, 173.1, 8.10, 131.0, 0.26, 0.27, 18.0, 16900, 0.09),
)

_BY_NAME: Dict[str, ProcessNode] = {n.name: n for n in NODES}


def node_by_name(name: str) -> ProcessNode:
    """Look up a node by marketing name (``"7nm"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown process node {name!r}; known: {known}") from None
