"""Performance counters and derived reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.arch.chip import ChipConfig
from repro.arch.power import PowerBreakdown, PowerModel
from repro.util.units import TERA


@dataclass
class PerfCounters:
    """Raw counters accumulated while executing one program."""

    cycles: int = 0
    bundles: int = 0
    macs: int = 0
    vector_alu_ops: float = 0.0
    scalar_ops: int = 0
    mxu_busy_cycles: int = 0
    vpu_busy_cycles: int = 0
    dma_busy_cycles: int = 0
    sync_stall_cycles: int = 0
    bytes_by_level: Dict[str, float] = field(default_factory=dict)

    def add_bytes(self, level: str, num_bytes: float) -> None:
        self.bytes_by_level[level] = self.bytes_by_level.get(level, 0.0) + num_bytes


@dataclass(frozen=True)
class PerfReport:
    """Derived metrics for one program execution on one chip."""

    chip_name: str
    program_name: str
    cycles: int
    seconds: float
    ops: float                    # 2 * MACs
    achieved_tops: float
    mxu_utilization: float        # busy cycles / total cycles
    compute_efficiency: float     # achieved ops / peak ops
    hbm_bytes: float
    cmem_bytes: float
    vmem_bytes: float
    hbm_bw_utilization: float
    power: PowerBreakdown
    energy_j: float

    @property
    def tops_per_watt(self) -> float:
        return self.achieved_tops / self.power.total_w if self.power.total_w else 0.0

    def describe(self) -> str:
        return (
            f"{self.program_name} on {self.chip_name}: "
            f"{self.seconds * 1e3:.3f} ms, {self.achieved_tops:.2f} TOPS "
            f"({self.compute_efficiency:.1%} of peak), "
            f"HBM {self.hbm_bw_utilization:.1%}, "
            f"{self.power.total_w:.1f} W, {self.tops_per_watt:.2f} TOPS/W"
        )


def build_report(chip: ChipConfig, program_name: str, counters: PerfCounters,
                 dtype: str = "bf16") -> PerfReport:
    """Turn raw counters into a :class:`PerfReport` (with power/energy)."""
    if counters.cycles <= 0:
        raise ValueError("cannot report on an execution with zero cycles")
    seconds = counters.cycles / chip.clock_hz
    ops = 2.0 * counters.macs
    hbm = counters.bytes_by_level.get("hbm", 0.0)
    cmem = counters.bytes_by_level.get("cmem", 0.0)
    vmem = counters.bytes_by_level.get("vmem", 0.0)
    power_model = PowerModel(chip)
    power = power_model.average_power(
        seconds,
        macs=counters.macs,
        dtype=dtype,
        sram_bytes=vmem + cmem,
        hbm_bytes=hbm,
        vector_ops=counters.vector_alu_ops,
    )
    return PerfReport(
        chip_name=chip.name,
        program_name=program_name,
        cycles=counters.cycles,
        seconds=seconds,
        ops=ops,
        achieved_tops=(ops / seconds) / TERA,
        mxu_utilization=counters.mxu_busy_cycles / counters.cycles,
        compute_efficiency=(ops / seconds) / chip.peak_ops,
        hbm_bytes=hbm,
        cmem_bytes=cmem,
        vmem_bytes=vmem,
        hbm_bw_utilization=min(1.0, (hbm / seconds) / chip.hbm_bw),
        power=power,
        energy_j=power.total_w * seconds,
    )
