"""Chip power model: static + activity-driven dynamic power.

Dynamic energy comes from the process node's per-event energies (MAC ops,
SRAM bytes, HBM bytes); static power is the chip's idle draw. The model
answers the two questions the paper's evaluation asks of it:

* average power while running a workload (for perf/W, experiment E8), and
* a bottom-up TDP estimate at peak activity (used by the design-space
  exploration to enforce Lesson 8's air-cooling ceiling).

Energy-per-event values scale with dtype: int8 MACs cost ~0.4x a bf16 MAC,
fp32 ~3x (multiplier energy grows roughly quadratically in mantissa width).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.chip import ChipConfig
from repro.tech.node import ProcessNode, node_by_name

# Relative MAC energy by operand type (bf16 = 1.0).
_DTYPE_MAC_ENERGY = {"int8": 0.4, "bf16": 1.0, "fp32": 3.0}
PICO = 1e-12


@dataclass(frozen=True)
class PowerBreakdown:
    """Average power decomposition over an interval, in watts."""

    static_w: float
    mac_w: float
    sram_w: float
    hbm_w: float
    vector_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.mac_w + self.sram_w + self.hbm_w + self.vector_w


class PowerModel:
    """Energy accounting for one chip."""

    def __init__(self, chip: ChipConfig, node: ProcessNode = None) -> None:
        self.chip = chip
        self.node = node if node is not None else node_by_name(chip.process)

    def mac_energy_j(self, dtype: str = "bf16") -> float:
        """Energy of one MAC in joules for the given operand type."""
        try:
            scale = _DTYPE_MAC_ENERGY[dtype]
        except KeyError:
            known = ", ".join(sorted(_DTYPE_MAC_ENERGY))
            raise KeyError(f"unknown dtype {dtype!r}; known: {known}") from None
        return self.node.mac_energy_pj * scale * PICO

    def sram_energy_j(self, num_bytes: float) -> float:
        """Energy to move bytes through on-chip SRAM (VMEM/CMEM)."""
        return self.node.sram_read_energy_pj_byte * num_bytes * PICO

    def hbm_energy_j(self, num_bytes: float) -> float:
        """Energy to move bytes across the HBM interface."""
        return self.node.dram_access_energy_pj_byte * num_bytes * PICO

    def vector_energy_j(self, alu_ops: float) -> float:
        """Energy of VPU ALU ops (~half a MAC each: one operand pair, no array)."""
        return 0.5 * self.node.mac_energy_pj * alu_ops * PICO

    def average_power(self, duration_s: float, *, macs: float = 0.0,
                      dtype: str = "bf16", sram_bytes: float = 0.0,
                      hbm_bytes: float = 0.0, vector_ops: float = 0.0) -> PowerBreakdown:
        """Average power while the listed activity happened over ``duration_s``."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        for name, value in (("macs", macs), ("sram_bytes", sram_bytes),
                            ("hbm_bytes", hbm_bytes), ("vector_ops", vector_ops)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        return PowerBreakdown(
            static_w=self.chip.idle_w,
            mac_w=self.mac_energy_j(dtype) * macs / duration_s,
            sram_w=self.sram_energy_j(sram_bytes) / duration_s,
            hbm_w=self.hbm_energy_j(hbm_bytes) / duration_s,
            vector_w=self.vector_energy_j(vector_ops) / duration_s,
        )

    # Datapath-to-chip ratio: clock distribution, uncore, SerDes/HBM PHY and
    # design margin roughly double the datapath's peak power. Calibrated so
    # the estimate lands near the published TDPs of TPUv2/v3/v4i.
    UNCORE_MARGIN = 1.8

    def tdp_estimate_w(self, dtype: str = "bf16") -> float:
        """Bottom-up peak power: all MXUs and full HBM bandwidth active,
        scaled by :attr:`UNCORE_MARGIN` for everything the activity model
        does not see (uncore, clocking, PHYs, margin).

        Used by the DSE to reject design points that bust the air-cooling
        envelope (Lesson 8), and checked in tests to land within ~2x of
        the configured TDP for the production generations.
        """
        seconds = 1.0
        macs = self.chip.macs_per_cycle * self.chip.clock_hz * seconds
        # Operand traffic at peak: ~2 input bytes + 2 output bytes per 128-MAC
        # column is dwarfed by systolic reuse; approximate SRAM traffic as
        # 2 bytes per MAC row entering the array.
        sram_bytes = 2.0 * macs / self.chip.mxu_dim
        hbm_bytes = self.chip.hbm_bw * seconds
        breakdown = self.average_power(
            seconds, macs=macs, dtype=dtype, sram_bytes=sram_bytes,
            hbm_bytes=hbm_bytes)
        return breakdown.total_w * self.UNCORE_MARGIN
