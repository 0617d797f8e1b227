"""Tests for the power and cooling models (Lesson 8)."""

import pytest

from repro.arch import (
    AIR_COOLING,
    LIQUID_COOLING,
    GENERATIONS,
    PowerModel,
    TPUV1,
    TPUV3,
    TPUV4I,
)
from repro.arch.cooling import air_coolable, solution_for


class TestPowerModel:
    def test_dtype_energy_ordering(self):
        pm = PowerModel(TPUV4I)
        assert (pm.mac_energy_j("int8") < pm.mac_energy_j("bf16")
                < pm.mac_energy_j("fp32"))

    def test_unknown_dtype(self):
        with pytest.raises(KeyError):
            PowerModel(TPUV4I).mac_energy_j("fp64")

    def test_idle_power_is_floor(self):
        pm = PowerModel(TPUV4I)
        breakdown = pm.average_power(1.0)
        assert breakdown.total_w == pytest.approx(TPUV4I.idle_w)

    def test_activity_raises_power(self):
        pm = PowerModel(TPUV4I)
        busy = pm.average_power(1.0, macs=1e14, hbm_bytes=1e11)
        assert busy.total_w > TPUV4I.idle_w
        assert busy.mac_w > 0 and busy.hbm_w > 0

    def test_newer_node_more_efficient(self):
        """Same activity costs less on 7nm than 28nm (Lesson 1 energy curve)."""
        v4i = PowerModel(TPUV4I).average_power(1.0, macs=1e13, dtype="int8")
        v1 = PowerModel(TPUV1).average_power(1.0, macs=1e13, dtype="int8")
        assert v4i.mac_w < v1.mac_w / 3

    def test_tdp_estimate_within_2x_of_spec(self):
        for chip in GENERATIONS:
            dtype = "int8" if chip.generation == 1 else "bf16"
            estimate = PowerModel(chip).tdp_estimate_w(dtype)
            assert chip.tdp_w / 2.5 < estimate < chip.tdp_w * 2.5, chip.name

    def test_breakdown_total_is_sum_of_parts(self):
        b = PowerModel(TPUV4I).average_power(1.0, macs=1e12)
        assert b.total_w == pytest.approx(
            b.static_w + b.mac_w + b.sram_w + b.hbm_w + b.vector_w)

    def test_validation(self):
        pm = PowerModel(TPUV4I)
        with pytest.raises(ValueError):
            pm.average_power(0.0)
        with pytest.raises(ValueError):
            pm.average_power(1.0, macs=-1)


class TestCooling:
    def test_v4i_is_air_coolable(self):
        """Lesson 8: 175 W ships in an air-cooled server."""
        assert air_coolable(TPUV4I.tdp_w)

    def test_v3_is_not_air_coolable(self):
        assert not air_coolable(TPUV3.tdp_w)
        assert LIQUID_COOLING.supports(TPUV3.tdp_w)

    def test_junction_temp_rises_with_power(self):
        assert (AIR_COOLING.junction_temp_c(175)
                > AIR_COOLING.junction_temp_c(75))

    def test_liquid_runs_cooler(self):
        assert (LIQUID_COOLING.junction_temp_c(175)
                < AIR_COOLING.junction_temp_c(175))

    def test_chip_cooling_lookup(self):
        assert solution_for(TPUV4I) is AIR_COOLING
        assert solution_for(TPUV3) is LIQUID_COOLING

    def test_air_deployable_everywhere(self):
        """The deployability property the lesson turns on."""
        assert AIR_COOLING.deployable_everywhere
        assert not LIQUID_COOLING.deployable_everywhere
