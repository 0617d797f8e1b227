"""Tests for repro.tech: process nodes and the Lesson 1 scaling series."""

import pytest

from repro.tech import (
    NODES,
    ProcessNode,
    energy_per_op_series,
    logic_density_series,
    node_by_name,
    relative_improvement,
    sram_density_series,
    wire_delay_series,
)
from repro.util.units import MIB


class TestNodes:
    def test_lookup_known(self):
        assert node_by_name("7nm").feature_nm == 7

    def test_lookup_unknown_lists_known(self):
        with pytest.raises(KeyError, match="7nm"):
            node_by_name("3nm")

    def test_nodes_ordered_by_year(self):
        years = [n.year for n in NODES]
        assert years == sorted(years)

    def test_logic_density_monotone_increasing(self):
        densities = [n.logic_density_mtr_mm2 for n in NODES]
        assert densities == sorted(densities)

    def test_mac_energy_monotone_decreasing(self):
        energies = [n.mac_energy_pj for n in NODES]
        assert energies == sorted(energies, reverse=True)

    def test_wafer_cost_rises_at_leading_edge(self):
        assert node_by_name("7nm").wafer_cost_usd > node_by_name("16nm").wafer_cost_usd

    def test_area_helpers(self):
        node = node_by_name("7nm")
        assert node.logic_area_mm2(96.5) == pytest.approx(1.0)
        # 1 Mbit of SRAM at 6.1 Mbit/mm^2.
        assert node.sram_area_mm2(1e6 / 8) == pytest.approx(1 / 6.1, rel=1e-6)

    def test_validation_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProcessNode("bad", 7, 2019, 0, 1, 1, 1, 1, 1, 1, 1)


class TestScalingSeries:
    def test_series_normalized(self):
        for series in relative_improvement():
            assert series.values[0] == pytest.approx(1.0)

    def test_lesson1_ordering(self):
        """The whole point: logic >> SRAM > wires at the newest node."""
        logic = logic_density_series().final_improvement()
        sram = sram_density_series().final_improvement()
        wire = wire_delay_series().final_improvement()
        assert logic > 5 * sram
        assert sram > wire

    def test_wire_speed_regresses(self):
        assert wire_delay_series().final_improvement() < 1.0

    def test_energy_improves(self):
        assert energy_per_op_series().final_improvement() > 10

    def test_subset_of_nodes(self):
        subset = (node_by_name("28nm"), node_by_name("7nm"))
        series = logic_density_series(subset)
        assert series.nodes == ("28nm", "7nm")
        assert series.final_improvement() == pytest.approx(96.5 / 8.0)

    def test_series_alignment_validated(self):
        from repro.tech.scaling import ScalingSeries

        with pytest.raises(ValueError):
            ScalingSeries("x", ("a",), (1.0, 2.0))
        with pytest.raises(ValueError):
            ScalingSeries("x", ("a",), (2.0,))  # not normalized
