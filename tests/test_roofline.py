"""Tests for the roofline model (E7)."""

import pytest

from repro.arch import TPUV3, TPUV4I
from repro.roofline import Roofline, chip_roofline, place_module
from repro.workloads import app_by_name

from tests.conftest import make_tiny_mlp


class TestRoofline:
    def test_ridge_point(self):
        roof = Roofline("r", peak_ops=100.0, bandwidth=10.0)
        assert roof.ridge_ops_per_byte == 10.0

    def test_attainable_below_ridge_is_bandwidth(self):
        roof = Roofline("r", peak_ops=100.0, bandwidth=10.0)
        assert roof.attainable_ops(5.0) == 50.0
        assert roof.is_memory_bound(5.0)

    def test_attainable_above_ridge_is_peak(self):
        roof = Roofline("r", peak_ops=100.0, bandwidth=10.0)
        assert roof.attainable_ops(50.0) == 100.0
        assert not roof.is_memory_bound(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Roofline("r", 0, 1)
        with pytest.raises(ValueError):
            Roofline("r", 1, 1).attainable_ops(-1)

    def test_curve_monotone(self):
        roof = Roofline("r", 100.0, 10.0)
        values = [roof.attainable_tops(oi) for oi in (0.1, 1.0, 10.0, 100.0)]
        assert values == sorted(values)


class TestChipRooflines:
    def test_v4i_cmem_roof_above_hbm(self):
        hbm = chip_roofline(TPUV4I, "hbm")
        cmem = chip_roofline(TPUV4I, "cmem")
        assert cmem.ridge_ops_per_byte < hbm.ridge_ops_per_byte
        # At low intensity, CMEM attains far more.
        assert cmem.attainable_ops(10) > 4 * hbm.attainable_ops(10)

    def test_v3_has_no_cmem_roof(self):
        with pytest.raises(ValueError):
            chip_roofline(TPUV3, "cmem")

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            chip_roofline(TPUV4I, "l3")


class TestPlacement:
    def test_mlp_is_memory_bound_cnn_is_not(self):
        mlp = place_module(app_by_name("mlp0").build(32), TPUV4I)
        cnn = place_module(app_by_name("cnn0").build(8), TPUV4I)
        assert mlp.memory_bound_hbm
        assert not cnn.memory_bound_hbm

    def test_hit_fraction_blends(self):
        module = make_tiny_mlp(batch=2)
        full = place_module(module, TPUV4I, cmem_hit_fraction=1.0)
        none = place_module(module, TPUV4I, cmem_hit_fraction=0.0)
        assert full.attainable_tops_cmem >= none.attainable_tops_cmem

    def test_hit_fraction_validated(self):
        with pytest.raises(ValueError):
            place_module(make_tiny_mlp(), TPUV4I, cmem_hit_fraction=1.5)

    def test_no_cmem_chip_has_no_cmem_point(self):
        point = place_module(make_tiny_mlp(), TPUV3)
        assert point.attainable_tops_cmem is None
