"""Tests for the VPU timing model."""

import pytest

from repro.arch import TPUV4I, VpuModel


@pytest.fixture(scope="module")
def vpu():
    return VpuModel(TPUV4I)


class TestElementwise:
    def test_ops_per_cycle(self, vpu):
        assert vpu.ops_per_cycle == TPUV4I.vpu_lanes * TPUV4I.vpu_sublanes * 2

    def test_add_one_element_one_cycle(self, vpu):
        assert vpu.elementwise("add", 1).cycles == 1

    def test_full_width_in_one_cycle(self, vpu):
        assert vpu.elementwise("add", vpu.ops_per_cycle).cycles == 1

    def test_transcendentals_cost_more(self, vpu):
        n = 100_000
        assert (vpu.elementwise("tanh", n).cycles
                > vpu.elementwise("exp", n).cycles
                > vpu.elementwise("add", n).cycles)

    def test_zero_elements_free(self, vpu):
        assert vpu.elementwise("mul", 0).cycles == 0

    def test_negative_rejected(self, vpu):
        with pytest.raises(ValueError):
            vpu.elementwise("add", -1)

    def test_unknown_op_lists_known(self, vpu):
        with pytest.raises(KeyError, match="gelu"):
            vpu.elementwise("frobnicate", 10)

    def test_cycles_scale_linearly(self, vpu):
        small = vpu.elementwise("add", 10_000).cycles
        large = vpu.elementwise("add", 100_000).cycles
        assert large == pytest.approx(10 * small, abs=1 + 10 * small * 0.05)


class TestReductionsAndSoftmax:
    def test_reduction_adds_tree_steps(self, vpu):
        base = vpu.elementwise("reduce", 4096).cycles
        red = vpu.reduction(4096, axis_len=4096).cycles
        assert red > base

    def test_reduction_validates(self, vpu):
        with pytest.raises(ValueError):
            vpu.reduction(10, 0)
