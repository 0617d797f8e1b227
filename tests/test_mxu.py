"""Tests for the MXU timing model."""

import pytest

from repro.arch import MxuModel, TPUV1, TPUV4I


@pytest.fixture(scope="module")
def mxu():
    return MxuModel(TPUV4I)


class TestMatmulTiming:
    def test_big_square_near_ideal(self, mxu):
        t = mxu.matmul(4096, 4096, 4096)
        assert t.utilization > 0.9

    def test_small_batch_starves_array(self, mxu):
        """m << d is the LSTM regime: weight loads dominate."""
        t = mxu.matmul(8, 1024, 1024)
        assert t.utilization < 0.15
        assert t.weight_load_cycles > 0

    def test_utilization_monotone_in_m(self, mxu):
        utils = [mxu.matmul(m, 1024, 1024).utilization
                 for m in (8, 32, 128, 512, 2048)]
        assert utils == sorted(utils)

    def test_macs_counted_exactly(self, mxu):
        t = mxu.matmul(100, 200, 300)
        assert t.macs == 100 * 200 * 300

    def test_tile_count(self, mxu):
        t = mxu.matmul(256, 256, 256)
        assert t.tiles == 4  # 2 K-tiles x 2 N-tiles

    def test_ragged_dims_round_up(self, mxu):
        t = mxu.matmul(1, 129, 129)
        assert t.tiles == 4

    def test_cycles_at_least_ideal(self, mxu):
        for dims in ((1, 1, 1), (128, 128, 128), (1000, 3000, 170)):
            t = mxu.matmul(*dims)
            assert t.cycles >= t.ideal_cycles

    def test_arrays_speed_up(self):
        one = MxuModel(TPUV4I.variant("x", mxus_per_core=1)).matmul(512, 2048, 2048)
        four = MxuModel(TPUV4I).matmul(512, 2048, 2048)
        assert one.cycles == pytest.approx(4 * four.cycles, rel=0.05)

    def test_rejects_nonpositive(self, mxu):
        with pytest.raises(ValueError):
            mxu.matmul(0, 128, 128)

    def test_v1_bigger_array(self):
        v1 = MxuModel(TPUV1)
        # A 256-deep matmul fits one v1 tile but four v4i tiles.
        assert v1.matmul(512, 256, 256).tiles == 1
