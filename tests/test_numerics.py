"""Tests for bf16/int8 numerics and error metrics (Lesson 7/10 substrate)."""

import numpy as np
import pytest

from repro.numerics import (
    BF16_EPS,
    QuantParams,
    bf16_matmul,
    calibrate,
    dequantize,
    int8_matmul,
    quality_loss_proxy,
    quantize,
    snr_db,
    to_bf16,
)
from repro.numerics.bfloat16 import is_bf16_exact
from repro.util.rng import DeterministicRng


def reference_to_bf16(values):
    """The straightforward bf16 rounding ``to_bf16`` must match bit for
    bit: every step allocates a new array."""
    arr = np.asarray(values, dtype=np.float32)
    bits = arr.view(np.uint32)
    lsb = (bits >> 16) & 1
    rounded = bits + 0x7FFF + lsb
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32)
    out = np.where(np.isnan(arr), arr, out)
    return out.astype(np.float32)


class TestBfloat16:
    def test_bit_identical_to_reference(self):
        bits = np.random.default_rng(0).integers(
            0, 2**32, size=1 << 16, dtype=np.uint32)
        bits[:10] = [0x7FC00000, 0x7FC00001, 0xFFFFFFFF, 0x7F800001,
                     0x7F800000, 0xFF800000, 0x7F7FFFFF, 0x00000001,
                     0x807FFFFF, 0x00008000]
        values = bits.view(np.float32)
        before = values.copy()
        for case in (values, values[::3], values.reshape(256, 256).T):
            out = to_bf16(case)
            want = reference_to_bf16(case)
            assert out.dtype == np.float32 and out.shape == want.shape
            assert np.array_equal(out.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(values.view(np.uint32), before.view(np.uint32))

    @pytest.mark.parametrize("word", [0x3F808000, 0x7FC00123, 0xFF800000,
                                      0x00000003, 0x7F7FFFFF])
    def test_zero_d_input(self, word):
        value = np.array(word, dtype=np.uint32).view(np.float32)
        out = to_bf16(value)
        assert out.shape == () and out.dtype == np.float32
        assert out.view(np.uint32) == reference_to_bf16(value).view(np.uint32)

    def test_exact_values_pass_through(self):
        vals = np.array([0.0, 1.0, -2.0, 0.5, 256.0], dtype=np.float32)
        assert np.array_equal(to_bf16(vals), vals)

    def test_rounding_error_bounded_by_eps(self):
        rng = DeterministicRng(1)
        vals = rng.normal_array((1000,))
        err = np.abs(to_bf16(vals) - vals)
        assert np.all(err <= BF16_EPS * np.abs(vals) + 1e-30)

    def test_round_to_nearest_even(self):
        # 1 + eps/2 is exactly between 1.0 and 1+eps; ties go to even (1.0).
        val = np.float32(1.0 + BF16_EPS / 2)
        assert to_bf16(np.array([val]))[0] == np.float32(1.0)

    def test_nan_preserved(self):
        out = to_bf16(np.array([np.nan], dtype=np.float32))
        assert np.isnan(out[0])

    def test_idempotent(self):
        rng = DeterministicRng(2)
        once = to_bf16(rng.normal_array((100,)))
        assert np.array_equal(to_bf16(once), once)

    def test_is_bf16_exact(self):
        assert is_bf16_exact(np.array([1.0], dtype=np.float32))[0]
        assert not is_bf16_exact(np.array([1.0 + BF16_EPS / 3],
                                          dtype=np.float32))[0]

    def test_matmul_deterministic_across_calls(self):
        """The Lesson 10 property: identical bits every time."""
        rng = DeterministicRng(3)
        a, b = rng.normal_array((32, 32)), rng.normal_array((32, 32))
        assert np.array_equal(bf16_matmul(a, b), bf16_matmul(a, b))

    def test_matmul_close_to_fp32(self):
        rng = DeterministicRng(4)
        a, b = rng.normal_array((64, 64)), rng.normal_array((64, 64))
        assert snr_db(a @ b, bf16_matmul(a, b)) > 35


class TestInt8:
    def test_quantize_roundtrip_coarse(self):
        params = QuantParams(scale=0.1)
        vals = np.array([0.0, 1.0, -1.0, 5.0], dtype=np.float32)
        back = dequantize(quantize(vals, params), params)
        assert np.allclose(back, vals, atol=0.06)

    def test_saturation(self):
        params = QuantParams(scale=0.01)
        q = quantize(np.array([100.0, -100.0], dtype=np.float32), params)
        assert q.tolist() == [127, -127]

    def test_calibrate_percentile_clips_outliers(self):
        vals = np.concatenate([np.ones(10_000), [1000.0]]).astype(np.float32)
        full = calibrate(vals, percentile=100)
        clipped = calibrate(vals, percentile=99.9)
        assert clipped.scale < full.scale / 100

    def test_calibrate_validations(self):
        with pytest.raises(ValueError):
            calibrate(np.array([]))
        with pytest.raises(ValueError):
            calibrate(np.ones(4), percentile=0)

    def test_zero_tensor_calibrates(self):
        params = calibrate(np.zeros(16, dtype=np.float32))
        assert params.scale > 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0)

    def test_int8_matmul_approximates_fp32(self):
        rng = DeterministicRng(5)
        a, b = rng.normal_array((64, 64)), rng.normal_array((64, 64))
        out = int8_matmul(a, b, calibrate(a), calibrate(b))
        assert snr_db(a @ b, out) > 20

    def test_int8_noisier_than_bf16(self):
        """Lesson 7's quantitative core."""
        rng = DeterministicRng(6)
        a, b = rng.normal_array((64, 64)), rng.normal_array((64, 64))
        ref = a @ b
        assert (snr_db(ref, bf16_matmul(a, b))
                > snr_db(ref, int8_matmul(a, b, calibrate(a), calibrate(b))))


class TestErrorMetrics:
    def test_snr_identical_is_inf(self):
        x = np.ones(8)
        assert snr_db(x, x) == float("inf")

    def test_snr_shape_mismatch(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(3), np.ones(4))

    def test_quality_proxy_monotone(self):
        snrs = [50, 40, 30, 20, 10, 0]
        losses = [quality_loss_proxy(s) for s in snrs]
        assert losses == sorted(losses)
        assert losses[0] == 0.0
        assert losses[-1] <= 50.0
