"""Tests for repro.arch.chip: the four generations' published peaks."""

import dataclasses

import numpy as np
import pytest

from repro.arch import GENERATIONS, TPUV1, TPUV2, TPUV3, TPUV4I, chip_by_name
from repro.util.units import GIB, MIB, TERA


class TestPublishedPeaks:
    """The paper's Table 1 headline numbers, asserted to ~1%."""

    def test_tpuv1_92_tops_int8(self):
        assert TPUV1.peak_tops == pytest.approx(91.75, rel=0.01)

    def test_tpuv2_46_tflops(self):
        assert TPUV2.peak_tops == pytest.approx(45.9, rel=0.01)

    def test_tpuv3_123_tflops(self):
        assert TPUV3.peak_tops == pytest.approx(123.2, rel=0.01)

    def test_tpuv4i_138_tops(self):
        assert TPUV4I.peak_tops == pytest.approx(137.6, rel=0.01)

    def test_tpuv4i_cmem_128_mib(self):
        assert TPUV4I.cmem_bytes == 128 * MIB

    def test_tpuv4i_air_cooled_175w(self):
        assert TPUV4I.cooling == "air"
        assert TPUV4I.tdp_w == 175.0

    def test_tpuv3_liquid_cooled(self):
        assert TPUV3.cooling == "liquid"

    def test_generation_order(self):
        assert [c.generation for c in GENERATIONS] == [1, 2, 3, 4]
        years = [c.year_deployed for c in GENERATIONS]
        assert years == sorted(years)

    def test_only_v1_lacks_bf16(self):
        assert not TPUV1.supports_dtype("bf16")
        for chip in (TPUV2, TPUV3, TPUV4I):
            assert chip.supports_dtype("bf16")

    def test_v4i_supports_int8_and_bf16(self):
        """Lesson 7: the inference chip keeps floating point."""
        assert TPUV4I.supports_dtype("int8")
        assert TPUV4I.supports_dtype("bf16")


class TestDerivedProperties:
    def test_macs_per_cycle(self):
        assert TPUV4I.macs_per_cycle == 4 * 128 * 128
        assert TPUV1.macs_per_cycle == 256 * 256

    def test_on_chip_bytes_includes_cmem(self):
        assert TPUV4I.on_chip_bytes == TPUV4I.vmem_bytes + 128 * MIB

    def test_ridge_point_v4i(self):
        ridge = TPUV4I.ridge_ops_per_byte()
        assert ridge == pytest.approx(TPUV4I.peak_ops / TPUV4I.hbm_bw)
        assert 150 < ridge < 300

    def test_lookup(self):
        assert chip_by_name("TPUv4i") is TPUV4I
        with pytest.raises(KeyError):
            chip_by_name("TPUv5")

    def test_variant_overrides(self):
        v = TPUV4I.variant("test", mxus_per_core=8)
        assert v.name == "test"
        assert v.peak_tops == pytest.approx(2 * TPUV4I.peak_tops)
        assert TPUV4I.mxus_per_core == 4  # original untouched


class TestValidation:
    def test_bad_cooling(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TPUV4I, cooling="fans")

    def test_idle_below_tdp(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TPUV4I, idle_w=200.0)

    def test_needs_dtypes(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TPUV4I, dtypes=())


class TestCanonicalNumbers:
    """Equal configs store one numeric form, so their cache keys agree."""

    def test_float_fields_store_floats(self):
        chip = TPUV4I.variant("x", clock_hz=10**9, tdp_w=175, die_mm2=400)
        assert type(chip.clock_hz) is float and chip.clock_hz == 1e9
        assert type(chip.tdp_w) is float and type(chip.die_mm2) is float
        assert chip == TPUV4I.variant("x", clock_hz=1e9, tdp_w=175.0,
                                      die_mm2=400.0)

    def test_int_fields_store_ints(self):
        chip = TPUV4I.variant("x", cmem_bytes=64.0 * MIB, cores=np.int64(1))
        assert type(chip.cmem_bytes) is int and chip.cmem_bytes == 64 * MIB
        assert type(chip.cores) is int

    def test_numpy_floats_store_floats(self):
        chip = TPUV4I.variant("x", clock_hz=np.float64(1e9))
        assert type(chip.clock_hz) is float

    def test_negative_zero_is_zero(self):
        chip = TPUV4I.variant("x", cmem_bw=-0.0)
        assert str(chip.cmem_bw) == "0.0"

    @pytest.mark.parametrize("field,value", [
        ("cmem_bytes", 1.5), ("cores", True), ("tdp_w", True),
        ("clock_hz", "1GHz"), ("vmem_bytes", float("inf")),
        ("mxu_dim", None)])
    def test_bad_numbers_are_named(self, field, value):
        with pytest.raises(ValueError, match=f"ChipConfig.{field} "):
            TPUV4I.variant("x", **{field: value})
