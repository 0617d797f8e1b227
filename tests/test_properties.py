"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch import MxuModel, TPUV4I, VpuModel
from repro.graph import Shape
from repro.isa import (
    Bundle,
    Instruction,
    Opcode,
    Program,
    decode_program,
    encode_program,
)
from repro.numerics import (
    QuantParams,
    calibrate,
    dequantize,
    quantize,
    snr_db,
    to_bf16,
)
from repro.serving import percentile
from repro.tco import die_yield, dies_per_wafer
from repro.tech import node_by_name

dims = st.integers(min_value=1, max_value=4096)
small_floats = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False, width=32)


class TestMxuInvariants:
    @given(m=dims, k=dims, n=dims)
    @settings(max_examples=150, deadline=None)
    def test_cycles_bounded_and_macs_exact(self, m, k, n):
        t = MxuModel(TPUV4I).matmul(m, k, n)
        assert t.macs == m * k * n
        assert t.ideal_cycles <= t.cycles
        assert 0 < t.utilization <= 1.0

    @given(m=dims, k=dims, n=dims)
    @settings(max_examples=60, deadline=None)
    def test_doubling_m_never_reduces_cycles(self, m, k, n):
        mxu = MxuModel(TPUV4I)
        assert mxu.matmul(2 * m, k, n).cycles >= mxu.matmul(m, k, n).cycles


class TestVpuInvariants:
    @given(elements=st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=100, deadline=None)
    def test_cycles_monotone_nonnegative(self, elements):
        vpu = VpuModel(TPUV4I)
        t = vpu.elementwise("add", elements)
        assert t.cycles >= 0
        assert t.cycles <= elements + 1


class TestBf16Properties:
    @given(st.lists(small_floats, min_size=1, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, values):
        arr = np.array(values, dtype=np.float32)
        once = to_bf16(arr)
        assert np.array_equal(to_bf16(once), once)

    @given(st.lists(small_floats, min_size=1, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_relative_error_bounded(self, values):
        arr = np.array(values, dtype=np.float32)
        out = to_bf16(arr)
        err = np.abs(out - arr)
        assert np.all(err <= np.abs(arr) * 2.0**-8 + 1e-30)

    @given(st.lists(small_floats, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, values):
        """bf16 rounding preserves order (weak monotonicity)."""
        arr = np.sort(np.array(values, dtype=np.float32))
        out = to_bf16(arr)
        assert np.all(np.diff(out) >= 0)


class TestInt8Properties:
    @given(values=st.lists(small_floats.filter(lambda x: abs(x) > 1e-3),
                           min_size=4, max_size=200),
           scale_pct=st.floats(min_value=90.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_quantize_within_clip(self, values, scale_pct):
        arr = np.array(values, dtype=np.float32)
        params = calibrate(arr, percentile=scale_pct)
        q = quantize(arr, params)
        assert np.all(q >= -127) and np.all(q <= 127)
        back = dequantize(q, params)
        # Error bounded by half a step plus saturation of clipped outliers.
        step = params.scale
        clip = 127 * step
        expected = np.clip(arr, -clip, clip)
        assert np.all(np.abs(back - expected) <= step / 2 + 1e-6 * np.abs(arr))


class TestEncodingProperties:
    opcode_pool = [Opcode.VADD, Opcode.VEXP, Opcode.MXM, Opcode.DMA_IN,
                   Opcode.SYNC_WAIT, Opcode.HALT]

    @given(st.lists(
        st.sampled_from(opcode_pool).flatmap(
            lambda op: st.tuples(
                st.just(op),
                st.lists(st.integers(min_value=0, max_value=2**20),
                         min_size=op.arity, max_size=op.arity))),
        min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, instruction_specs):
        program = Program("prop", 4, [Bundle((Instruction(op, tuple(args)),))
                                      for op, args in instruction_specs])
        decoded = decode_program(encode_program(program), 4)
        assert [str(b) for b in decoded.bundles] == [
            str(b) for b in program.bundles]


class TestShapeProperties:
    @given(dims_list=st.lists(st.integers(min_value=1, max_value=64),
                              min_size=1, max_size=4),
           dtype=st.sampled_from(["int8", "bf16", "fp32"]))
    @settings(max_examples=100, deadline=None)
    def test_byte_size_consistent(self, dims_list, dtype):
        shape = Shape(tuple(dims_list), dtype)
        assert shape.byte_size == shape.num_elements * shape.dtype.size_bytes
        assert shape.num_elements >= 1


class TestPercentileProperties:
    @given(values=st.lists(st.floats(min_value=0, max_value=1e6,
                                     allow_nan=False),
                           min_size=1, max_size=500),
           pct=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_percentile_is_an_element_and_bounded(self, values, pct):
        p = percentile(values, pct)
        assert p in values
        assert min(values) <= p <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_pct(self, values):
        assert (percentile(values, 50) <= percentile(values, 95)
                <= percentile(values, 99))


class TestYieldProperties:
    @given(area=st.floats(min_value=10, max_value=800),
           node_name=st.sampled_from(["28nm", "16nm", "7nm"]))
    @settings(max_examples=100, deadline=None)
    def test_yield_and_dies_sane(self, area, node_name):
        node = node_by_name(node_name)
        assert 0 < die_yield(node, area) <= 1
        assert dies_per_wafer(area) >= 1
