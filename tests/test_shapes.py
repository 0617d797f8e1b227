"""Tests for graph shapes and dtypes."""

import pytest

from repro.graph import Shape
from repro.graph.shapes import (
    batched_matmul_result,
    conv2d_result,
    dtype,
    matmul_result,
    reduce_result,
)


class TestShape:
    def test_byte_size(self):
        assert Shape((128, 768), "bf16").byte_size == 128 * 768 * 2
        assert Shape((10,), "fp32").byte_size == 40
        assert Shape((10,), "int8").byte_size == 10

    def test_num_elements(self):
        assert Shape((2, 3, 4)).num_elements == 24

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Shape((0, 2))

    @pytest.mark.parametrize("dims", [(2.5, 4), (2.0, 16), (True, 4),
                                      (float("nan"), 2), (4, "8"), (-1, 3)],
                             ids=["float", "integral-float", "bool", "nan",
                                  "str", "negative"])
    def test_rejects_dims_that_are_not_positive_ints(self, dims):
        with pytest.raises(ValueError, match="positive integers") as err:
            Shape(dims)
        assert repr(dims) in str(err.value)

    def test_accepts_int_subclasses_but_not_bool(self):
        import enum

        class Width(enum.IntEnum):
            WIDE = 8

        assert Shape((Width.WIDE, 2)).num_elements == 16
        with pytest.raises(ValueError):
            Shape((False,))

    def test_sizes_are_computed_once_and_kept_out_of_equality(self):
        shape = Shape((2, 3), "fp32")
        assert (shape.num_elements, shape.byte_size) == (6, 24)
        assert Shape(()).num_elements == 1
        assert shape == Shape((2, 3), "fp32")
        assert hash(shape) == hash(Shape((2, 3), "fp32"))
        assert repr(shape) == "Shape(dims=(2, 3), dtype_name='fp32')"
        with pytest.raises(AttributeError):
            shape.num_elements = 7

    def test_rejects_unknown_dtype(self):
        with pytest.raises(KeyError):
            Shape((1,), "fp16")

    def test_with_dtype(self):
        s = Shape((4, 4), "bf16").with_dtype("int8")
        assert s.dtype_name == "int8"
        assert s.byte_size == 16

    def test_str(self):
        assert str(Shape((8, 128), "bf16")) == "bf16[8,128]"

    def test_int32_for_indices(self):
        assert not dtype("int32").is_float
        assert dtype("int32").size_bytes == 4


class TestMatmulInference:
    def test_basic(self):
        out = matmul_result(Shape((8, 256)), Shape((256, 64)))
        assert out.dims == (8, 64)

    def test_batched_lhs(self):
        out = matmul_result(Shape((2, 8, 256)), Shape((256, 64)))
        assert out.dims == (2, 8, 64)

    def test_contraction_mismatch(self):
        with pytest.raises(ValueError):
            matmul_result(Shape((8, 256)), Shape((128, 64)))

    def test_dtype_mismatch(self):
        with pytest.raises(ValueError):
            matmul_result(Shape((8, 256), "bf16"), Shape((256, 64), "int8"))

    def test_batched_dot(self):
        out = batched_matmul_result(Shape((96, 128, 64)), Shape((96, 64, 128)))
        assert out.dims == (96, 128, 128)

    def test_batched_dot_batch_mismatch(self):
        with pytest.raises(ValueError):
            batched_matmul_result(Shape((96, 128, 64)), Shape((12, 64, 128)))


class TestConvInference:
    def test_same_padding(self):
        out = conv2d_result(Shape((8, 224, 224, 3)), Shape((7, 7, 3, 64)),
                            stride=2, padding="same")
        assert out.dims == (8, 112, 112, 64)

    def test_valid_padding(self):
        out = conv2d_result(Shape((1, 10, 10, 4)), Shape((3, 3, 4, 8)),
                            stride=1, padding="valid")
        assert out.dims == (1, 8, 8, 8)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_result(Shape((1, 8, 8, 4)), Shape((3, 3, 5, 8)), 1, "same")

    def test_bad_padding(self):
        with pytest.raises(ValueError):
            conv2d_result(Shape((1, 8, 8, 4)), Shape((3, 3, 4, 8)), 1, "full")

    def test_filter_too_big_for_valid(self):
        with pytest.raises(ValueError):
            conv2d_result(Shape((1, 2, 2, 4)), Shape((3, 3, 4, 8)), 1, "valid")


class TestReduceInference:
    def test_drops_axis(self):
        assert reduce_result(Shape((4, 5, 6)), 1).dims == (4, 6)

    def test_negative_axis(self):
        assert reduce_result(Shape((4, 5)), -1).dims == (4,)

    def test_rank0_becomes_scalar_vector(self):
        assert reduce_result(Shape((7,)), 0).dims == (1,)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_result(Shape((4,)), 2)
