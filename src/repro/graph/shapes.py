"""Tensor shapes and data types for the graph IR."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class DType:
    """An arithmetic type: name, bytes per element, float/integer flag."""

    name: str
    size_bytes: int
    is_float: bool


DTYPES: Dict[str, DType] = {
    "int8": DType("int8", 1, False),
    "int32": DType("int32", 4, False),  # indices (embedding ids), not MXU math
    "bf16": DType("bf16", 2, True),
    "fp32": DType("fp32", 4, True),
}


def dtype(name: str) -> DType:
    """Look up a dtype by name."""
    try:
        return DTYPES[name]
    except KeyError:
        known = ", ".join(sorted(DTYPES))
        raise KeyError(f"unknown dtype {name!r}; known: {known}") from None


@dataclass(frozen=True)
class Shape:
    """A tensor shape: dimensions plus element type.

    >>> Shape((128, 768), "bf16").byte_size
    196608
    """

    dims: Tuple[int, ...]
    dtype_name: str = "bf16"

    # ``num_elements`` and ``byte_size`` are plain attributes set once
    # here, not dataclass fields: they are read tens of thousands of
    # times per compile, and they stay out of repr, equality and hash.
    def __post_init__(self) -> None:
        for d in self.dims:
            exotic = type(d) is not int  # a bool, a float, an int subclass
            if (exotic and (isinstance(d, bool) or not isinstance(d, int))
                    or d <= 0):
                raise ValueError(
                    f"dimensions must be positive integers, got {self.dims}")
        size = dtype(self.dtype_name).size_bytes  # validates the name
        count = math.prod(self.dims)
        object.__setattr__(self, "num_elements", count)
        object.__setattr__(self, "byte_size", count * size)

    @property
    def dtype(self) -> DType:
        return DTYPES[self.dtype_name]

    @property
    def rank(self) -> int:
        return len(self.dims)

    def with_dtype(self, dtype_name: str) -> "Shape":
        return Shape(self.dims, dtype_name)

    def with_dims(self, dims: Tuple[int, ...]) -> "Shape":
        return Shape(dims, self.dtype_name)

    def __str__(self) -> str:
        return f"{self.dtype_name}[{','.join(str(d) for d in self.dims)}]"


def matmul_result(lhs: Shape, rhs: Shape) -> Shape:
    """Shape of ``lhs @ rhs``.

    ``lhs`` may have leading batch dims: ``[..., M, K] @ [K, N] -> [..., M, N]``.
    Mixed input dtypes are rejected; accumulate-and-cast is a separate convert.
    """
    if lhs.rank < 2 or rhs.rank != 2:
        raise ValueError(f"matmul needs [...,M,K] @ [K,N]; got {lhs} @ {rhs}")
    if lhs.dims[-1] != rhs.dims[0]:
        raise ValueError(f"contraction mismatch: {lhs} @ {rhs}")
    if lhs.dtype_name != rhs.dtype_name:
        raise ValueError(f"matmul dtype mismatch: {lhs} @ {rhs}")
    return Shape(lhs.dims[:-1] + (rhs.dims[1],), lhs.dtype_name)


def batched_matmul_result(lhs: Shape, rhs: Shape) -> Shape:
    """Shape of a batched matmul ``[B,M,K] @ [B,K,N] -> [B,M,N]``.

    Used for attention (scores and context), where *both* sides are
    activations and vary per batch/head.
    """
    if lhs.rank != 3 or rhs.rank != 3:
        raise ValueError(f"batched matmul needs [B,M,K] @ [B,K,N]; got {lhs} @ {rhs}")
    if lhs.dims[0] != rhs.dims[0]:
        raise ValueError(f"batch mismatch: {lhs} @ {rhs}")
    if lhs.dims[2] != rhs.dims[1]:
        raise ValueError(f"contraction mismatch: {lhs} @ {rhs}")
    if lhs.dtype_name != rhs.dtype_name:
        raise ValueError(f"batched matmul dtype mismatch: {lhs} @ {rhs}")
    return Shape((lhs.dims[0], lhs.dims[1], rhs.dims[2]), lhs.dtype_name)


def conv2d_result(input_shape: Shape, filter_shape: Shape,
                  stride: int, padding: str) -> Shape:
    """Shape of an NHWC conv with HWIO filters.

    ``padding`` is ``"same"`` (output spatial = ceil(in/stride)) or
    ``"valid"``.
    """
    if input_shape.rank != 4 or filter_shape.rank != 4:
        raise ValueError("conv2d needs NHWC input and HWIO filter")
    if padding not in ("same", "valid"):
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    if stride <= 0:
        raise ValueError("stride must be positive")
    n, h, w, c_in = input_shape.dims
    k_h, k_w, f_in, c_out = filter_shape.dims
    if f_in != c_in:
        raise ValueError(
            f"filter expects {f_in} input channels, input has {c_in}")
    if padding == "same":
        out_h = math.ceil(h / stride)
        out_w = math.ceil(w / stride)
    else:
        if h < k_h or w < k_w:
            raise ValueError("filter larger than input under 'valid' padding")
        out_h = (h - k_h) // stride + 1
        out_w = (w - k_w) // stride + 1
    return Shape((n, out_h, out_w, c_out), input_shape.dtype_name)


def pool_result(input_shape: Shape, window: int, stride: int) -> Shape:
    """Shape of a spatial max/avg pool over an NHWC tensor ('same' padding)."""
    if input_shape.rank != 4:
        raise ValueError("pooling needs an NHWC input")
    if window <= 0 or stride <= 0:
        raise ValueError("window and stride must be positive")
    n, h, w, c = input_shape.dims
    out_h = math.ceil(h / stride)
    out_w = math.ceil(w / stride)
    return Shape((n, out_h, out_w, c), input_shape.dtype_name)


def reduce_result(operand: Shape, axis: int) -> Shape:
    """Shape after reducing one axis away."""
    if not -operand.rank <= axis < operand.rank:
        raise ValueError(f"axis {axis} out of range for {operand}")
    axis %= operand.rank
    dims = operand.dims[:axis] + operand.dims[axis + 1:]
    return Shape(dims if dims else (1,), operand.dtype_name)
