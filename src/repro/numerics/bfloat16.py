"""Bit-accurate bfloat16 rounding and MXU-style bf16 matmul.

bfloat16 is fp32 with the mantissa truncated to 7 bits: same exponent
range, ~3 decimal digits. The MXU multiplies bf16 operands and accumulates
in fp32, which is what makes training-to-inference numerics reproducible
across generations (Lesson 10): the function below is *deterministic*, so
TPUv2, v3, and v4i produce identical bits for identical inputs.
"""

from __future__ import annotations

import numpy as np

# Machine epsilon of bf16 (8-bit significand including the hidden bit).
BF16_EPS = 2.0**-8


def to_bf16(values: np.ndarray) -> np.ndarray:
    """Round an fp32 array to bfloat16, returned as fp32 with bf16 precision.

    Uses round-to-nearest-even on the upper 16 bits of the IEEE-754
    encoding — the same rounding the TPU datapath applies.
    """
    out = np.array(values, dtype=np.float32)  # a fresh copy, rounded in place
    nan = np.isnan(out)
    nan_values = out[nan] if nan.any() else None
    bits = out.view(np.uint32)
    # Round to nearest even: add 0x7FFF plus the LSB of the kept part.
    carry = bits >> 16
    carry &= 1
    carry += 0x7FFF
    bits += carry
    bits &= 0xFFFF0000
    # NaNs must stay NaN (the rounding add can carry into the exponent).
    if nan_values is not None:
        out[nan] = nan_values
    return out


def bf16_matmul(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lhs @ rhs`` with bf16 operands and fp32 accumulation (MXU semantics)."""
    a = to_bf16(lhs).astype(np.float32)
    b = to_bf16(rhs).astype(np.float32)
    return a @ b


def is_bf16_exact(values: np.ndarray) -> np.ndarray:
    """Elementwise: is the fp32 value already exactly representable in bf16?"""
    arr = np.asarray(values, dtype=np.float32)
    return np.equal(arr, to_bf16(arr)) | np.isnan(arr)
