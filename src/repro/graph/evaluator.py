"""Functional execution of HLO modules with chip arithmetic semantics.

The timing simulator (`repro.sim`) answers "how fast"; this evaluator
answers "what bits". It executes a module with numpy, applying the target
arithmetic after every operation:

* ``"fp32"`` — reference semantics;
* ``"bf16"`` — operands and results round to bfloat16, matmuls accumulate
  in fp32 (MXU semantics, identical on TPUv2/v3/v4i — Lesson 10's
  bit-exactness is checked end-to-end on real models with this);
* ``"int8"`` — matmul operands quantize per-tensor (calibrated on the
  actual values), accumulate in int32; elementwise math runs in fp32 on
  dequantized values (how int8 NPUs actually execute nonlinearities).

Weights and inputs not supplied explicitly are generated deterministically
from the instruction uid, so two evaluations of the same module always see
the same tensors. An evaluator draws each default weight once and keeps
it, rounded and read-only, for every later run (a server's weights stay
resident between requests).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.graph.hlo import HloInstruction, HloModule
from repro.numerics.bfloat16 import to_bf16
from repro.numerics.int8 import calibrate, int8_matmul
from repro.util.rng import DeterministicRng

ARITHMETICS = ("fp32", "bf16", "int8")

_UNARY_FNS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "exp": np.exp,
    "rsqrt": lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-12)),
    "erf": lambda x: np.vectorize(math.erf, otypes=[np.float32])(x),
    "gelu": lambda x: 0.5 * x * (1.0 + np.tanh(
        0.7978845608 * (x + 0.044715 * x**3))),
    "convert": lambda x: x,
}

_BINARY_FNS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": lambda a, b: a / np.where(np.abs(b) < 1e-12, 1e-12, b),
    "max": np.maximum,
    "min": np.minimum,
}


class Evaluator:
    """Executes one module under one arithmetic."""

    def __init__(self, module: HloModule, arithmetic: str = "bf16", *,
                 seed: int = 0) -> None:
        if arithmetic not in ARITHMETICS:
            raise ValueError(
                f"arithmetic must be one of {ARITHMETICS}, got {arithmetic!r}")
        module.validate()
        self.module = module
        self.arithmetic = arithmetic
        self.seed = seed
        self._values: Dict[int, np.ndarray] = {}
        #: uid -> the rounded, read-only default of an unsupplied weight.
        self._default_weights: Dict[int, np.ndarray] = {}

    # ----------------------------------------------------------- data supply

    def _default_tensor(self, inst: HloInstruction) -> np.ndarray:
        rng = DeterministicRng(self.seed).fork(inst.uid + 1)
        if inst.shape.dtype_name == "int32":
            size = inst.shape.num_elements
            flat = np.array([rng.integers(0, 1000) for _ in range(size)],
                            dtype=np.int64)
            return flat.reshape(inst.shape.dims)
        # Small scale keeps deep nets numerically tame.
        scale = 1.0 / math.sqrt(max(1, inst.shape.dims[-1]))
        return rng.normal_array(inst.shape.dims, scale=scale)

    def _default_weight(self, inst: HloInstruction) -> np.ndarray:
        """The rounded default tensor of weight ``inst``, drawn on first
        use and kept read-only for every later run."""
        value = self._default_weights.get(inst.uid)
        if value is None:
            value = self._round(self._default_tensor(inst))
            value.flags.writeable = False
            self._default_weights[inst.uid] = value
        return value

    def _round(self, value: np.ndarray) -> np.ndarray:
        """Apply the arithmetic's storage rounding to an activation."""
        if value.dtype.kind in "iu":
            return value
        if self.arithmetic == "bf16":
            return to_bf16(value)
        return value.astype(np.float32)

    # ------------------------------------------------------------- execution

    def run(self, inputs: Optional[Mapping[str, np.ndarray]] = None,
            weights: Optional[Mapping[str, np.ndarray]] = None) -> np.ndarray:
        """Execute the module; returns the root tensor.

        ``inputs``/``weights`` map instruction *names* to arrays; anything
        unnamed or missing gets the deterministic default tensor.
        """
        inputs = dict(inputs or {})
        weights = dict(weights or {})
        self._values.clear()
        for inst in self.module.instructions:
            self._values[inst.uid] = self._execute(inst, inputs, weights)
        return self._values[self.module.root.uid]

    def _execute(self, inst: HloInstruction, inputs: Mapping[str, np.ndarray],
                 weights: Mapping[str, np.ndarray]) -> np.ndarray:
        operands = [self._values[o.uid] for o in inst.operands]
        op = inst.opcode

        if op == "parameter":
            supplied = inputs.get(inst.name)
            value = (np.asarray(supplied, dtype=np.float32)
                     if supplied is not None and inst.shape.dtype.is_float
                     else supplied)
            if value is None:
                value = self._default_tensor(inst)
            if tuple(np.shape(value)) != inst.shape.dims:
                raise ValueError(
                    f"input {inst.name!r}: expected {inst.shape.dims}, got "
                    f"{np.shape(value)}")
            return self._round(np.asarray(value))
        if op == "constant":
            supplied = weights.get(inst.name)
            if supplied is None:
                return self._default_weight(inst)
            value = np.asarray(supplied, dtype=np.float32)
            if tuple(value.shape) != inst.shape.dims:
                raise ValueError(
                    f"weight {inst.name!r}: expected {inst.shape.dims}, got "
                    f"{value.shape}")
            return self._round(value)

        if op in ("dot", "batched_dot"):
            return self._matmul(operands[0], operands[1], batched=(op == "batched_dot"))
        if op == "conv2d":
            return self._conv2d(inst, operands[0], operands[1])

        if op == "scale":
            factor = float(inst.attr("factor", 1.0))
            return self._round(operands[0].astype(np.float32) * factor)
        if op in _UNARY_FNS:
            return self._round(_UNARY_FNS[op](operands[0].astype(np.float32)))
        if op in _BINARY_FNS:
            a, b = operands
            if b.shape != a.shape:  # bias broadcast over the last axis
                b = np.broadcast_to(b, a.shape)
            return self._round(_BINARY_FNS[op](a.astype(np.float32),
                                               b.astype(np.float32)))

        if op in ("reduce_sum", "reduce_max"):
            axis = int(inst.attr("axis", operands[0].ndim - 1))
            fn = np.sum if op == "reduce_sum" else np.max
            out = fn(operands[0].astype(np.float32), axis=axis)
            if out.ndim == 0:
                out = out.reshape((1,))
            return self._round(out)

        if op == "softmax":
            x = operands[0].astype(np.float32)
            shifted = x - np.max(x, axis=-1, keepdims=True)
            exped = np.exp(shifted)
            return self._round(exped / np.sum(exped, axis=-1, keepdims=True))
        if op == "layernorm":
            x = operands[0].astype(np.float32)
            mean = np.mean(x, axis=-1, keepdims=True)
            var = np.var(x, axis=-1, keepdims=True)
            return self._round((x - mean) / np.sqrt(var + 1e-6))

        if op == "max_pool2d":
            return self._max_pool(inst, operands[0])

        if op == "embedding_lookup":
            table, ids = operands
            return self._round(table[np.clip(ids.astype(np.int64), 0,
                                             table.shape[0] - 1)])

        if op == "reshape":
            return operands[0].reshape(inst.shape.dims)
        if op == "broadcast":
            value = operands[0]
            while value.ndim < len(inst.shape.dims):
                value = value[..., np.newaxis]
            return np.broadcast_to(value, inst.shape.dims)
        if op == "transpose":
            perm = inst.attr("perm")
            return np.transpose(operands[0], perm)
        if op == "concat":
            axis = int(inst.attr("axis", 0))
            return np.concatenate(operands, axis=axis)
        if op == "slice":
            offset = int(inst.attr("offset", 0))
            axis = int(inst.attr("axis", operands[0].ndim - 1))
            width = inst.shape.dims[axis]
            start = offset * width
            indexer = [slice(None)] * operands[0].ndim
            indexer[axis] = slice(start, start + width)
            return operands[0][tuple(indexer)]

        raise NotImplementedError(f"evaluator has no rule for {op!r}")

    # ------------------------------------------------------------- matmuls

    def _matmul(self, lhs: np.ndarray, rhs: np.ndarray, *,
                batched: bool) -> np.ndarray:
        a = lhs.astype(np.float32)
        b = rhs.astype(np.float32)
        if self.arithmetic == "fp32":
            return a @ b
        if self.arithmetic == "bf16":
            return self._round(to_bf16(a) @ to_bf16(b))
        # int8: per-tensor calibration on the live values.
        if batched:
            out = np.empty((a.shape[0], a.shape[1], b.shape[2]),
                           dtype=np.float32)
            for i in range(a.shape[0]):
                out[i] = int8_matmul(a[i], b[i], calibrate(a[i]),
                                     calibrate(b[i]))
            return out
        flat_a = a.reshape(-1, a.shape[-1])
        out = int8_matmul(flat_a, b, calibrate(flat_a), calibrate(b))
        return out.reshape(a.shape[:-1] + (b.shape[-1],))

    def _max_pool(self, inst: HloInstruction, image: np.ndarray) -> np.ndarray:
        """Windowed spatial max with 'same' padding (pad value -inf)."""
        window = int(inst.attr("window", 2))
        stride = int(inst.attr("stride", 2))
        n, h, w, c = image.shape
        out_n, out_h, out_w, _ = inst.shape.dims
        pad_h = max(0, (out_h - 1) * stride + window - h)
        pad_w = max(0, (out_w - 1) * stride + window - w)
        padded = np.pad(image.astype(np.float32),
                        ((0, 0),
                         (pad_h // 2, pad_h - pad_h // 2),
                         (pad_w // 2, pad_w - pad_w // 2),
                         (0, 0)),
                        constant_values=-np.inf)
        out = np.empty((n, out_h, out_w, c), dtype=np.float32)
        for y in range(out_h):
            for x in range(out_w):
                patch = padded[:, y * stride:y * stride + window,
                               x * stride:x * stride + window, :]
                out[:, y, x, :] = patch.max(axis=(1, 2))
        return self._round(out)

    def _conv2d(self, inst: HloInstruction, image: np.ndarray,
                filt: np.ndarray) -> np.ndarray:
        """im2col + matmul (matching how the hardware executes it)."""
        stride = int(inst.attr("stride", 1))
        padding = str(inst.attr("padding", "same"))
        n, h, w, cin = image.shape
        kh, kw, _, cout = filt.shape
        out_n, out_h, out_w, _ = inst.shape.dims

        if padding == "same":
            pad_h = max(0, (out_h - 1) * stride + kh - h)
            pad_w = max(0, (out_w - 1) * stride + kw - w)
            image = np.pad(image.astype(np.float32),
                           ((0, 0),
                            (pad_h // 2, pad_h - pad_h // 2),
                            (pad_w // 2, pad_w - pad_w // 2),
                            (0, 0)))
        cols = np.empty((n, out_h, out_w, kh * kw * cin), dtype=np.float32)
        for y in range(out_h):
            for x in range(out_w):
                patch = image[:, y * stride:y * stride + kh,
                              x * stride:x * stride + kw, :]
                cols[:, y, x, :] = patch.reshape(n, -1)
        flat = cols.reshape(-1, kh * kw * cin)
        kernel = filt.astype(np.float32).reshape(-1, cout)
        out = self._matmul(flat, kernel, batched=False)
        return out.reshape(n, out_h, out_w, cout)


def evaluate_module(module: HloModule, arithmetic: str = "bf16", *,
                    seed: int = 0,
                    inputs: Optional[Mapping[str, np.ndarray]] = None,
                    weights: Optional[Mapping[str, np.ndarray]] = None
                    ) -> np.ndarray:
    """One-shot functional execution; see :class:`Evaluator`."""
    return Evaluator(module, arithmetic, seed=seed).run(inputs, weights)
