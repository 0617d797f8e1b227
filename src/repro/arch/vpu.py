"""Timing model of the vector processing unit (VPU).

The VPU executes everything the MXU cannot: activations, normalization,
softmax, elementwise arithmetic, and reductions. Its throughput is
``lanes * sublanes * 2`` ops/cycle per core. Transcendentals (exp, tanh,
erf) run on a slower special-function path, which is why softmax-heavy
models (BERT's attention) show up below the roofline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.chip import ChipConfig

# Cost in ALU-op equivalents of one element of each vector operation class.
_OP_COST = {
    "add": 1.0,
    "sub": 1.0,
    "mul": 1.0,
    "max": 1.0,
    "min": 1.0,
    "select": 1.0,
    "compare": 1.0,
    "relu": 1.0,
    "div": 4.0,
    "rsqrt": 4.0,
    "exp": 6.0,
    "tanh": 8.0,
    "erf": 8.0,
    "sigmoid": 8.0,
    "gelu": 10.0,
    "reduce": 1.0,
    "copy": 0.5,
}


@dataclass(frozen=True)
class VectorTiming:
    """Cycle cost of a vector operation over ``elements`` elements."""

    cycles: int
    elements: int
    alu_ops: float


class VpuModel:
    """Per-core vector unit timing."""

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip
        self.ops_per_cycle = chip.vpu_lanes * chip.vpu_sublanes * 2

    def op_cost(self, op: str) -> float:
        """ALU-op equivalents per element for ``op``."""
        try:
            return _OP_COST[op]
        except KeyError:
            known = ", ".join(sorted(_OP_COST))
            raise KeyError(f"unknown vector op {op!r}; known: {known}") from None

    def elementwise(self, op: str, elements: int) -> VectorTiming:
        """Cycles for an elementwise op over ``elements`` values on one core."""
        if elements < 0:
            raise ValueError(f"elements must be non-negative, got {elements}")
        alu_ops = self.op_cost(op) * elements
        cycles = math.ceil(alu_ops / self.ops_per_cycle) if elements else 0
        return VectorTiming(cycles=cycles, elements=elements, alu_ops=alu_ops)

    def reduction(self, elements: int, axis_len: int) -> VectorTiming:
        """Cycles for a reduction: one pass plus a log-depth combine tree."""
        if elements < 0 or axis_len <= 0:
            raise ValueError("elements must be >= 0 and axis_len positive")
        base = self.elementwise("reduce", elements)
        tree_steps = max(1, math.ceil(math.log2(max(axis_len, 2))))
        return VectorTiming(
            cycles=base.cycles + tree_steps,
            elements=elements,
            alu_ops=base.alu_ops + tree_steps,
        )
