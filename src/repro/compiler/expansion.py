"""Composite expansion: softmax and layernorm become primitive sequences.

Expansion happens before fusion so the fuser sees the real elementwise and
reduction structure (and can, e.g., fuse the exp into the preceding matmul's
epilogue). The expansions follow the standard numerically-stable recipes:

    softmax(x)   = exp(x - max(x)) / sum(exp(x - max(x)))
    layernorm(x) = (x - mean(x)) * rsqrt(var(x) + eps) * gamma + beta
"""

from __future__ import annotations

from typing import Dict

from repro.graph.hlo import HloInstruction, HloModule
from repro.graph.shapes import Shape, reduce_result


def _broadcast_back(module: HloModule, reduced: HloInstruction,
                    like: HloInstruction, name: str) -> HloInstruction:
    """Re-expand a reduced tensor to ``like``'s shape (a free shape op).

    The reduced tensor's dims are a prefix of the target's; the broadcast
    repeats it along the trailing (reduced-away) axis.
    """
    return module.add("broadcast", like.shape, (reduced,), name=name)


def _expand_softmax(module: HloModule, operand: HloInstruction,
                    name: str) -> HloInstruction:
    axis = operand.shape.rank - 1
    row_max = module.add("reduce_max", reduce_result(operand.shape, axis),
                         (operand,), name=f"{name}.max", axis=axis)
    row_max_b = _broadcast_back(module, row_max, operand, f"{name}.max.b")
    shifted = module.add("sub", operand.shape, (operand, row_max_b),
                         name=f"{name}.shift")
    exped = module.add("exp", operand.shape, (shifted,), name=f"{name}.exp")
    denom = module.add("reduce_sum", reduce_result(operand.shape, axis),
                       (exped,), name=f"{name}.sum", axis=axis)
    denom_b = _broadcast_back(module, denom, operand, f"{name}.sum.b")
    return module.add("div", operand.shape, (exped, denom_b), name=f"{name}.div")


def _expand_layernorm(module: HloModule, operand: HloInstruction,
                      name: str) -> HloInstruction:
    axis = operand.shape.rank - 1
    feature = operand.shape.dims[-1]
    total = module.add("reduce_sum", reduce_result(operand.shape, axis),
                       (operand,), name=f"{name}.sum", axis=axis)
    mean = module.add("scale", total.shape, (total,), name=f"{name}.mean",
                      factor=1.0 / feature)
    mean_b = _broadcast_back(module, mean, operand, f"{name}.mean.b")
    centered = module.add("sub", operand.shape, (operand, mean_b),
                          name=f"{name}.center")
    squared = module.add("mul", operand.shape, (centered, centered),
                         name=f"{name}.sq")
    sq_total = module.add("reduce_sum", reduce_result(operand.shape, axis),
                          (squared,), name=f"{name}.sqsum", axis=axis)
    var = module.add("scale", sq_total.shape, (sq_total,),
                     name=f"{name}.var", factor=1.0 / feature)
    var_b = _broadcast_back(module, var, operand, f"{name}.var.b")
    inv = module.add("rsqrt", operand.shape, (var_b,), name=f"{name}.rsqrt")
    normed = module.add("mul", operand.shape, (centered, inv),
                        name=f"{name}.norm")
    gamma = module.add("constant", Shape((feature,), operand.shape.dtype_name),
                       name=f"{name}.gamma")
    scaled = module.add("mul", operand.shape, (normed, gamma),
                        name=f"{name}.scale")
    beta = module.add("constant", Shape((feature,), operand.shape.dtype_name),
                      name=f"{name}.beta")
    return module.add("add", operand.shape, (scaled, beta), name=f"{name}.bias")


def expand_composites(module: HloModule) -> HloModule:
    """Return a new module with every composite replaced by primitives.

    Non-composite instructions are copied over (with fresh uids); operand
    references are remapped through the copies.
    """
    out = HloModule(module.name)
    mapping: Dict[int, HloInstruction] = {}

    for inst in module.instructions:
        operands = tuple(mapping[o.uid] for o in inst.operands)
        if inst.opcode == "softmax":
            label = inst.name or f"softmax{inst.uid}"
            mapping[inst.uid] = _expand_softmax(out, operands[0], label)
        elif inst.opcode == "layernorm":
            label = inst.name or f"layernorm{inst.uid}"
            mapping[inst.uid] = _expand_layernorm(out, operands[0], label)
        else:
            mapping[inst.uid] = out.add_copy(inst, inst.shape, operands)

    out.set_root(mapping[module.root.uid])
    out.validate()
    return out
