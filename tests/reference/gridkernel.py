"""Test-only oracle for the grid kernel's structure build.

:func:`build_struct` decodes a program position by position, one
instruction at a time: the structure build as it was before programs
carried runs. The production build
(:func:`repro.sim.gridkernel._build_struct`) decodes each distinct
bundle once and fills unit-only runs in closed form; it must give an
equal structure for every program (``tests/test_runs.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.isa.instructions import LEVEL_NAMES, Opcode, VECTOR_OP_CLASS
from repro.isa.program import Program
from repro.sim.gridkernel import (_H_DMA, _H_SET, _H_WAIT, _O_HARD, _O_MXU,
                                  _O_VPU, _Struct)


def build_struct(program: Program) -> _Struct:
    """One columnar pass over the program's bundles, position by
    position, statically truncated at the first HALT (execution is
    straight-line, so the rest is dead)."""
    shapes: Dict[tuple, int] = {}
    vecops: Dict[tuple, int] = {}
    order: List[int] = []
    mxu_shape: List[int] = []
    mxu_fixed: List[int] = []
    mxu_hidx: List[int] = []
    mxu_b: List[int] = []
    vec_id: List[int] = []
    vec_hidx: List[int] = []
    vec_b: List[int] = []
    h_type: List[int] = []
    h_arg: List[int] = []
    h_flag: List[int] = []
    h_level: List[Optional[str]] = []
    h_nb: List[int] = []
    dma_bytes: Dict[str, int] = {}
    dma_levels: List[str] = []

    n_flags = 0
    rows = 0
    bundles = 0
    scalar_ops = 0
    macs = 0
    vmem_elements = 0
    last_hard = -1
    bundles_at_last_hard = 0
    halted = False

    for bundle in program.bundles:
        if halted:
            break
        bundles += 1
        instructions = bundle.instructions
        rows += 1 + len(instructions)
        for inst in instructions:
            op = inst.opcode
            if op is Opcode.MXM:
                shape_id = shapes.setdefault(inst.args, len(shapes))
                m, k, n = inst.args
                macs += m * k * n
                vmem_elements += m * k + k * n + m * n
                order.append(_O_MXU)
                mxu_shape.append(shape_id)
                mxu_fixed.append(0)
                mxu_hidx.append(last_hard)
                mxu_b.append(bundles - bundles_at_last_hard)
            elif op in VECTOR_OP_CLASS:
                if op is Opcode.VREDUCE:
                    elements, axis_len = inst.args
                    descriptor = ("reduce", elements, max(1, axis_len))
                else:
                    descriptor = ("elementwise", VECTOR_OP_CLASS[op],
                                  inst.args[0])
                    elements = inst.args[0]
                order.append(_O_VPU)
                vec_id.append(vecops.setdefault(descriptor, len(vecops)))
                vmem_elements += 2 * elements
                vec_hidx.append(last_hard)
                vec_b.append(bundles - bundles_at_last_hard)
            elif op is Opcode.DMA_IN or op is Opcode.DMA_OUT:
                level_name = LEVEL_NAMES.get(inst.args[0])
                if level_name is None:
                    known = ", ".join(f"{i} ({name})" for i, name
                                      in sorted(LEVEL_NAMES.items()))
                    raise ValueError(
                        f"{op.mnemonic} level operand {inst.args[0]!r} "
                        f"names no memory level; known: {known}")
                flag = inst.args[2]
                if flag >= n_flags:
                    n_flags = flag + 1
                if level_name not in dma_bytes:
                    dma_bytes[level_name] = 0
                    dma_levels.append(level_name)
                dma_bytes[level_name] += inst.args[1]
                order.append(_O_HARD)
                h_type.append(_H_DMA)
                h_arg.append(inst.args[1])
                h_flag.append(flag)
                h_level.append(level_name)
                h_nb.append(bundles - bundles_at_last_hard)
                bundles_at_last_hard = bundles
                last_hard += 1
            elif op is Opcode.SYNC_WAIT or op is Opcode.SYNC_SET:
                flag = inst.args[0]
                if flag >= n_flags:
                    n_flags = flag + 1
                order.append(_O_HARD)
                h_type.append(_H_WAIT if op is Opcode.SYNC_WAIT else _H_SET)
                h_arg.append(flag)
                h_flag.append(0)
                h_level.append(None)
                h_nb.append(bundles - bundles_at_last_hard)
                bundles_at_last_hard = bundles
                last_hard += 1
            elif op is Opcode.MXM_LOADW or op is Opcode.MXM_TRANSPOSE:
                order.append(_O_MXU)
                mxu_shape.append(-1)
                mxu_fixed.append(max(1, inst.args[0]))
                mxu_hidx.append(last_hard)
                mxu_b.append(bundles - bundles_at_last_hard)
            elif op is Opcode.HALT:
                rows -= len(instructions) - instructions.index(inst) - 1
                halted = True
                break
            else:
                # NOP / SADD / SMUL / SBRANCH / SLOOP: single-cycle
                # scalar-slot ops; only the counter observes them.
                scalar_ops += 1

    as_i64 = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    return _Struct(
        name=program.name,
        generation=program.generation,
        n_flags=n_flags,
        rows=rows,
        bundles=bundles,
        tail_bundles=bundles - bundles_at_last_hard,
        scalar_ops=scalar_ops,
        macs=macs,
        vmem_elements=vmem_elements,
        dma_bytes=dma_bytes,
        dma_levels=tuple(dma_levels),
        shapes=tuple(shapes),
        vecops=tuple(vecops),
        order=bytes(order),
        mxu_shape=as_i64(mxu_shape),
        mxu_fixed=as_i64(mxu_fixed),
        mxu_hidx=as_i64(mxu_hidx),
        mxu_b=as_i64(mxu_b),
        vec_id=as_i64(vec_id),
        vec_hidx=as_i64(vec_hidx),
        vec_b=as_i64(vec_b),
        h_type=h_type,
        h_arg=h_arg,
        h_flag=h_flag,
        h_level=h_level,
        h_nb=h_nb,
    )
