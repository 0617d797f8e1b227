"""VLIW bundle scheduling.

Packs the lowered instruction stream into issue bundles for the target
generation. Program order is preserved (the TensorCore issues in order);
the scheduler's freedom is *density*: with the ``dual_issue`` compiler
feature it fills every slot class a bundle offers, so a DMA, a sync, a
matmul and a vector op can issue together; without it each instruction
gets its own bundle (the bring-up compiler's behaviour).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.compiler.lowering import LoweredOp
from repro.compiler.versions import CompilerVersion
from repro.isa.instructions import (
    Bundle,
    Instruction,
    Opcode,
    SlotClass,
    slot_layout_for_generation,
)
from repro.isa.program import Program


def _pack(stream: Sequence[Instruction], generation: int,
          dense: bool) -> List[Bundle]:
    """Pack ``stream`` into bundles, in order.

    Repeats are interned: a bundle made of the same instruction objects
    as an earlier one *is* that earlier :class:`Bundle`, and each
    distinct instruction's slot is checked once. Lowering interns its
    instructions, so equal instructions are usually the same object;
    keying by identity never merges unequal bundles. Every instruction
    is held by ``stream`` or a bundle while packing, so ids stay unique.
    """
    layout = slot_layout_for_generation(generation)
    capacity = [layout.get(slot, 0) for slot in SlotClass]
    slot_index = {slot: i for i, slot in enumerate(SlotClass)}
    empty = [0] * len(capacity)
    slot_of: Dict[int, int] = {}           # id(instruction) -> slot index
    interned: Dict[Tuple[int, ...], Bundle] = {}
    bundles: List[Bundle] = []
    pending: List[Instruction] = []
    usage = list(empty)

    def flush() -> None:
        key = tuple(map(id, pending))
        bundle = interned.get(key)
        if bundle is None:
            bundle = interned[key] = Bundle(tuple(pending))
        bundles.append(bundle)
        pending.clear()
        usage[:] = empty

    for inst in stream:
        index = slot_of.get(id(inst))
        if index is None:
            index = slot_index[inst.slot]
            if capacity[index] == 0:
                raise ValueError(
                    f"generation {generation} has no {inst.slot.value} slot "
                    f"for {inst.opcode.mnemonic}")
            slot_of[id(inst)] = index
        if pending and (not dense or usage[index] >= capacity[index]):
            flush()
        pending.append(inst)
        usage[index] += 1
    if pending:
        flush()
    return bundles


_HALT = Instruction(Opcode.HALT)


def schedule(lowered: List[LoweredOp], name: str, generation: int,
             version: CompilerVersion) -> Program:
    """Build the final program from lowered ops.

    The emission order interleaves each op's prologue DMAs ahead of its
    body (lowering already hoisted prefetchable DMAs into prologues), and
    appends a HALT so the simulator knows the stream ended.
    """
    stream: List[Instruction] = []
    for op in lowered:
        stream.extend(op.prologue)
        stream.extend(op.body)
        stream.extend(op.epilogue)
    stream.append(_HALT)

    program = Program(name=name, generation=generation)
    program.extend(_pack(stream, generation, dense=version.has("dual_issue")))
    program.metadata["compiler_version"] = version.name
    program.metadata["lowered_ops"] = len(lowered)
    return program
