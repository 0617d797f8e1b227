"""VLIW bundle scheduling.

Packs the lowered instruction stream into issue bundles for the target
generation. Program order is preserved (the TensorCore issues in order);
the scheduler's freedom is *density*: with the ``dual_issue`` compiler
feature it fills every slot class a bundle offers, so a DMA, a sync, a
matmul and a vector op can issue together; without it each instruction
gets its own bundle (the bring-up compiler's behaviour).

Packing reads only each instruction's slot class, so it runs on the
lowered stream with its level slots still open, once per generation;
:func:`bind_bundles` then fills the slots for each memory plan.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.compiler.lowering import LoweredOp
from repro.isa.instructions import (
    Bundle,
    Instruction,
    Opcode,
    SlotClass,
    slot_layout_for_generation,
)


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


def schedule(lowered: Sequence[LoweredOp], generation: int,
             dense: bool) -> List[Bundle]:
    """Pack lowered ops into the bundles of a program, in issue order.

    The emission order interleaves each op's prologue DMAs ahead of its
    body (lowering already hoisted prefetchable DMAs into prologues), and
    appends a HALT so the simulator knows the stream ended. ``dense`` is
    the ``dual_issue`` compiler feature.
    """
    stream: List[Instruction] = []
    for op in lowered:
        stream.extend(op.prologue)
        stream.extend(op.body)
        stream.extend(op.epilogue)
    stream.append(_HALT)
    return _pack(stream, generation, dense)


def bind_bundles(bundles: Sequence[Bundle],
                 bound: Mapping[int, Instruction]) -> List[Bundle]:
    """``bundles`` with each instruction ``inst`` replaced by
    ``bound[id(inst)]`` where present (see
    :meth:`~repro.compiler.lowering.LoweredModule.bound`).

    Slots stay as they were, so nothing is re-packed. Repeats are
    interned as :func:`_pack` does: bundles made of the same
    instruction objects are one :class:`Bundle`, and a bundle that
    binds to its own instructions is kept as it is.
    """
    get = bound.get
    by_bundle: Dict[int, Bundle] = {}
    interned: Dict[Tuple[int, ...], Bundle] = {}
    for bundle in {id(b): b for b in bundles}.values():
        insts = bundle.instructions
        filled = tuple(map(get, map(id, insts), insts))
        key = tuple(map(id, filled))
        out = interned.get(key)
        if out is None:
            out = interned[key] = (bundle if filled == insts
                                   else Bundle(filled))
        by_bundle[id(bundle)] = out
    return list(map(by_bundle.__getitem__, map(id, bundles)))
