"""VLIW bundle scheduling.

Packs the lowered instruction stream into issue bundles for the target
generation. Program order is preserved (the TensorCore issues in order);
the scheduler's freedom is *density*: with the ``dual_issue`` compiler
feature it fills every slot class a bundle offers, so a DMA, a sync, a
matmul and a vector op can issue together; without it each instruction
gets its own bundle (the bring-up compiler's behaviour).

Packing reads only each instruction's slot class, so it runs on the
lowered stream with its level slots still open, once per generation;
:func:`bind_bundles` fills the slots from a memory plan's level table
when a compiled program's bundles are first read.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.compiler.lowering import InstructionRun, LoweredOp
from repro.isa.instructions import (
    Bundle,
    Instruction,
    Opcode,
    SlotClass,
    slot_layout_for_generation,
)

#: Runs of bundles: the bundles and the parallel list of their counts.
Runs = Tuple[List[Bundle], List[int]]


def _pack(stream: Sequence[InstructionRun], generation: int,
          dense: bool) -> Runs:
    """Pack a run-length instruction stream into runs of bundles, in
    order: a list of bundles and the parallel list of their counts.

    The result is what packing the expanded stream one instruction at a
    time gives, with each run of one bundle object stored once. Without
    ``dense`` every instruction gets its own bundle, so a run of *c*
    copies becomes *c* single-instruction bundles. With it, a run of *c*
    copies of an instruction whose slot class holds *cap* per bundle is
    packed in closed form: the pending bundle takes ``min(c, cap -
    used)`` copies, the next ``rest // cap`` bundles are one full bundle
    of *cap* copies, and the remainder stays pending (a full bundle
    stays pending too, as it would if packed copy by copy, since a
    later instruction of another slot class may still join it).

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
    counts: List[int] = []
    pending: List[Instruction] = []
    usage = list(empty)

    def emit(insts: Sequence[Instruction], count: int) -> None:
        """Add ``count`` copies of the bundle of ``insts``."""
        key = tuple(map(id, insts))
        bundle = interned.get(key)
        if bundle is None:
            bundle = interned[key] = Bundle(tuple(insts))
        if bundles and bundles[-1] is bundle:
            counts[-1] += count
        else:
            bundles.append(bundle)
            counts.append(count)

    def flush() -> None:
        emit(pending, 1)
        pending.clear()
        usage[:] = empty

    for inst, count in stream:
        index = slot_of.get(id(inst))
        if index is None:
            index = slot_index[inst.slot]
            if capacity[index] == 0:
                raise ValueError(
                    f"generation {generation} has no {inst.slot.value} slot "
                    f"for {inst.opcode.mnemonic}")
            slot_of[id(inst)] = index
        if not dense:
            if pending:
                flush()
            if count > 1:
                emit((inst,), count - 1)
            pending.append(inst)
            continue
        cap = capacity[index]
        if pending and usage[index] >= cap:
            flush()
        if count == 1:
            pending.append(inst)
            usage[index] += 1
            continue
        take = min(count, cap - usage[index])
        pending.extend(repeat(inst, take))
        usage[index] += take
        rest = count - take
        if rest:
            flush()
            full, left = divmod(rest, cap)
            if not left:
                full, left = full - 1, cap
            if full:
                emit((inst,) * cap, full)
            pending.extend(repeat(inst, left))
            usage[index] = left
    if pending:
        flush()
    return bundles, counts


_HALT = Instruction(Opcode.HALT)


def schedule(lowered: Sequence[LoweredOp], generation: int,
             dense: bool) -> Runs:
    """Pack lowered ops into the runs of a program, in issue order: a
    list of bundles and the parallel list of their counts.

    The emission order interleaves each op's prologue DMAs ahead of its
    body (lowering already hoisted prefetchable DMAs into prologues), and
    appends a HALT so the simulator knows the stream ended. ``dense`` is
    the ``dual_issue`` compiler feature.
    """
    stream: List[InstructionRun] = []
    for op in lowered:
        stream.extend(zip(op.prologue, repeat(1)))
        stream.extend(op.body_runs)
        stream.extend(zip(op.epilogue, repeat(1)))
    stream.append((_HALT, 1))
    return _pack(stream, generation, dense)


def bind_bundles(bundles: Sequence[Bundle],
                 bound: Mapping[int, Instruction]) -> List[Bundle]:
    """``bundles`` with each instruction ``inst`` replaced by
    ``bound[id(inst)]`` where present (see
    :meth:`~repro.compiler.lowering.LoweredModule.bound`).

    Slots stay as they were, so nothing is re-packed and run counts are
    unchanged; each distinct bundle is bound once. Repeats are interned
    as :func:`_pack` does: bundles made of the same instruction objects
    are one :class:`Bundle`, and a bundle that binds to its own
    instructions is kept as it is.
    """
    get = bound.get
    by_bundle: Dict[int, Bundle] = {}
    interned: Dict[Tuple[int, ...], Bundle] = {}
    for bundle in dict(zip(map(id, bundles), bundles)).values():
        insts = bundle.instructions
        filled = tuple(map(get, map(id, insts), insts))
        key = tuple(map(id, filled))
        out = interned.get(key)
        if out is None:
            out = interned[key] = (bundle if filled == insts
                                   else Bundle(filled))
        by_bundle[id(bundle)] = out
    return list(map(by_bundle.__getitem__, map(id, bundles)))
