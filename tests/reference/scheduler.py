"""Test-only oracle for the bundle packer.

:func:`pack` packs an expanded instruction stream one instruction at a
time: the scheduler as it was before lowered streams carried runs. The
production packer (:func:`repro.compiler.scheduler._pack`) packs each
run of one instruction in closed form; expanded, its bundles must equal
these for every stream, generation and ``dense`` flag
(``tests/test_runs.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.isa.instructions import (
    Bundle,
    Instruction,
    SlotClass,
    slot_layout_for_generation,
)


def pack(stream: Sequence[Instruction], generation: int,
         dense: bool) -> List[Bundle]:
    """Pack ``stream`` into bundles, in order, one instruction at a time.

    Without ``dense`` every instruction gets its own bundle; with it an
    instruction joins the pending bundle unless its slot class is full.
    Bundles made of the same instruction objects are one object.
    """
    layout = slot_layout_for_generation(generation)
    capacity = [layout.get(slot, 0) for slot in SlotClass]
    slot_index = {slot: i for i, slot in enumerate(SlotClass)}
    empty = [0] * len(capacity)
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
        index = slot_index[inst.slot]
        if capacity[index] == 0:
            raise ValueError(
                f"generation {generation} has no {inst.slot.value} slot "
                f"for {inst.opcode.mnemonic}")
        if pending and (not dense or usage[index] >= capacity[index]):
            flush()
        pending.append(inst)
        usage[index] += 1
    if pending:
        flush()
    return bundles
