"""Executable program container: an ordered sequence of VLIW bundles.

A :class:`Program` is what the compiler emits and the simulator runs. It
carries the generation it was compiled for (the binary-compatibility axis of
Lesson 2) and summary statistics the tests and benchmarks assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.isa.instructions import (
    Bundle,
    Instruction,
    Opcode,
    SlotClass,
    slot_layout_for_generation,
)


@dataclass
class Program:
    """A compiled TensorCore program.

    Attributes:
        name: human-readable label (usually the workload name).
        generation: the chip generation the program was scheduled/encoded for.
        bundles: the VLIW bundles in issue order.
        metadata: free-form compile artifacts (weight placement, compiler
            version) that tools attach; never consumed by the simulator.
    """

    name: str
    generation: int
    bundles: List[Bundle] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def append(self, bundle: Bundle) -> None:
        bundle.validate_for(self.generation)
        self.bundles.append(bundle)

    def extend(self, bundles: Iterable[Bundle]) -> None:
        """Append bundles in order, after checking every one of them.

        The layout is looked up once and each distinct bundle object is
        checked once (bundles are immutable, so a repeat cannot differ).
        Nothing is appended if any bundle is invalid.
        """
        bundles = list(bundles)
        layout = slot_layout_for_generation(self.generation)
        for bundle in {id(b): b for b in bundles}.values():
            bundle.check_slots(layout, self.generation)
        self.bundles.extend(bundles)

    def __len__(self) -> int:
        return len(self.bundles)

    def __iter__(self) -> Iterator[Bundle]:
        return iter(self.bundles)

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in issue order, flattened across bundles."""
        for bundle in self.bundles:
            yield from bundle.instructions

    def signature(self) -> Tuple:
        """A hashable content key: name, generation, and the bundles.

        Two programs with equal signatures execute identically, so the
        grid kernel's per-structure tables (:mod:`repro.sim.gridkernel`)
        use this — not object identity — as their key; a program mutated
        by :meth:`append` between runs gets a fresh signature for free.
        Bundle equality is ``(opcode, args)`` equality of its
        instructions, and each bundle caches its hash, so hashing the key
        costs one cached lookup per position and one full hash per
        distinct bundle (the scheduler interns repeats).
        """
        return (self.name, self.generation, tuple(self.bundles))

    def count_opcodes(self) -> Dict[Opcode, int]:
        """Instruction histogram, used by compile-quality tests."""
        counts: Dict[Opcode, int] = {}
        for inst in self.instructions():
            counts[inst.opcode] = counts.get(inst.opcode, 0) + 1
        return counts

    def slot_occupancy(self) -> Dict[SlotClass, int]:
        """Instructions issued per slot class across the whole program."""
        occupancy: Dict[SlotClass, int] = {}
        for inst in self.instructions():
            occupancy[inst.slot] = occupancy.get(inst.slot, 0) + 1
        return occupancy

    def total_macs(self) -> int:
        """MACs implied by all MXM instructions."""
        total = 0
        for inst in self.instructions():
            if inst.opcode is Opcode.MXM:
                m, k, n = inst.args
                total += m * k * n
        return total

    def dma_bytes(self) -> Tuple[int, int]:
        """(bytes in, bytes out) across all DMA instructions."""
        bytes_in = sum(i.args[1] for i in self.instructions()
                       if i.opcode is Opcode.DMA_IN)
        bytes_out = sum(i.args[1] for i in self.instructions()
                        if i.opcode is Opcode.DMA_OUT)
        return bytes_in, bytes_out

    def validate(self) -> None:
        """Re-check every bundle against the program's generation."""
        for index, bundle in enumerate(self.bundles):
            try:
                bundle.validate_for(self.generation)
            except ValueError as exc:
                raise ValueError(f"bundle {index}: {exc}") from exc
