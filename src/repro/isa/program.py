"""Executable program container: an ordered sequence of VLIW bundles.

A :class:`Program` is what the compiler emits and the simulator runs. It
carries the generation it was compiled for (the binary-compatibility axis of
Lesson 2) and summary statistics the tests and benchmarks assert on.

A program is an immutable value stored in run-length form:
:attr:`Program.runs` lists its maximal ``(bundle, count)`` runs, the way
TPUv1's CISC instructions carry a repeat field. The constructor is the
one way in and checks what it is given; nothing changes a program after
that. Runs are maximal under :class:`Bundle` equality, so two programs
with equal bundle sequences have equal runs, and every stage that only
needs one copy of a repeated bundle (binding, checking, hashing,
decoding for timing) touches each run once. :attr:`Program.bundles` is
the expanded, position-by-position view.

A compiled program is stored as a *level binding*
(:meth:`Program.from_slotted`): the scheduled program whose DMA level
operands still name the compiler's level slots, shared by every memory
plan, plus the plan's level table. Its own runs are bound only when
something reads them, and the timing engine decodes the shared slotted
program once and relabels its DMA rows through each table
(:mod:`repro.sim.gridkernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import eq
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.isa.instructions import (
    Bundle,
    Instruction,
    LEVEL_NAMES,
    Opcode,
    slot_layout_for_generation,
)

#: One run of a program: a bundle and how many times it issues in a row.
Run = Tuple[Bundle, int]

#: A level table: entry ``o`` is the memory level id that a DMA level
#: operand ``o`` stands for; an operand past the end stands for itself.
LevelTable = Tuple[int, ...]

#: The table under which every level operand names its own level.
IDENTITY_LEVELS: LevelTable = tuple(range(len(LEVEL_NAMES)))


class LevelBinding(NamedTuple):
    """A program held as a slotted program plus a level table.

    ``bind(slotted.run_bundles, levels)`` returns the bound bundle of
    every run, in order; the program's own runs are those, merged.
    """

    slotted: "Program"
    levels: LevelTable
    bind: Callable[[Sequence[Bundle], LevelTable], List[Bundle]]


def _merge_runs(bundles: Sequence[Bundle], counts: Sequence[int]
                ) -> Tuple[Tuple[Bundle, ...], Tuple[int, ...]]:
    """The runs ``bundles``/``counts`` with each run merged into the one
    before it when it holds an equal bundle.

    Bundles cache their hashes, so the common case — no two neighbours
    hash alike — is decided without comparing fields.
    """
    hashes = list(map(hash, bundles))
    if not any(map(eq, hashes, islice(hashes, 1, None))):
        return tuple(bundles), tuple(counts)
    out_bundles: List[Bundle] = []
    out_counts: List[int] = []
    for bundle, count in zip(bundles, counts):
        if out_bundles:
            last = out_bundles[-1]
            if last is bundle or (hash(last) == hash(bundle)
                                  and last == bundle):
                out_counts[-1] += count
                continue
        out_bundles.append(bundle)
        out_counts.append(count)
    return tuple(out_bundles), tuple(out_counts)


class BundleView:
    """A program's bundles, one per issue position, in issue order.

    A read-only view over the program's runs: it iterates and has a
    length like the tuple of bundles without expanding the runs to hold.
    It does not index; ``list(program.bundles)`` expands it for that.
    """

    __slots__ = ("_program",)

    def __init__(self, program: "Program") -> None:
        self._program = program

    def __len__(self) -> int:
        return self._program._positions

    def __iter__(self) -> Iterator[Bundle]:
        program = self._program
        return chain.from_iterable(
            map(repeat, program.run_bundles, program.run_counts))


@dataclass(frozen=True, init=False)
class Program:
    """A compiled TensorCore program, immutable once built.

    Attributes:
        name: human-readable label (usually the workload name).
        generation: the chip generation the program was scheduled/encoded for.
        run_bundles / run_counts: the maximal runs in issue order, as two
            parallel tuples (run ``i`` issues ``run_bundles[i]``
            ``run_counts[i]`` times); :attr:`runs` pairs them up.
        bundles: the expanded bundles in issue order (a :class:`BundleView`).
        metadata: free-form compile artifacts (weight placement, compiler
            version) that tools attach; never consumed by the simulator
            and not part of :meth:`signature`.

    The runs are two flat tuples rather than pairs so that a program
    adds no per-run objects for the garbage collector to walk. Equality
    compares the runs, which are maximal, so it is equality of the
    expanded bundles. A program hashes as its :meth:`signature`; both
    are computed once, on first use.

    A program made by :meth:`from_slotted` has no runs of its own until
    one of them is read (directly or through :attr:`bundles`,
    :meth:`signature`, equality, repr, pickling or encoding); they are
    then bound once and kept, and the timing engine keeps pricing the
    program from the shared slotted program (:attr:`binding`).
    """

    name: str
    generation: int
    run_bundles: Tuple[Bundle, ...]
    run_counts: Tuple[int, ...]
    metadata: Dict[str, object]

    #: The level binding this program is stored as, if any (set on the
    #: instance by :meth:`from_slotted`; not a field).
    _binding = None

    def __init__(self, name: str, generation: int,
                 bundles: Iterable[Bundle] = (),
                 counts: Optional[Iterable[int]] = None,
                 metadata: Optional[Dict[str, object]] = None) -> None:
        """``bundles`` issued ``counts[i]`` times each (once each when
        ``counts`` is ``None``), after checking them.

        The slot layout is looked up once and each distinct bundle
        object is checked once (bundles are immutable, so a repeat
        cannot differ). Raises ``ValueError`` for a count that is not an
        int >= 1 and for a bundle that over-subscribes a slot class.
        """
        bundles = tuple(bundles)
        counts = (1,) * len(bundles) if counts is None else tuple(counts)
        if len(counts) != len(bundles):
            raise ValueError(f"{len(counts)} run counts for "
                             f"{len(bundles)} bundles")
        if counts and (not set(map(type, counts)) <= {int}
                       or min(counts) < 1):
            bad = next(c for c in counts if type(c) is not int or c < 1)
            raise ValueError(f"run count must be an int >= 1, got {bad!r}")
        layout = slot_layout_for_generation(generation)
        for bundle in dict(zip(map(id, bundles), bundles)).values():
            try:
                bundle.check_slots(layout, generation)
            except ValueError as exc:
                at = sum(counts[:bundles.index(bundle)])
                raise ValueError(f"bundle {at}: {exc}") from None
        run_bundles, run_counts = _merge_runs(bundles, counts)
        vars(self).update(
            name=name, generation=generation, run_bundles=run_bundles,
            run_counts=run_counts, _positions=sum(counts),
            metadata={} if metadata is None else metadata)

    @classmethod
    def from_slotted(cls, slotted: "Program", name: str, levels: LevelTable,
                     bind: Callable[[Sequence[Bundle], LevelTable],
                                    List[Bundle]],
                     metadata: Optional[Dict[str, object]] = None
                     ) -> "Program":
        """``slotted`` with its DMA level operands read through
        ``levels``, named ``name``.

        The result's runs are ``bind(slotted.run_bundles, levels)`` with
        ``slotted``'s counts, merged where binding makes neighbours
        equal; they are computed when first read. Binding fills level
        operands only, so the bound bundles use ``slotted``'s slots and
        need no second check.
        """
        program = cls.__new__(cls)
        vars(program).update(
            name=name, generation=slotted.generation,
            _positions=slotted._positions,
            metadata={} if metadata is None else metadata,
            _binding=LevelBinding(slotted, levels, bind))
        return program

    @property
    def binding(self) -> Optional[LevelBinding]:
        """The slotted program and level table this program reads, or
        ``None`` for a program that holds only its own runs."""
        return self._binding

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the runs of
        # a program made by from_slotted that nothing has read yet.
        if self._binding is None or name not in ("run_bundles",
                                                 "run_counts"):
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        slotted, levels, bind = self._binding
        bundles, counts = _merge_runs(bind(slotted.run_bundles, levels),
                                      slotted.run_counts)
        vars(self).update(run_bundles=bundles, run_counts=counts)
        return vars(self)[name]

    def __getstate__(self) -> dict:
        """The program's own runs, without its binding or its cached
        signature and hash (a hash is per process: bundles hash their
        enum members by identity): a loaded or copied program equals
        this one and holds plain runs."""
        return {"name": self.name, "generation": self.generation,
                "run_bundles": self.run_bundles,
                "run_counts": self.run_counts,
                "_positions": self._positions, "metadata": self.metadata}

    @property
    def bundles(self) -> BundleView:
        return BundleView(self)

    @property
    def runs(self) -> List[Run]:
        """The ``(bundle, count)`` runs in issue order."""
        return list(zip(self.run_bundles, self.run_counts))

    def __len__(self) -> int:
        return self._positions

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in issue order, flattened across bundles."""
        for bundle in self.bundles:
            yield from bundle.instructions

    def signature(self) -> Tuple:
        """A hashable content key: name, generation, and the runs.

        Two programs with equal signatures execute identically, so the
        grid kernel's per-structure tables (:mod:`repro.sim.gridkernel`)
        use it and its hash — not object identity — as their key. Runs
        are maximal under bundle equality, so equal bundle sequences
        give equal signatures. The key is built once per program.
        """
        cached = vars(self).get("_signature")
        if cached is None:
            cached = vars(self)["_signature"] = (
                self.name, self.generation, self.run_bundles,
                self.run_counts)
        return cached

    def __hash__(self) -> int:
        """The hash of :meth:`signature`, computed once. Each bundle
        caches its own hash, so the first call costs one cached lookup
        per run and one full hash per distinct bundle."""
        cached = vars(self).get("_hash")
        if cached is None:
            cached = vars(self)["_hash"] = hash(self.signature())
        return cached

    def total_macs(self) -> int:
        """MACs implied by all MXM instructions."""
        total = 0
        for inst in self.instructions():
            if inst.opcode is Opcode.MXM:
                m, k, n = inst.args
                total += m * k * n
        return total
