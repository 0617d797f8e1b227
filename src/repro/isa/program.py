"""Executable program container: an ordered sequence of VLIW bundles.

A :class:`Program` is what the compiler emits and the simulator runs. It
carries the generation it was compiled for (the binary-compatibility axis of
Lesson 2) and summary statistics the tests and benchmarks assert on.

A program is stored in run-length form: :attr:`Program.runs` lists its
maximal ``(bundle, count)`` runs, the way TPUv1's CISC instructions carry
a repeat field. Runs are maximal under :class:`Bundle` equality, so two
programs with equal bundle sequences have equal runs, and every stage
that only needs one copy of a repeated bundle (binding, checking,
hashing, decoding for timing) touches each run once.
:attr:`Program.bundles` is the expanded, position-by-position view.

A compiled program is stored as a *level binding*
(:meth:`Program.from_slotted`): the scheduled program whose DMA level
operands still name the compiler's level slots, shared by every memory
plan, plus the plan's level table. Its own runs are bound only when
something reads them, and the timing engine decodes the shared slotted
program once and relabels its DMA rows through each table
(:mod:`repro.sim.gridkernel`). A mutation ends the link.
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
    bind: Callable[[List[Bundle], LevelTable], List[Bundle]]


def _merge_runs(out_bundles: List[Bundle], out_counts: List[int],
                bundles: Sequence[Bundle], counts: Sequence[int]) -> None:
    """Append runs to ``out_bundles``/``out_counts``, merging each into
    the one before it when it holds an equal bundle.

    Bundles cache their hashes, so the common case — no two neighbours
    hash alike — is decided without comparing fields and appends every
    run at once.
    """
    hashes = list(map(hash, bundles))
    if out_bundles:
        hashes.insert(0, hash(out_bundles[-1]))
    if not any(map(eq, hashes, islice(hashes, 1, None))):
        out_bundles.extend(bundles)
        out_counts.extend(counts)
        return
    for bundle, count in zip(bundles, counts):
        if out_bundles:
            last = out_bundles[-1]
            if last is bundle or (hash(last) == hash(bundle)
                                  and last == bundle):
                out_counts[-1] += count
                continue
        out_bundles.append(bundle)
        out_counts.append(count)


class BundleView:
    """A program's bundles, one per issue position, in issue order.

    A live view over the program's runs: it iterates and indexes like
    the list of bundles, and :meth:`append` / :meth:`extend` add
    positions without checking slots (as appending to a plain list
    would; :meth:`Program.append` is the checked form).
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

    def __getitem__(self, index):
        return list(self)[index]

    def append(self, bundle: Bundle) -> None:
        self._program._push_runs([bundle], [1])

    def extend(self, bundles: Iterable[Bundle]) -> None:
        bundles = list(bundles)
        self._program._push_runs(bundles, [1] * len(bundles))


@dataclass(init=False)
class Program:
    """A compiled TensorCore program.

    Attributes:
        name: human-readable label (usually the workload name).
        generation: the chip generation the program was scheduled/encoded for.
        run_bundles / run_counts: the maximal runs in issue order, as two
            parallel lists (run ``i`` issues ``run_bundles[i]``
            ``run_counts[i]`` times); :attr:`runs` pairs them up.
        bundles: the expanded bundles in issue order (a :class:`BundleView`).
        metadata: free-form compile artifacts (weight placement, compiler
            version) that tools attach; never consumed by the simulator.

    The runs are two flat lists rather than a list of pairs so that a
    program adds no per-run objects for the garbage collector to walk.
    Equality compares the runs, which are maximal, so it is equality of
    the expanded bundles.

    A program made by :meth:`from_slotted` has no runs of its own until
    one of them is read (directly or through :attr:`bundles`,
    :meth:`signature`, equality, repr, pickling or encoding); they are
    then bound once and kept. :attr:`binding` stays set after that read,
    so the timing engine keeps pricing the program from the shared
    slotted program; only a mutation (:meth:`append`, :meth:`extend`,
    :meth:`extend_runs`, the :attr:`bundles` view) clears it. Those are
    the ways to change a program: editing ``run_bundles`` or
    ``run_counts`` in place keeps the binding, and the engine would
    price the slotted program's content.
    """

    name: str
    generation: int
    run_bundles: List[Bundle]
    run_counts: List[int]
    metadata: Dict[str, object]

    #: The level binding this program is stored as, if any (set on the
    #: instance by :meth:`from_slotted`; not a field).
    _binding = None

    def __init__(self, name: str, generation: int,
                 bundles: Iterable[Bundle] = (),
                 metadata: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.generation = generation
        self.run_bundles = []
        self.run_counts = []
        self._positions = 0
        self.metadata = {} if metadata is None else metadata
        BundleView(self).extend(bundles)

    @classmethod
    def from_slotted(cls, slotted: "Program", name: str, levels: LevelTable,
                     bind: Callable[[List[Bundle], LevelTable], List[Bundle]],
                     metadata: Optional[Dict[str, object]] = None
                     ) -> "Program":
        """``slotted`` with its DMA level operands read through
        ``levels``, named ``name``.

        ``slotted`` must be checked already and must not change while
        the result is bound to it. The result's runs are
        ``bind(slotted.run_bundles, levels)`` with ``slotted``'s counts,
        merged where binding makes neighbours equal; they are computed
        when first read.
        """
        program = cls.__new__(cls)
        program.name = name
        program.generation = slotted.generation
        program._positions = slotted._positions
        program.metadata = {} if metadata is None else metadata
        program._binding = LevelBinding(slotted, levels, bind)
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
        bundles: List[Bundle] = []
        counts: List[int] = []
        _merge_runs(bundles, counts, bind(slotted.run_bundles, levels),
                    slotted.run_counts)
        self.run_bundles, self.run_counts = bundles, counts
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        """The program's own runs, without its binding: a loaded or
        copied program equals this one and holds plain runs."""
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

    def _push_runs(self, bundles: Sequence[Bundle],
                   counts: Sequence[int]) -> None:
        """Add runs in order, unchecked, merging each into the one before
        it when it holds an equal bundle. Ends any level binding."""
        out_bundles, out_counts = self.run_bundles, self.run_counts
        if self._binding is not None:
            self._binding = None
        self._positions += sum(counts)
        _merge_runs(out_bundles, out_counts, bundles, counts)

    def append(self, bundle: Bundle) -> None:
        bundle.validate_for(self.generation)
        self._push_runs([bundle], [1])

    def extend(self, bundles: Iterable[Bundle]) -> None:
        """Append bundles in order, after checking every one of them.

        Nothing is appended if any bundle is invalid.
        """
        self.extend_runs((bundle, 1) for bundle in bundles)

    def extend_runs(self, runs: Iterable[Run]) -> None:
        """Append ``(bundle, count)`` runs in order, after checking every
        bundle.

        The layout is looked up once and each distinct bundle object is
        checked once (bundles are immutable, so a repeat cannot differ).
        Nothing is appended if any bundle or count is invalid.
        """
        runs = list(runs)
        if not runs:
            return
        bundles, counts = zip(*runs)
        if not set(map(type, counts)) <= {int} or min(counts) < 1:
            bad = next(c for c in counts if type(c) is not int or c < 1)
            raise ValueError(f"run count must be an int >= 1, got {bad!r}")
        layout = slot_layout_for_generation(self.generation)
        for bundle in dict(zip(map(id, bundles), bundles)).values():
            bundle.check_slots(layout, self.generation)
        self._push_runs(bundles, counts)

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
        use this — not object identity — as their key; a program mutated
        by :meth:`append` between runs gets a fresh signature for free.
        Runs are maximal under bundle equality, so equal bundle sequences
        give equal signatures. Each bundle caches its hash, so hashing
        the key costs one cached lookup per run and one full hash per
        distinct bundle.
        """
        return (self.name, self.generation, tuple(self.run_bundles),
                tuple(self.run_counts))

    def total_macs(self) -> int:
        """MACs implied by all MXM instructions."""
        total = 0
        for inst in self.instructions():
            if inst.opcode is Opcode.MXM:
                m, k, n = inst.args
                total += m * k * n
        return total

    def validate(self) -> None:
        """Re-check every bundle against the program's generation."""
        position = 0
        for bundle, count in zip(self.run_bundles, self.run_counts):
            try:
                bundle.validate_for(self.generation)
            except ValueError as exc:
                raise ValueError(f"bundle {position}: {exc}") from exc
            position += count
