"""Instruction and bundle definitions for the TensorCore VLIW ISA.

Operands are plain integers whose meaning is opcode-specific (element
counts, byte counts, matmul dimensions, sync-flag ids, memory-level ids).
That keeps instructions trivially encodable while carrying everything the
timing simulator needs.

Memory-level ids used by DMA opcodes: 0 = HBM, 1 = CMEM, 2 = VMEM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple


class SlotClass(enum.Enum):
    """VLIW issue-slot classes; a bundle holds limited instructions per class."""

    SCALAR = "scalar"
    VECTOR = "vector"
    MATRIX = "matrix"
    DMA = "dma"
    SYNC = "sync"

    # Members are singletons, so identity is equality: hash by identity
    # in C rather than through ``Enum.__hash__`` (a Python-level call).
    __hash__ = object.__hash__


class Opcode(enum.Enum):
    """All TensorCore opcodes, tagged with their slot class and arity."""

    # Scalar slot.
    NOP = ("nop", SlotClass.SCALAR, 0)
    HALT = ("halt", SlotClass.SCALAR, 0)
    SADD = ("sadd", SlotClass.SCALAR, 3)     # dst, a, b
    SMUL = ("smul", SlotClass.SCALAR, 3)     # dst, a, b
    SBRANCH = ("sbranch", SlotClass.SCALAR, 2)  # target bundle, condition reg
    SLOOP = ("sloop", SlotClass.SCALAR, 2)   # trip count, body start

    # Vector slot (operand 0 is always the element count).
    VADD = ("vadd", SlotClass.VECTOR, 1)
    VSUB = ("vsub", SlotClass.VECTOR, 1)
    VMUL = ("vmul", SlotClass.VECTOR, 1)
    VMAX = ("vmax", SlotClass.VECTOR, 1)
    VMIN = ("vmin", SlotClass.VECTOR, 1)
    VSELECT = ("vselect", SlotClass.VECTOR, 1)
    VRELU = ("vrelu", SlotClass.VECTOR, 1)
    VDIV = ("vdiv", SlotClass.VECTOR, 1)
    VRSQRT = ("vrsqrt", SlotClass.VECTOR, 1)
    VEXP = ("vexp", SlotClass.VECTOR, 1)
    VTANH = ("vtanh", SlotClass.VECTOR, 1)
    VSIGMOID = ("vsigmoid", SlotClass.VECTOR, 1)
    VGELU = ("vgelu", SlotClass.VECTOR, 1)
    VERF = ("verf", SlotClass.VECTOR, 1)
    VCOPY = ("vcopy", SlotClass.VECTOR, 1)
    VREDUCE = ("vreduce", SlotClass.VECTOR, 2)  # elements, axis length

    # Matrix slot.
    MXM = ("mxm", SlotClass.MATRIX, 3)       # m, k, n
    MXM_LOADW = ("mxm.loadw", SlotClass.MATRIX, 2)  # k, n (weight tile preload)
    MXM_TRANSPOSE = ("mxm.transpose", SlotClass.MATRIX, 2)  # rows, cols

    # DMA slot.
    DMA_IN = ("dma.in", SlotClass.DMA, 3)    # source level, bytes, flag id
    DMA_OUT = ("dma.out", SlotClass.DMA, 3)  # dest level, bytes, flag id

    # Sync slot.
    SYNC_WAIT = ("sync.wait", SlotClass.SYNC, 1)  # flag id
    SYNC_SET = ("sync.set", SlotClass.SYNC, 1)    # flag id

    def __init__(self, mnemonic: str, slot: SlotClass, arity: int) -> None:
        self.mnemonic = mnemonic
        self.slot = slot
        self.arity = arity

    __hash__ = object.__hash__  # see SlotClass


# Vector opcode -> VpuModel op-class name (consumed by the simulator).
VECTOR_OP_CLASS: Mapping[Opcode, str] = {
    Opcode.VADD: "add",
    Opcode.VSUB: "sub",
    Opcode.VMUL: "mul",
    Opcode.VMAX: "max",
    Opcode.VMIN: "min",
    Opcode.VSELECT: "select",
    Opcode.VRELU: "relu",
    Opcode.VDIV: "div",
    Opcode.VRSQRT: "rsqrt",
    Opcode.VEXP: "exp",
    Opcode.VTANH: "tanh",
    Opcode.VSIGMOID: "sigmoid",
    Opcode.VGELU: "gelu",
    Opcode.VERF: "erf",
    Opcode.VCOPY: "copy",
    Opcode.VREDUCE: "reduce",
}

# Memory-level ids for DMA operands.
LEVEL_IDS: Mapping[str, int] = {"hbm": 0, "cmem": 1, "vmem": 2}
LEVEL_NAMES: Mapping[int, str] = {v: k for k, v in LEVEL_IDS.items()}


@dataclass(frozen=True)
class Instruction:
    """One operation occupying one slot of a bundle."""

    opcode: Opcode
    args: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.opcode.arity:
            raise ValueError(
                f"{self.opcode.mnemonic} takes {self.opcode.arity} operands, "
                f"got {len(self.args)}"
            )
        if any(a < 0 for a in self.args):
            raise ValueError(f"{self.opcode.mnemonic}: operands must be non-negative")

    @property
    def slot(self) -> SlotClass:
        return self.opcode.slot

    def __str__(self) -> str:
        if not self.args:
            return self.opcode.mnemonic
        return f"{self.opcode.mnemonic} " + ", ".join(str(a) for a in self.args)


# Issue-slot counts per bundle, per chip generation. The layout changing
# every generation is precisely why binary compatibility was untenable
# (Lesson 2): a TPUv2 bundle simply has no encoding on TPUv4i.
SLOT_LAYOUTS: Dict[int, Dict[SlotClass, int]] = {
    1: {SlotClass.SCALAR: 1, SlotClass.VECTOR: 1, SlotClass.MATRIX: 1,
        SlotClass.DMA: 1, SlotClass.SYNC: 1},
    2: {SlotClass.SCALAR: 1, SlotClass.VECTOR: 2, SlotClass.MATRIX: 1,
        SlotClass.DMA: 2, SlotClass.SYNC: 1},
    3: {SlotClass.SCALAR: 1, SlotClass.VECTOR: 2, SlotClass.MATRIX: 2,
        SlotClass.DMA: 2, SlotClass.SYNC: 1},
    4: {SlotClass.SCALAR: 2, SlotClass.VECTOR: 2, SlotClass.MATRIX: 2,
        SlotClass.DMA: 4, SlotClass.SYNC: 2},
}


def slot_layout_for_generation(generation: int) -> Dict[SlotClass, int]:
    """Slot counts for a chip generation (1-4)."""
    try:
        return dict(SLOT_LAYOUTS[generation])
    except KeyError:
        raise KeyError(f"no slot layout for generation {generation}") from None


@dataclass(frozen=True)
class Bundle:
    """One VLIW issue bundle: the instructions dispatched together.

    ``check_slots`` checks slot-class occupancy against a generation's
    layout; the :class:`~repro.isa.program.Program` constructor runs it
    on every distinct bundle, so no program holds a bundle its
    generation cannot issue. Bundles are immutable,
    so one bundle object may appear many times in a program (the
    scheduler interns repeats).

    The hash is computed on first use and cached on the bundle, so a
    program signature (:meth:`repro.isa.program.Program.signature`)
    hashes each distinct bundle once. Equality stays the field equality.
    The cached value is per process (enum members hash by identity): it
    is never pickled or copied, and a loaded bundle rehashes.
    """

    instructions: Tuple[Instruction, ...] = ()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.instructions)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def slot_usage(self) -> Dict[SlotClass, int]:
        usage: Dict[SlotClass, int] = {}
        for inst in self.instructions:
            usage[inst.slot] = usage.get(inst.slot, 0) + 1
        return usage

    def check_slots(self, layout: Mapping[SlotClass, int],
                    generation: int) -> None:
        """Raise ValueError if this bundle over-subscribes any slot class
        of ``layout``, generation ``generation``'s slot layout."""
        for slot, used in self.slot_usage().items():
            if used > layout.get(slot, 0):
                raise ValueError(
                    f"bundle uses {used} {slot.value} slots but generation "
                    f"{generation} provides {layout.get(slot, 0)}"
                )

    def __str__(self) -> str:
        return " ; ".join(str(i) for i in self.instructions) if self.instructions else "nop"
