"""Lowering: fused HLO groups -> DMA/MXM/vector instruction streams.

Each fusion group becomes one *lowered op*: the DMAs that stage its
operands, the MXU or VPU work, and the DMA that writes back a materialized
result. Matmuls and convs are tiled into M-chunks (see ``tiling``).

Compiler-feature semantics (these are what the versions experiment
measures):

* ``prefetch`` — DMAs are hoisted into the op's prologue and waited on
  only at the point of use, so transfers overlap compute. Without it every
  DMA is *synchronous*: issue, then immediately wait (bring-up codegen).
* ``fusion`` — fused followers stream the producer's output in VMEM for
  free. Without fusion, any intermediate larger than a quarter of the
  VMEM working budget is materialized: written back to CMEM/HBM by its
  producer and re-staged by every consumer (the naive op-by-op executor).
* ``cmem_alloc`` — weights stream from their allocator-assigned home;
  without it everything streams from HBM.

Level slots: lowering runs before the memory plan is known. Every DMA
level the plan decides — a weight's home, a spill's level, the level an
unfused intermediate is materialized at — is emitted as a named *level
slot* (:class:`LoweredModule`). :meth:`LoweredModule.levels` turns a plan
into a level table (DMA level operand -> level id) and
:meth:`LoweredModule.bind` fills the slots from a plan. Which tensors
leave VMEM, the flags and the instruction order do not depend on the
plan, so one lowering serves every CMEM budget.

Traffic rules (the numbers every experiment rides on):

* weights stream from their home once per execution — or once per M-chunk
  when the weight panel exceeds the VMEM weight budget;
* parameters (request inputs) stream from HBM; intermediates live in VMEM
  unless spilled/materialized;
* embedding lookups read ``rows * dim`` bytes from the table's home level.

Ordering note: a consumer staging a materialized tensor waits on the
producer's store flag before issuing its load, so write-then-read through
HBM is never reordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.chip import ChipConfig
from repro.compiler.allocator import MemoryPlan, spilled_instructions
from repro.compiler.fusion import FusionPlan
from repro.compiler.tiling import plan_matmul_tiles
from repro.compiler.versions import CompilerVersion
from repro.graph.hlo import HloInstruction, HloModule
from repro.graph.ops import opdef
from repro.isa.instructions import Instruction, LEVEL_IDS, Opcode
from repro.isa.program import IDENTITY_LEVELS, LevelTable

# Vector-class name -> vector opcode.
_VECTOR_OPCODES: Dict[str, Opcode] = {
    "add": Opcode.VADD,
    "sub": Opcode.VSUB,
    "mul": Opcode.VMUL,
    "max": Opcode.VMAX,
    "min": Opcode.VMIN,
    "select": Opcode.VSELECT,
    "relu": Opcode.VRELU,
    "div": Opcode.VDIV,
    "rsqrt": Opcode.VRSQRT,
    "exp": Opcode.VEXP,
    "tanh": Opcode.VTANH,
    "sigmoid": Opcode.VSIGMOID,
    "gelu": Opcode.VGELU,
    "erf": Opcode.VERF,
    "copy": Opcode.VCOPY,
}

_NUM_FLAGS = 64
_VMEM_WEIGHT_FRACTION = 0.4
_VMEM_WORKING_FRACTION = 0.5
_MATERIALIZE_DIVISOR = 4  # no-fusion round-trip threshold: working budget / 4

_HBM = LEVEL_IDS["hbm"]
_VMEM = LEVEL_IDS["vmem"]
#: Slot ``i`` of a lowering is the DMA level operand ``_SLOT_BASE + i``;
#: no memory level has an id that high, so a slot cannot pass for one,
#: and entry ``_SLOT_BASE + i`` of a level table is slot ``i``'s level.
_SLOT_BASE = len(IDENTITY_LEVELS)
_DMA_OPCODES = (Opcode.DMA_IN, Opcode.DMA_OUT)

#: A level slot's name: ``("home", uid)`` (a weight's home),
#: ``("spill", uid)`` (a spilled intermediate's level) or
#: ``("materialize",)`` (where unfused intermediates round-trip).
SlotName = Tuple


def _slot_level(name: SlotName, memory: MemoryPlan) -> str:
    kind = name[0]
    if kind == "home":
        return memory.home_of(name[1])
    if kind == "spill" and name[1] in memory.spilled:
        return memory.spilled[name[1]]
    if kind == "materialize":
        return memory.materialize_level
    raise ValueError(f"level slot {name} is unbound in the memory plan")


#: One run of a lowered body: an instruction and its repeat count.
InstructionRun = Tuple[Instruction, int]


@dataclass
class LoweredOp:
    """One fusion group's executable form.

    The body is kept in run-length form: ``body_runs`` holds maximal
    ``(instruction, count)`` runs, so a repeated matmul (one per batch
    entry of a batched dot, one per equal M-tile) is one entry.
    Lowering and binding intern instructions by value, so runs merged by
    identity are maximal under equality too. :attr:`body` is the
    expanded list.
    """

    group_id: int
    description: str
    prologue: List[Instruction] = field(default_factory=list)  # hoisted DMAs
    body_runs: List[InstructionRun] = field(default_factory=list)  # waits+work
    epilogue: List[Instruction] = field(default_factory=list)  # store DMAs

    def emit(self, inst: Instruction, count: int = 1) -> None:
        """Append ``count`` copies of ``inst`` to the body."""
        runs = self.body_runs
        if runs and runs[-1][0] is inst:
            runs[-1] = (inst, runs[-1][1] + count)
        else:
            runs.append((inst, count))

    @property
    def body(self) -> List[Instruction]:
        return [inst for inst, count in self.body_runs
                for _ in range(count)]

    def all_instructions(self) -> List[Instruction]:
        return self.prologue + self.body + self.epilogue


class LoweredModule:
    """A module's lowered ops, with plan-dependent DMA levels as slots.

    Attributes:
        ops: the lowered ops; their DMAs may name a level slot.
        slots: slot ``i``'s name (see :data:`SlotName`).
        interned: every instruction lowering emitted, by ``(opcode,
            args)``; binding reuses these objects for equal values.
        slotted: the distinct instructions that name a slot.

    A plain class, not a dataclass: it needs no generated equality or
    repr, and declaring a dataclass adds about a millisecond to every
    import of the compiler.
    """

    def __init__(self, ops: List[LoweredOp], slots: Tuple[SlotName, ...],
                 interned: Dict[Tuple[Opcode, Tuple[int, ...]], Instruction]
                 ) -> None:
        self.ops = ops
        self.slots = slots
        self.interned = interned
        self.slotted = [inst for (opcode, args), inst in interned.items()
                        if opcode in _DMA_OPCODES and args[0] >= _SLOT_BASE]

    def levels(self, memory: MemoryPlan) -> LevelTable:
        """``memory``'s level table: each memory level's operand stands
        for itself and slot ``i``'s operand for the level ``memory``
        gives it.

        Raises ``ValueError`` if ``memory`` leaves a slot unbound.
        """
        return IDENTITY_LEVELS + tuple(
            LEVEL_IDS[_slot_level(name, memory)] for name in self.slots)

    def bound(self, levels: LevelTable) -> Dict[int, Instruction]:
        """``id(instruction) -> instruction`` with its slot filled from
        the level table ``levels``, for every instruction that names a
        slot.

        Bound instructions are interned by value, against the lowering's
        own instructions too, so equal instructions stay one object.
        """
        made: Dict[Tuple[Opcode, Tuple[int, ...]], Instruction] = {}
        out: Dict[int, Instruction] = {}
        for inst in self.slotted:
            level, *rest = inst.args
            key = (inst.opcode, (levels[level], *rest))
            bound = self.interned.get(key) or made.get(key)
            if bound is None:
                bound = made[key] = Instruction(*key)
            out[id(inst)] = bound
        return out

    def bind(self, memory: MemoryPlan) -> List[LoweredOp]:
        """The lowered ops with every level slot filled from ``memory``."""
        bound = self.bound(self.levels(memory))

        def fill(insts: List[Instruction]) -> List[Instruction]:
            return [bound.get(id(inst), inst) for inst in insts]

        ops = []
        for op in self.ops:
            out = LoweredOp(op.group_id, op.description, fill(op.prologue),
                            epilogue=fill(op.epilogue))
            for inst, count in op.body_runs:
                out.emit(bound.get(id(inst), inst), count)
            ops.append(out)
        return ops


class _FlagAllocator:
    """Round-robin sync-flag ids (64 architectural flags)."""

    def __init__(self) -> None:
        self._next = 0

    def take(self) -> int:
        flag = self._next
        self._next = (self._next + 1) % _NUM_FLAGS
        return flag


class _Lowerer:
    def __init__(self, module: HloModule, fusion: FusionPlan,
                 chip: ChipConfig, version: CompilerVersion) -> None:
        self.module = module
        self.fusion = fusion
        self.chip = chip
        self.version = version
        self.flags = _FlagAllocator()
        # uid -> where the tensor is available: a level id or level slot.
        self.location: Dict[int, int] = {}
        self.slot_of: Dict[SlotName, int] = {}
        # uid -> store flag of the DMA that materialized it (for ordering).
        self.store_flag: Dict[int, int] = {}
        self.elem_bytes = 1 if module.root.shape.dtype_name == "int8" else 2
        self.spilled = {inst.uid for inst
                        in spilled_instructions(module, chip.vmem_bytes)}
        working = int(chip.vmem_bytes * _VMEM_WORKING_FRACTION)
        self.materialize_threshold = working // _MATERIALIZE_DIVISOR
        # (opcode, args) -> the one Instruction this lowering emits for
        # it. Instructions are immutable, so repeats share one object and
        # each distinct value is built (and its operands checked) once.
        self._interned: Dict[Tuple[Opcode, Tuple[int, ...]], Instruction] = {}

    def _slot(self, *name) -> int:
        """The level operand naming slot ``name`` (added on first use)."""
        return self.slot_of.setdefault(name, _SLOT_BASE + len(self.slot_of))

    def _inst(self, opcode: Opcode, args: Tuple[int, ...]) -> Instruction:
        key = (opcode, args)
        inst = self._interned.get(key)
        if inst is None:
            inst = self._interned[key] = Instruction(opcode, args)
        return inst

    # ------------------------------------------------------------ DMA helpers

    def _emit_load(self, op: LoweredOp, level: int, num_bytes: int,
                   after_flag: Optional[int] = None) -> int:
        """Emit a DMA_IN; returns the flag to wait on before using the data.

        With ``prefetch`` the DMA goes to the prologue (hoisted, overlapped);
        without it the DMA is synchronous: emitted in the body and waited on
        immediately.
        """
        flag = self.flags.take()
        if after_flag is not None:
            op.emit(self._inst(Opcode.SYNC_WAIT, (after_flag,)))
        load = self._inst(Opcode.DMA_IN, (level, max(1, int(num_bytes)), flag))
        if self.version.has("prefetch") and after_flag is None:
            op.prologue.append(load)
        else:
            op.emit(load)
            if not self.version.has("prefetch"):
                op.emit(self._inst(Opcode.SYNC_WAIT, (flag,)))
        return flag

    def _emit_store(self, op: LoweredOp, level: int, num_bytes: int) -> int:
        flag = self.flags.take()
        op.epilogue.append(self._inst(
            Opcode.DMA_OUT, (level, max(1, int(num_bytes)), flag)))
        return flag

    def _wait(self, op: LoweredOp, flag: Optional[int]) -> None:
        if flag is not None:
            op.emit(self._inst(Opcode.SYNC_WAIT, (flag,)))

    def _stage_operand(self, op: LoweredOp, operand: HloInstruction) -> None:
        """Bring one operand into VMEM if it is not already there."""
        location = self._location_of(operand)
        if location == _VMEM:
            return
        flag = self._emit_load(op, location, operand.shape.byte_size,
                               after_flag=self.store_flag.get(operand.uid))
        self._wait(op, flag)

    def _location_of(self, operand: HloInstruction) -> int:
        if operand.opcode == "parameter":
            return _HBM
        if operand.opcode == "constant":
            if self.version.has("cmem_alloc"):
                return self._slot("home", operand.uid)
            return _HBM
        return self.location.get(operand.uid, _VMEM)

    # --------------------------------------------------------------- matmuls

    def _lower_matmul(self, op: LoweredOp, inst: HloInstruction,
                      m: int, k: int, n: int) -> None:
        weight = inst.operands[1]
        activation = inst.operands[0]
        weight_home = self._location_of(weight)
        weight_bytes = k * n * self.elem_bytes

        vmem_working = int(self.chip.vmem_bytes * _VMEM_WORKING_FRACTION)
        tiles = plan_matmul_tiles(
            m, k, n, self.chip, vmem_budget=vmem_working,
            good_tiling=self.version.has("good_tiling"))

        weight_budget = int(self.chip.vmem_bytes * _VMEM_WEIGHT_FRACTION)
        weight_resident = weight_bytes <= weight_budget
        weight_streams = 1 if weight_resident else len(tiles)

        act_location = self._location_of(activation)
        act_bytes_total = m * k * self.elem_bytes
        act_store = self.store_flag.get(activation.uid)
        weight_store = self.store_flag.get(weight.uid)

        # Weight stream(s).
        weight_flags: List[int] = []
        for _ in range(weight_streams):
            if weight_home == _VMEM:
                break
            weight_flags.append(self._emit_load(op, weight_home, weight_bytes,
                                                after_flag=weight_store))
            weight_store = None  # ordering enforced once

        # Per-tile activation stream + compute.
        for index, tile in enumerate(tiles):
            if act_location != _VMEM:
                share = tile.rows / m
                flag = self._emit_load(
                    op, act_location, int(math.ceil(act_bytes_total * share)),
                    after_flag=act_store)
                act_store = None
                self._wait(op, flag)
            if weight_flags:
                wait_index = min(index, len(weight_flags) - 1)
                self._wait(op, weight_flags[wait_index])
            op.emit(self._inst(Opcode.MXM, (tile.rows, k, n)))

    def _lower_batched_dot(self, op: LoweredOp, root: HloInstruction) -> None:
        """Attention-style activation x activation matmul: one MXU matmul
        per batch/head entry (distinct "weights" each time)."""
        for operand in root.operands:
            self._stage_operand(op, operand)
        batch, m, k = root.operands[0].shape.dims
        n = root.operands[1].shape.dims[2]
        op.emit(self._inst(Opcode.MXM, (m, k, n)), batch)

    # ---------------------------------------------------------------- vector

    def _lower_vector(self, op: LoweredOp, inst: HloInstruction) -> None:
        definition = opdef(inst.opcode)
        if definition.kind == "pool":
            window = int(inst.attr("window", 2))
            op.emit(self._inst(
                Opcode.VREDUCE,
                (inst.operands[0].shape.num_elements, window * window)))
            return
        if definition.kind == "reduce":
            axis = int(inst.attr("axis", inst.operands[0].shape.rank - 1))
            axis_len = inst.operands[0].shape.dims[axis]
            op.emit(self._inst(
                Opcode.VREDUCE,
                (inst.operands[0].shape.num_elements, axis_len)))
            return
        opcode = _VECTOR_OPCODES[definition.vpu_class]
        op.emit(self._inst(opcode, (inst.shape.num_elements,)))

    # ---------------------------------------------------------------- gather

    # Minimum DRAM burst per random row access; short embedding rows pay
    # the full burst (the random-access tax that makes embedding lookups
    # bandwidth-inefficient on real HBM).
    _MIN_BURST_BYTES = 256

    def _lower_gather(self, op: LoweredOp, inst: HloInstruction) -> None:
        table = inst.operands[0]
        home = self._location_of(table)
        if home == _VMEM:
            home = _HBM
        row_bytes = table.shape.dims[1] * table.shape.dtype.size_bytes
        rows = inst.shape.num_elements // max(1, table.shape.dims[1])
        read_bytes = rows * max(row_bytes, self._MIN_BURST_BYTES)
        flag = self._emit_load(op, home, read_bytes)
        self._wait(op, flag)
        op.emit(self._inst(Opcode.VCOPY, (inst.shape.num_elements,)))

    # ----------------------------------------------------------------- group

    def lower_group(self, gid: int,
                    members: List[HloInstruction]) -> Optional[LoweredOp]:
        root = members[0]
        if root.kind == "data":
            for member in members:
                self.location[member.uid] = self._location_of(member)
            return None
        if root.kind == "shape":
            for member in members:
                src = member.operands[0] if member.operands else None
                self.location[member.uid] = (
                    self._location_of(src) if src is not None else _VMEM)
                if src is not None and src.uid in self.store_flag:
                    self.store_flag[member.uid] = self.store_flag[src.uid]
            return None

        op = LoweredOp(group_id=gid, description=root.name or root.opcode)

        if root.opcode == "batched_dot":
            self._lower_batched_dot(op, root)
        elif root.kind in ("matmul", "conv"):
            if root.kind == "matmul":
                lhs = root.operands[0].shape
                m = math.prod(lhs.dims[:-1])
                k = lhs.dims[-1]
                n = root.operands[1].shape.dims[1]
            else:
                filt = root.operands[1].shape
                n_batch, oh, ow, cout = root.shape.dims
                kh, kw, cin, _ = filt.dims
                m, k, n = n_batch * oh * ow, kh * kw * cin, cout
            self._lower_matmul(op, root, m, k, n)
        elif root.kind == "gather":
            self._lower_gather(op, root)
        else:  # unary / binary / reduce / pool root
            for operand in root.operands:
                self._stage_operand(op, operand)
            self._lower_vector(op, root)

        # Fused followers: VPU work only; extra non-resident operands of the
        # followers (bias vectors, residual inputs) are staged too.
        for member in members[1:]:
            if member.kind in ("unary", "binary", "reduce", "pool"):
                for operand in member.operands:
                    if operand.uid in (m.uid for m in members):
                        continue
                    if operand.shape.byte_size > self.materialize_threshold:
                        self._stage_operand(op, operand)
                self._lower_vector(op, member)
            # shape followers are free

        self._place_output(op, members)
        return op

    def _place_output(self, op: LoweredOp, members: List[HloInstruction]) -> None:
        tail = members[-1]
        size = tail.shape.byte_size

        if tail.uid == self.module.root.uid:
            self._emit_store(op, _HBM, size)
            self.location[tail.uid] = _HBM
        elif tail.uid in self.spilled:
            level = self._slot("spill", tail.uid)
            self.store_flag[tail.uid] = self._emit_store(op, level, size)
            self.location[tail.uid] = level
        elif (not self.version.has("fusion")
              and size > self.materialize_threshold):
            # Naive executor: materialize sizeable intermediates off-VMEM.
            level = (self._slot("materialize")
                     if self.version.has("cmem_alloc") else _HBM)
            self.store_flag[tail.uid] = self._emit_store(op, level, size)
            self.location[tail.uid] = level
        else:
            self.location[tail.uid] = _VMEM
        for member in members:
            self.location.setdefault(member.uid, self.location[tail.uid])


def lower_module(module: HloModule, fusion: FusionPlan, chip: ChipConfig,
                 version: CompilerVersion) -> LoweredModule:
    """Lower a composite-free module, leaving plan-dependent levels as
    slots; :meth:`LoweredModule.bind` makes the ops executable."""
    lowerer = _Lowerer(module, fusion, chip, version)
    by_uid = {inst.uid: inst for inst in module.instructions}
    lowered: List[LoweredOp] = []
    for gid in sorted(fusion.members):
        members = [by_uid[uid] for uid in fusion.members[gid]]
        op = lowerer.lower_group(gid, members)
        if op is not None:
            lowered.append(op)
    return LoweredModule(lowered, tuple(lowerer.slot_of), lowerer._interned)
