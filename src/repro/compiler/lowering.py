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
from repro.compiler.allocator import MemoryPlan
from repro.compiler.fusion import FusionPlan
from repro.compiler.tiling import plan_matmul_tiles
from repro.compiler.versions import CompilerVersion
from repro.graph.hlo import HloInstruction, HloModule
from repro.graph.ops import opdef
from repro.isa.instructions import Instruction, LEVEL_IDS, Opcode

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


@dataclass
class LoweredOp:
    """One fusion group's executable form."""

    group_id: int
    description: str
    prologue: List[Instruction] = field(default_factory=list)  # hoisted DMAs
    body: List[Instruction] = field(default_factory=list)      # waits + compute
    epilogue: List[Instruction] = field(default_factory=list)  # store DMAs

    def all_instructions(self) -> List[Instruction]:
        return self.prologue + self.body + self.epilogue


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
                 memory: MemoryPlan, chip: ChipConfig,
                 version: CompilerVersion) -> None:
        self.module = module
        self.fusion = fusion
        self.memory = memory
        self.chip = chip
        self.version = version
        self.flags = _FlagAllocator()
        # uid -> where the tensor is available: "vmem", "cmem", or "hbm".
        self.location: Dict[int, str] = {}
        # uid -> store flag of the DMA that materialized it (for ordering).
        self.store_flag: Dict[int, int] = {}
        self.elem_bytes = 1 if module.root.shape.dtype_name == "int8" else 2
        working = int(chip.vmem_bytes * _VMEM_WORKING_FRACTION)
        self.materialize_threshold = working // _MATERIALIZE_DIVISOR
        # (opcode, args) -> the one Instruction this lowering emits for
        # it. Instructions are immutable, so repeats share one object and
        # each distinct value is built (and its operands checked) once.
        self._interned: Dict[Tuple[Opcode, Tuple[int, ...]], Instruction] = {}

    def _inst(self, opcode: Opcode, args: Tuple[int, ...]) -> Instruction:
        key = (opcode, args)
        inst = self._interned.get(key)
        if inst is None:
            inst = self._interned[key] = Instruction(opcode, args)
        return inst

    # ------------------------------------------------------------ DMA helpers

    def _emit_load(self, op: LoweredOp, level: str, num_bytes: int,
                   after_flag: Optional[int] = None) -> int:
        """Emit a DMA_IN; returns the flag to wait on before using the data.

        With ``prefetch`` the DMA goes to the prologue (hoisted, overlapped);
        without it the DMA is synchronous: emitted in the body and waited on
        immediately.
        """
        flag = self.flags.take()
        if after_flag is not None:
            op.body.append(self._inst(Opcode.SYNC_WAIT, (after_flag,)))
        load = self._inst(Opcode.DMA_IN,
                           (LEVEL_IDS[level], max(1, int(num_bytes)), flag))
        if self.version.has("prefetch") and after_flag is None:
            op.prologue.append(load)
        else:
            op.body.append(load)
            if not self.version.has("prefetch"):
                op.body.append(self._inst(Opcode.SYNC_WAIT, (flag,)))
        return flag

    def _emit_store(self, op: LoweredOp, level: str, num_bytes: int) -> int:
        flag = self.flags.take()
        op.epilogue.append(self._inst(
            Opcode.DMA_OUT, (LEVEL_IDS[level], max(1, int(num_bytes)), flag)))
        return flag

    def _wait(self, op: LoweredOp, flag: Optional[int]) -> None:
        if flag is not None:
            op.body.append(self._inst(Opcode.SYNC_WAIT, (flag,)))

    def _stage_operand(self, op: LoweredOp, operand: HloInstruction) -> None:
        """Bring one operand into VMEM if it is not already there."""
        location = self._location_of(operand)
        if location == "vmem":
            return
        flag = self._emit_load(op, location, operand.shape.byte_size,
                               after_flag=self.store_flag.get(operand.uid))
        self._wait(op, flag)

    def _location_of(self, operand: HloInstruction) -> str:
        if operand.opcode == "parameter":
            return "hbm"
        if operand.opcode == "constant":
            if self.version.has("cmem_alloc"):
                return self.memory.home_of(operand.uid)
            return "hbm"
        return self.location.get(operand.uid, "vmem")

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
            if weight_home == "vmem":
                break
            weight_flags.append(self._emit_load(op, weight_home, weight_bytes,
                                                after_flag=weight_store))
            weight_store = None  # ordering enforced once

        # Per-tile activation stream + compute.
        for index, tile in enumerate(tiles):
            if act_location != "vmem":
                share = tile.rows / m
                flag = self._emit_load(
                    op, act_location, int(math.ceil(act_bytes_total * share)),
                    after_flag=act_store)
                act_store = None
                self._wait(op, flag)
            if weight_flags:
                wait_index = min(index, len(weight_flags) - 1)
                self._wait(op, weight_flags[wait_index])
            op.body.append(self._inst(Opcode.MXM, (tile.rows, k, n)))

    def _lower_batched_dot(self, op: LoweredOp, root: HloInstruction) -> None:
        """Attention-style activation x activation matmul: one MXU matmul
        per batch/head entry (distinct "weights" each time)."""
        for operand in root.operands:
            self._stage_operand(op, operand)
        batch, m, k = root.operands[0].shape.dims
        n = root.operands[1].shape.dims[2]
        op.body.extend([self._inst(Opcode.MXM, (m, k, n))] * batch)

    # ---------------------------------------------------------------- vector

    def _lower_vector(self, op: LoweredOp, inst: HloInstruction) -> None:
        definition = opdef(inst.opcode)
        if definition.kind == "pool":
            window = int(inst.attr("window", 2))
            op.body.append(self._inst(
                Opcode.VREDUCE,
                (inst.operands[0].shape.num_elements, window * window)))
            return
        if definition.kind == "reduce":
            axis = int(inst.attr("axis", inst.operands[0].shape.rank - 1))
            axis_len = inst.operands[0].shape.dims[axis]
            op.body.append(self._inst(
                Opcode.VREDUCE,
                (inst.operands[0].shape.num_elements, axis_len)))
            return
        opcode = _VECTOR_OPCODES[definition.vpu_class]
        op.body.append(self._inst(opcode, (inst.shape.num_elements,)))

    # ---------------------------------------------------------------- gather

    # Minimum DRAM burst per random row access; short embedding rows pay
    # the full burst (the random-access tax that makes embedding lookups
    # bandwidth-inefficient on real HBM).
    _MIN_BURST_BYTES = 256

    def _lower_gather(self, op: LoweredOp, inst: HloInstruction) -> None:
        table = inst.operands[0]
        home = self._location_of(table)
        if home == "vmem":
            home = "hbm"
        row_bytes = table.shape.dims[1] * table.shape.dtype.size_bytes
        rows = inst.shape.num_elements // max(1, table.shape.dims[1])
        read_bytes = rows * max(row_bytes, self._MIN_BURST_BYTES)
        flag = self._emit_load(op, home, read_bytes)
        self._wait(op, flag)
        op.body.append(self._inst(Opcode.VCOPY, (inst.shape.num_elements,)))

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
                    self._location_of(src) if src is not None else "vmem")
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
        spill_level = self.memory.spilled.get(tail.uid)
        size = tail.shape.byte_size

        if tail.uid == self.module.root.uid:
            self._emit_store(op, "hbm", size)
            self.location[tail.uid] = "hbm"
        elif spill_level is not None:
            self.store_flag[tail.uid] = self._emit_store(op, spill_level, size)
            self.location[tail.uid] = spill_level
        elif (not self.version.has("fusion")
              and size > self.materialize_threshold):
            # Naive executor: materialize sizeable intermediates off-VMEM.
            level = "cmem" if (self.chip.has_cmem
                               and self.version.has("cmem_alloc")) else "hbm"
            self.store_flag[tail.uid] = self._emit_store(op, level, size)
            self.location[tail.uid] = level
        else:
            self.location[tail.uid] = "vmem"
        for member in members:
            self.location.setdefault(member.uid, self.location[tail.uid])


def lower_module(module: HloModule, fusion: FusionPlan, memory: MemoryPlan,
                 chip: ChipConfig, version: CompilerVersion) -> List[LoweredOp]:
    """Lower a composite-free module into executable lowered ops."""
    lowerer = _Lowerer(module, fusion, memory, chip, version)
    by_uid = {inst.uid: inst for inst in module.instructions}
    lowered: List[LoweredOp] = []
    for gid in sorted(fusion.members):
        members = [by_uid[uid] for uid in fusion.members[gid]]
        op = lowerer.lower_group(gid, members)
        if op is not None:
            lowered.append(op)
    return lowered
