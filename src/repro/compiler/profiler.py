"""Per-operator cost attribution: where does an inference spend its time?

The simulator reports totals; performance work needs *attribution*. The
profiler lowers a module and prices each fusion group in isolation —
MXU cycles from the systolic model, VPU cycles from the vector model,
DMA time from the source level's bandwidth — then reports the top
operators and the compute/vector/memory split.

Costs are *unoverlapped*: each group's MXU, VPU, and DMA components are
summed as if nothing hides behind anything. The total therefore exceeds
the simulator's (overlapped) latency; the ratio between them is printed
as the pipeline's overlap efficiency, itself a useful number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.chip import ChipConfig
from repro.arch.memory import MemorySystem
from repro.arch.mxu import MxuModel
from repro.arch.vpu import VpuModel
from repro.compiler.lowering import LoweredOp
from repro.compiler.pipeline import lower_stages
from repro.compiler.versions import CompilerVersion, LATEST
from repro.graph.hlo import HloModule
from repro.isa.instructions import LEVEL_NAMES, Opcode, VECTOR_OP_CLASS


@dataclass(frozen=True)
class OpProfile:
    """Unoverlapped cost of one lowered operator."""

    description: str
    mxu_cycles: int
    vpu_cycles: int
    dma_cycles: int
    dma_bytes: float

    @property
    def total_cycles(self) -> int:
        return self.mxu_cycles + self.vpu_cycles + self.dma_cycles

    @property
    def bound_by(self) -> str:
        parts = (("mxu", self.mxu_cycles), ("vpu", self.vpu_cycles),
                 ("dma", self.dma_cycles))
        return max(parts, key=lambda p: p[1])[0]


@dataclass(frozen=True)
class ModuleProfile:
    """Full attribution for one module on one chip."""

    model: str
    chip: str
    ops: Tuple[OpProfile, ...]

    @property
    def total_cycles(self) -> int:
        return sum(op.total_cycles for op in self.ops)

    def category_cycles(self) -> Dict[str, int]:
        """Cycles by component across all operators."""
        return {
            "mxu": sum(op.mxu_cycles for op in self.ops),
            "vpu": sum(op.vpu_cycles for op in self.ops),
            "dma": sum(op.dma_cycles for op in self.ops),
        }

    def top(self, count: int = 10) -> List[OpProfile]:
        """The heaviest operators, descending."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return sorted(self.ops, key=lambda op: op.total_cycles,
                      reverse=True)[:count]

    def render(self, count: int = 10) -> str:
        """Human-readable report."""
        lines = [f"profile of {self.model} on {self.chip} "
                 f"({len(self.ops)} operators, unoverlapped)"]
        categories = self.category_cycles()
        total = max(1, self.total_cycles)
        lines.append("  split: " + ", ".join(
            f"{name} {cycles / total:.0%}"
            for name, cycles in categories.items()))
        width = max((len(op.description) for op in self.top(count)),
                    default=10)
        for op in self.top(count):
            lines.append(
                f"  {op.description.ljust(width)} "
                f"{op.total_cycles:>12,} cyc "
                f"({op.total_cycles / total:5.1%})  [{op.bound_by}]")
        return "\n".join(lines)


def _price_op(op: LoweredOp, chip: ChipConfig, mxu: MxuModel, vpu: VpuModel,
              memory: MemorySystem) -> OpProfile:
    mxu_cycles = 0
    vpu_cycles = 0
    dma_cycles = 0
    dma_bytes = 0.0
    for inst in op.all_instructions():
        if inst.opcode is Opcode.MXM:
            mxu_cycles += mxu.matmul(*inst.args).cycles
        elif inst.opcode in (Opcode.MXM_LOADW, Opcode.MXM_TRANSPOSE):
            mxu_cycles += max(1, inst.args[0])
        elif inst.opcode is Opcode.VREDUCE:
            elements, axis_len = inst.args
            vpu_cycles += vpu.reduction(elements, max(1, axis_len)).cycles
        elif inst.opcode in VECTOR_OP_CLASS:
            vpu_cycles += vpu.elementwise(VECTOR_OP_CLASS[inst.opcode],
                                          inst.args[0]).cycles
        elif inst.opcode in (Opcode.DMA_IN, Opcode.DMA_OUT):
            level = LEVEL_NAMES[inst.args[0]]
            dma_cycles += memory.stream_cycles(level, inst.args[1])
            dma_bytes += inst.args[1]
    return OpProfile(
        description=op.description,
        mxu_cycles=mxu_cycles,
        vpu_cycles=vpu_cycles,
        dma_cycles=dma_cycles,
        dma_bytes=dma_bytes,
    )


def profile_module(module: HloModule, chip: ChipConfig, *,
                   version: CompilerVersion = LATEST) -> ModuleProfile:
    """Lower and price every operator of a module for one chip."""
    lowered = lower_stages(module, chip, version)[3]
    mxu = MxuModel(chip)
    vpu = VpuModel(chip)
    memory = MemorySystem(chip)
    ops = tuple(_price_op(op, chip, mxu, vpu, memory) for op in lowered)
    return ModuleProfile(model=module.name, chip=chip.name, ops=ops)
