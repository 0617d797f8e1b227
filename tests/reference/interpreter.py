"""Test-only oracle for the timing engine: the per-instruction interpreter.

:func:`run_interpreted` walks a program one instruction at a time with
the rules of :mod:`repro.sim.core`'s model statement: bundles issue in
order, ``sync.wait`` stalls until its flag's cycle, the MXU and VPU are
pipelined units serialized by their free time, and DMA descriptors go to
per-level :class:`DmaEngine` pools whose transfers stamp sync flags. The
production path (``TensorCoreSim.run`` = ``lower_program`` +
``FastReplay.run``, one face of the grid kernel) must match it bit for
bit: cycles, every ``PerfCounters`` field and every per-level byte count
(``tests/test_fastsim.py``, ``tests/test_gridsim.py``).
``tests/conftest.py::reference_paths`` patches it in for
``TensorCoreSim.run``.

The engine count and the descriptor overhead are stated here again, not
imported from the kernel, so a change to either side shows as a
mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.arch.memory import MemorySystem
from repro.arch.mxu import MxuModel
from repro.arch.vpu import VpuModel
from repro.isa.instructions import (
    Instruction,
    LEVEL_NAMES,
    Opcode,
    VECTOR_OP_CLASS,
)
from repro.isa.program import Program
from repro.sim.core import SimResult, TensorCoreSim
from repro.sim.gridkernel import check_runnable
from repro.sim.perf import PerfCounters, build_report

#: DMA engines per memory level.
ENGINES_PER_LEVEL = 4


class MemoryLedger(MemorySystem):
    """A chip's memory hierarchy plus a per-level byte-traffic ledger."""

    def __init__(self, chip) -> None:
        super().__init__(chip)
        self._traffic: Dict[str, float] = {
            level.name: 0.0 for level in self.levels()}

    def record_traffic(self, name: str, num_bytes: float) -> None:
        """Log bytes moved at a level."""
        if num_bytes < 0:
            raise ValueError("bytes must be non-negative")
        self.level(name)  # validate
        self._traffic[name] = self._traffic.get(name, 0.0) + num_bytes

    def traffic(self) -> Dict[str, float]:
        """Bytes moved per level since construction."""
        return dict(self._traffic)


@dataclass(frozen=True)
class DmaTransfer:
    """One completed DMA: where it moved bytes and when.

    ``start_cycle``/``end_cycle`` are in core cycles. ``source`` is the
    bandwidth-limiting level (``"hbm"`` or ``"cmem"``).
    """

    source: str
    num_bytes: float
    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


class DmaEngine:
    """One DMA queue issuing serialized transfers from a memory level.

    ``contention`` scales effective bandwidth down when multiple engines
    share the level (the interpreter sets it to the number of engines on
    the same level still busy at issue).
    """

    def __init__(self, memory: MemoryLedger, source: str, *,
                 per_transfer_overhead_cycles: int = 64) -> None:
        self.memory = memory
        self.source = source
        self.overhead = per_transfer_overhead_cycles
        self.busy_until = 0
        self.completed: List[DmaTransfer] = []
        memory.level(source)  # validate the level exists on this chip

    def issue(self, num_bytes: float, issue_cycle: int,
              contention: int = 1) -> DmaTransfer:
        """Issue a transfer; returns its completion record.

        The transfer starts when both the engine is free and the descriptor
        has been issued; duration is streaming time at ``bandwidth /
        contention`` plus fixed descriptor overhead.
        """
        if num_bytes < 0:
            raise ValueError("bytes must be non-negative")
        if contention < 1:
            raise ValueError("contention must be >= 1")
        level = self.memory.level(self.source)
        start = max(self.busy_until, issue_cycle)
        streaming_s = num_bytes * contention / level.bandwidth
        duration = self.overhead + level.latency_cycles + math.ceil(
            streaming_s * self.memory.chip.clock_hz)
        end = start + duration
        self.busy_until = end
        self.memory.record_traffic(self.source, num_bytes)
        transfer = DmaTransfer(self.source, num_bytes, start, end)
        self.completed.append(transfer)
        return transfer

    def busy_cycles(self) -> int:
        """Cycles this engine spent transferring (its queue occupancy)."""
        return sum(t.duration for t in self.completed)


@dataclass
class _RunState:
    """Execution-unit state local to one interpreted run."""

    mxu: MxuModel
    vpu: VpuModel
    memory: MemoryLedger
    engines: Dict[str, List[DmaEngine]]
    counters: PerfCounters
    elem_bytes: int
    mxu_free: int = 0
    vpu_free: int = 0
    flags: Dict[int, int] = field(default_factory=dict)


def run_interpreted(sim: TensorCoreSim, program: Program, *,
                    dtype: str = "bf16") -> SimResult:
    """Interpret ``program`` on ``sim``'s chip; the timing oracle."""
    chip = sim.chip
    check_runnable(chip, program.generation, dtype)
    memory = MemoryLedger(chip)
    engines = {level.name: [DmaEngine(memory, level.name)
                            for _ in range(ENGINES_PER_LEVEL)]
               for level in memory.levels() if level.name != "vmem"}
    counters = PerfCounters()
    state = _RunState(MxuModel(chip), VpuModel(chip), memory, engines,
                      counters, 1 if dtype == "int8" else 2)

    issue = 0
    halted = False
    for bundle in program.bundles:
        if halted:
            break
        counters.bundles += 1
        bundle_issue = issue
        for inst in bundle.instructions:
            issue = _execute(chip.name, inst, issue, state)
            if inst.opcode is Opcode.HALT:
                halted = True
                break
        issue = max(issue, bundle_issue + 1)

    dma_end = max(
        (engine.busy_until for pool in engines.values() for engine in pool),
        default=0)
    total = max(issue, state.mxu_free, state.vpu_free, dma_end,
                max(state.flags.values(), default=0))
    counters.cycles = max(1, total)
    counters.dma_busy_cycles = sum(
        engine.busy_cycles() for pool in engines.values() for engine in pool)
    for level, moved in memory.traffic().items():
        counters.add_bytes(level, moved)

    report = build_report(chip, program.name, counters, dtype)
    return SimResult(report=report, counters=counters)


def _execute(chip_name: str, inst: Instruction, issue: int,
             state: _RunState) -> int:
    """Execute one instruction; returns the updated issue cycle."""
    op = inst.opcode
    counters = state.counters

    if op is Opcode.SYNC_WAIT:
        target = state.flags.get(inst.args[0], 0)
        if target > issue:
            counters.sync_stall_cycles += target - issue
            return target
        return issue

    if op is Opcode.SYNC_SET:
        state.flags[inst.args[0]] = issue
        return issue

    if op in (Opcode.DMA_IN, Opcode.DMA_OUT):
        level_name = LEVEL_NAMES[inst.args[0]]
        num_bytes = inst.args[1]
        flag = inst.args[2]
        pool = state.engines.get(level_name)
        if pool is None:
            raise ValueError(
                f"{chip_name} has no DMA path to {level_name!r}")
        engine = min(pool, key=lambda e: e.busy_until)
        active = sum(1 for e in pool if e.busy_until > issue)
        transfer = engine.issue(num_bytes, issue, contention=max(1, active))
        state.flags[flag] = transfer.end_cycle
        return issue

    if op is Opcode.MXM:
        m, k, n = inst.args
        timing = state.mxu.matmul(m, k, n)
        start = max(issue, state.mxu_free)
        state.mxu_free = start + timing.cycles
        counters.macs += timing.macs
        counters.mxu_busy_cycles += timing.cycles
        # Operand/result traffic through VMEM.
        state.memory.record_traffic(
            "vmem", (m * k + k * n + m * n) * state.elem_bytes)
        return issue

    if op is Opcode.MXM_LOADW or op is Opcode.MXM_TRANSPOSE:
        a, _ = inst.args
        cycles = max(1, a)
        start = max(issue, state.mxu_free)
        state.mxu_free = start + cycles
        counters.mxu_busy_cycles += cycles
        return issue

    if op in VECTOR_OP_CLASS:
        return _execute_vector(inst, issue, state)

    if op is Opcode.HALT:
        return issue

    # Scalar ops: single-cycle.
    counters.scalar_ops += 1
    return issue


def _execute_vector(inst: Instruction, issue: int, state: _RunState) -> int:
    if inst.opcode is Opcode.VREDUCE:
        elements, axis_len = inst.args
        timing = state.vpu.reduction(elements, max(1, axis_len))
    else:
        elements = inst.args[0]
        timing = state.vpu.elementwise(VECTOR_OP_CLASS[inst.opcode], elements)
    start = max(issue, state.vpu_free)
    state.vpu_free = start + timing.cycles
    state.counters.vector_alu_ops += timing.alu_ops
    state.counters.vpu_busy_cycles += timing.cycles
    state.memory.record_traffic("vmem", 2 * elements * state.elem_bytes)
    return issue
