"""The TensorCore simulator: timing execution of compiled programs.

Model (cycle-approximate, per DESIGN.md's fidelity statement):

* bundles issue in order, one per cycle minimum;
* ``sync.wait`` stalls issue until the named flag's completion cycle —
  this is the only blocking primitive, exactly like the hardware;
* the MXU and VPU are pipelined units serialized by their own free time;
  MXM timing comes from :class:`~repro.arch.mxu.MxuModel` (fill/drain,
  weight-reload exposure), vector timing from
  :class:`~repro.arch.vpu.VpuModel`;
* DMA instructions dispatch to per-level engine pools; concurrent engines
  on one level split its bandwidth (contention), and each completed
  transfer stamps its sync flag;
* completion is the max over issue, units, and outstanding DMAs.

:meth:`TensorCoreSim.run` prices a program through the one production
timing engine, the grid kernel (:mod:`repro.sim.gridkernel`, reached via
:func:`~repro.sim.lowered.lower_program` and
:class:`~repro.sim.lowered.FastReplay`).
:meth:`TensorCoreSim.run_interpreted` walks the instructions one by one
with the rules above; it is the test-only oracle the kernel matches bit
for bit.

Multi-core chips (TPUv2/v3) run one request's program on one core; the
chip-level peak numbers already count all cores, and the serving layer
treats cores as independent request servers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.arch.chip import ChipConfig
from repro.arch.dma import DmaEngine
from repro.arch.memory import MemorySystem
from repro.arch.mxu import MxuModel
from repro.arch.vpu import VpuModel
from repro.isa.instructions import (
    Instruction,
    LEVEL_NAMES,
    Opcode,
    SlotClass,
    VECTOR_OP_CLASS,
)
from repro.isa.program import Program
from repro.sim.gridkernel import ENGINES_PER_LEVEL, check_runnable
from repro.sim.lowered import FastReplay, lower_program
from repro.sim.perf import PerfCounters, PerfReport, build_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import SpanTracer


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated execution."""

    report: PerfReport
    counters: PerfCounters

    @property
    def seconds(self) -> float:
        return self.report.seconds

    @property
    def cycles(self) -> int:
        return self.report.cycles


@dataclass
class _RunState:
    """Per-run execution unit state.

    Kept local to one :meth:`TensorCoreSim.run` call (never on the sim
    instance) so a single sim is reentrant: the shared design-point
    registry can reuse one instance across interleaved runs.
    """

    mxu_free: int = 0
    vpu_free: int = 0
    flags: dict[int, int] = field(default_factory=dict)


class TensorCoreSim:
    """Executes :class:`Program` objects on one chip configuration."""

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip
        self.mxu = MxuModel(chip)
        self.vpu = VpuModel(chip)
        self.replay = FastReplay(chip)

    # ------------------------------------------------------------------- run

    def run(self, program: Program, *, dtype: str = "bf16",
            tracer: Optional["SpanTracer"] = None) -> SimResult:
        """Simulate one execution of ``program``; returns timing + counters.

        Lowers the program (:mod:`repro.sim.lowered`) and prices it
        through the grid kernel — bit-identical to the interpreter,
        several times faster. A ``tracer`` receives one span per executed
        instruction (:meth:`FastReplay.run`'s tracing mode) without
        changing the result.
        """
        check_runnable(self.chip, program.generation, dtype)
        return self.replay.run(lower_program(program, self.chip),
                               dtype=dtype, tracer=tracer)

    def run_interpreted(self, program: Program, *,
                        dtype: str = "bf16") -> SimResult:
        """The per-instruction interpreter: the test-only timing oracle.

        No production path calls it; ``tests/test_fastsim.py`` holds
        :meth:`run` to its results bit for bit.
        """
        check_runnable(self.chip, program.generation, dtype)
        memory = MemorySystem(self.chip)
        engines: dict[str, list[DmaEngine]] = {}
        for level in memory.levels():
            if level.name == "vmem":
                continue
            engines[level.name] = [DmaEngine(memory, level.name)
                                   for _ in range(ENGINES_PER_LEVEL)]

        counters = PerfCounters()
        state = _RunState()
        elem_bytes = 1 if dtype == "int8" else 2

        issue = 0
        halted = False

        for bundle in program.bundles:
            if halted:
                break
            counters.bundles += 1
            bundle_issue = issue
            for inst in bundle.instructions:
                issue = self._execute(
                    inst, issue, memory, engines, state, counters,
                    elem_bytes)
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

        report = build_report(self.chip, program.name, counters, dtype)
        return SimResult(report=report, counters=counters)

    # ------------------------------------------------------------- internals

    def _execute(self, inst: Instruction, issue: int, memory: MemorySystem,
                 engines: dict[str, list[DmaEngine]], state: _RunState,
                 counters: PerfCounters, elem_bytes: int) -> int:
        """Execute one instruction; returns the updated issue cycle."""
        op = inst.opcode

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
            pool = engines.get(level_name)
            if pool is None:
                raise ValueError(
                    f"{self.chip.name} has no DMA path to {level_name!r}")
            engine = min(pool, key=lambda e: e.busy_until)
            active = sum(1 for e in pool if e.busy_until > issue)
            transfer = engine.issue(num_bytes, issue,
                                    contention=max(1, active))
            state.flags[flag] = transfer.end_cycle
            return issue

        if op is Opcode.MXM:
            m, k, n = inst.args
            timing = self.mxu.matmul(m, k, n)
            start = max(issue, state.mxu_free)
            state.mxu_free = start + timing.cycles
            counters.macs += timing.macs
            counters.mxu_busy_cycles += timing.cycles
            # Operand/result traffic through VMEM.
            memory.record_traffic(
                "vmem", (m * k + k * n + m * n) * elem_bytes)
            return issue

        if op is Opcode.MXM_LOADW or op is Opcode.MXM_TRANSPOSE:
            a, b = inst.args
            cycles = max(1, a)
            start = max(issue, state.mxu_free)
            state.mxu_free = start + cycles
            counters.mxu_busy_cycles += cycles
            return issue

        if op in VECTOR_OP_CLASS:
            return self._execute_vector(inst, issue, memory, state, counters,
                                        elem_bytes)

        if op is Opcode.HALT:
            return issue

        # Scalar ops: single-cycle.
        counters.scalar_ops += 1
        return issue

    def _execute_vector(self, inst: Instruction, issue: int,
                        memory: MemorySystem, state: _RunState,
                        counters: PerfCounters, elem_bytes: int) -> int:
        op_class = VECTOR_OP_CLASS[inst.opcode]
        if inst.opcode is Opcode.VREDUCE:
            elements, axis_len = inst.args
            timing = self.vpu.reduction(elements, max(1, axis_len))
        else:
            elements = inst.args[0]
            timing = self.vpu.elementwise(op_class, elements)
        start = max(issue, state.vpu_free)
        state.vpu_free = start + timing.cycles
        counters.vector_alu_ops += timing.alu_ops
        counters.vpu_busy_cycles += timing.cycles
        memory.record_traffic("vmem", 2 * elements * elem_bytes)
        return issue

    # ---------------------------------------------------------- model loading

    def weight_load_seconds(self, weight_bytes: float,
                            destination: str = "cmem") -> float:
        """Time to stage a model's weights from HBM at deployment/swap time.

        Loading into CMEM reads HBM once (HBM bandwidth bound); ``"hbm"``
        destination means no staging (weights already there) and costs 0.
        """
        if weight_bytes < 0:
            raise ValueError("bytes must be non-negative")
        if destination == "hbm":
            return 0.0
        if destination != "cmem":
            raise ValueError("destination must be 'cmem' or 'hbm'")
        if not self.chip.has_cmem:
            raise ValueError(f"{self.chip.name} has no CMEM")
        return weight_bytes / self.chip.hbm_bw
