"""Lowered timing IR + fast replay kernel for the TensorCore simulator.

:class:`~repro.sim.core.TensorCoreSim`'s interpreter walks ``Instruction``
dataclasses and prices every MXM/vector op through the unit models on each
run — enum dispatch, attribute access, and :meth:`MxuModel.matmul` calls
dominate cold evaluation. This module splits that work in two:

* :func:`lower_program` — a **one-shot lowering pass** that flattens a
  compiled :class:`~repro.isa.program.Program` into contiguous numeric
  rows (small-int opcode kinds plus pre-priced cycle/MAC/traffic
  operands, no ``Instruction`` objects or enums). Unit timing is memoized
  per distinct shape during the pass, so a program with 4 000 MXMs over a
  dozen tile shapes prices each shape once instead of 4 000 times.
* :class:`FastReplay` — a tight specialized loop over those rows that
  computes **bit-identical** cycle counts, :class:`PerfCounters` fields,
  and per-level byte traffic. Identity holds because replay performs the
  same integer/float operations in the same order as the interpreter
  (DMA durations use the exact expression from
  :meth:`~repro.arch.dma.DmaEngine.issue`); ``tests/test_fastsim.py``
  asserts it across every chip generation, workload, dtype, and batch.

The lowered form is dtype-independent (arithmetic width only scales byte
traffic, applied at replay time), so one lowering serves bf16 and int8
replays. Replay is the only production timing path; the interpreter
(:meth:`~repro.sim.core.TensorCoreSim.run_interpreted`) survives as the
test-only oracle. Tracing is a mode of the same loop: pass a
:class:`~repro.obs.tracer.SpanTracer` to :meth:`FastReplay.run` and each
executed row also emits one span.

Rows are plain tuples ``(kind, a0, a1, a2, f)``; :meth:`LoweredProgram.
arrays` exposes them as numpy columns for vectorized analysis. The
replay loop itself stays sequential because issue/unit state carries a
loop dependency the bit-identity contract cannot break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from repro.arch.chip import ChipConfig
from repro.arch.memory import MemorySystem
from repro.arch.mxu import MxuModel
from repro.arch.vpu import VpuModel
from repro.isa.instructions import LEVEL_NAMES, Opcode, VECTOR_OP_CLASS
from repro.isa.program import Program
from repro.sim.perf import PerfCounters, build_report

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import SpanTracer

#: Mirrors ``repro.sim.core._ENGINES_PER_LEVEL`` (asserted equal in tests).
ENGINES_PER_LEVEL = 4

#: Mirrors ``DmaEngine``'s default per-transfer descriptor overhead.
DMA_OVERHEAD_CYCLES = 64

# Row kinds. Frequency-ordered so the replay dispatch chain tests the
# common cases first (MXM and bundle markers dominate real programs).
K_MXM = 0          # a0=cycles, a1=macs, a2=vmem operand+result elements
K_BUNDLE = 1       # start-of-bundle marker
K_VECTOR = 2       # a0=cycles, a2=vmem elements moved, f=alu_ops
K_SYNC_WAIT = 3    # a0=flag id
K_SYNC_SET = 4     # a0=flag id
K_DMA = 5          # a0=pool index, a1=bytes, a2=flag id
K_SCALAR = 6       # a0=op count (single-cycle scalar slot ops)
K_MXM_FIXED = 7    # a0=cycles (mxm.loadw / mxm.transpose)
K_HALT = 8

_KIND_NAMES = {
    K_MXM: "mxm", K_BUNDLE: "bundle", K_VECTOR: "vector",
    K_SYNC_WAIT: "sync.wait", K_SYNC_SET: "sync.set", K_DMA: "dma",
    K_SCALAR: "scalar", K_MXM_FIXED: "mxm.fixed", K_HALT: "halt",
}

class DmaPools(NamedTuple):
    """The DMA engine pools replay derives from a chip's memory system."""

    level_names: tuple          # every memory level (traffic ledger keys)
    pool_levels: tuple          # levels with DMA engine pools, pool order
    bandwidths: tuple           # bytes/s per pool level
    latencies: tuple            # load-use latency cycles per pool level


def dma_pools(chip: ChipConfig) -> DmaPools:
    """``chip``'s DMA pool layout: every memory level except vmem gets a
    pool, in level order.

    :func:`lower_program`, the grid kernel and hand-built lowered
    programs (:mod:`repro.serving.recovery`) all read it from here, so
    their rows replay against the same pools.
    """
    memory = MemorySystem(chip)
    level_names = tuple(level.name for level in memory.levels())
    pool_levels = tuple(n for n in level_names if n != "vmem")
    return DmaPools(
        level_names, pool_levels,
        tuple(memory.level(n).bandwidth for n in pool_levels),
        tuple(memory.level(n).latency_cycles for n in pool_levels))


@dataclass(frozen=True)
class LoweredProgram:
    """A :class:`Program` flattened to numeric rows plus chip constants.

    ``rows`` holds ``(kind, a0, a1, a2, f)`` tuples in issue order —
    integer operands in ``a0..a2``, the only float operand (vector ALU
    ops) in ``f``. Everything chip-dependent that replay needs (DMA pool
    bandwidths/latencies, clock) is baked in, so a lowered program is
    only valid for the chip it was lowered against.
    """

    name: str
    generation: int
    rows: tuple
    n_flags: int
    level_names: tuple          # every memory level (traffic ledger keys)
    pool_levels: tuple          # levels with DMA engine pools, pool order
    pool_bandwidths: tuple      # bytes/s per pool level
    pool_latencies: tuple       # load-use latency cycles per pool level
    clock_hz: float
    dma_overhead: int = DMA_OVERHEAD_CYCLES

    def __len__(self) -> int:
        return len(self.rows)

    def kind_histogram(self) -> dict:
        """Row counts by kind name (debugging / tests)."""
        counts: dict[str, int] = {}
        for row in self.rows:
            name = _KIND_NAMES[row[0]]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def arrays(self):
        """The rows as a dict of numpy column arrays (kinds/a0/a1/a2/f).

        For vectorized analysis over DMA/vector segments.
        """
        kinds, a0, a1, a2, f = (list(c) for c in zip(*self.rows)) \
            if self.rows else ([], [], [], [], [])
        return {
            "kind": np.asarray(kinds, dtype=np.int64),
            "a0": np.asarray(a0, dtype=np.int64),
            "a1": np.asarray(a1, dtype=np.int64),
            "a2": np.asarray(a2, dtype=np.int64),
            "f": np.asarray(f, dtype=np.float64),
        }


def lower_program(program: Program, chip: ChipConfig,
                  mxu: Optional[MxuModel] = None,
                  vpu: Optional[VpuModel] = None) -> LoweredProgram:
    """Flatten ``program`` into a :class:`LoweredProgram` for ``chip``.

    Prices every MXM/vector instruction through the unit models exactly
    once per distinct shape (memoized within the pass), resolves DMA
    levels to pool indices (raising the interpreter's error for levels
    the chip cannot reach), and statically truncates at the first HALT —
    execution is straight-line, so everything after it is dead.
    """
    if program.generation != chip.generation:
        raise ValueError(
            f"program was compiled for generation {program.generation}; "
            f"{chip.name} is generation {chip.generation}. "
            "Recompile (Lesson 2) rather than carrying binaries.")
    mxu = mxu if mxu is not None else MxuModel(chip)
    vpu = vpu if vpu is not None else VpuModel(chip)
    pools = dma_pools(chip)
    pool_index = {name: i for i, name in enumerate(pools.pool_levels)}

    rows: list[tuple] = []
    append = rows.append
    mxm_memo: dict[tuple, tuple] = {}
    vec_memo: dict[tuple, tuple] = {}
    n_flags = 0
    halted = False

    for bundle in program.bundles:
        if halted:
            break
        append((K_BUNDLE, 0, 0, 0, 0.0))
        for inst in bundle.instructions:
            op = inst.opcode
            if op is Opcode.MXM:
                entry = mxm_memo.get(inst.args)
                if entry is None:
                    m, k, n = inst.args
                    timing = mxu.matmul(m, k, n)
                    entry = (K_MXM, timing.cycles, timing.macs,
                             m * k + k * n + m * n, 0.0)
                    mxm_memo[inst.args] = entry
                append(entry)
            elif op in VECTOR_OP_CLASS:
                key = (op, inst.args)
                entry = vec_memo.get(key)
                if entry is None:
                    if op is Opcode.VREDUCE:
                        elements, axis_len = inst.args
                        timing = vpu.reduction(elements, max(1, axis_len))
                    else:
                        elements = inst.args[0]
                        timing = vpu.elementwise(VECTOR_OP_CLASS[op],
                                                 elements)
                    entry = (K_VECTOR, timing.cycles, 0, 2 * elements,
                             timing.alu_ops)
                    vec_memo[key] = entry
                append(entry)
            elif op is Opcode.DMA_IN or op is Opcode.DMA_OUT:
                level_name = LEVEL_NAMES[inst.args[0]]
                pool = pool_index.get(level_name)
                if pool is None:
                    raise ValueError(
                        f"{chip.name} has no DMA path to {level_name!r}")
                flag = inst.args[2]
                if flag >= n_flags:
                    n_flags = flag + 1
                append((K_DMA, pool, inst.args[1], flag, 0.0))
            elif op is Opcode.SYNC_WAIT or op is Opcode.SYNC_SET:
                flag = inst.args[0]
                if flag >= n_flags:
                    n_flags = flag + 1
                kind = K_SYNC_WAIT if op is Opcode.SYNC_WAIT else K_SYNC_SET
                append((kind, flag, 0, 0, 0.0))
            elif op is Opcode.MXM_LOADW or op is Opcode.MXM_TRANSPOSE:
                append((K_MXM_FIXED, max(1, inst.args[0]), 0, 0, 0.0))
            elif op is Opcode.HALT:
                append((K_HALT, 0, 0, 0, 0.0))
                halted = True
                break
            else:
                # NOP / SADD / SMUL / SBRANCH / SLOOP: single-cycle
                # scalar-slot ops; only the counter observes them.
                append((K_SCALAR, 1, 0, 0, 0.0))

    return LoweredProgram(
        name=program.name,
        generation=program.generation,
        rows=tuple(rows),
        n_flags=n_flags,
        level_names=pools.level_names,
        pool_levels=pools.pool_levels,
        pool_bandwidths=pools.bandwidths,
        pool_latencies=pools.latencies,
        clock_hz=chip.clock_hz,
    )


class FastReplay:
    """Replays :class:`LoweredProgram` rows into a :class:`SimResult`.

    One instance per chip (it owns no per-run state); :meth:`run` is
    reentrant exactly like the interpreter.
    """

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip

    def run(self, lowered: LoweredProgram, *, dtype: str = "bf16",
            tracer: Optional["SpanTracer"] = None):
        """Execute the lowered rows; returns a SimResult.

        The loop mirrors ``TensorCoreSim._execute`` operation for
        operation — same max/ceil expressions, same accumulation order —
        which is what makes the result bit-identical. With a ``tracer``
        every executed MXU/VPU/DMA row and every stalling ``sync.wait``
        also records one span on the ``core`` group's unit tracks, in
        simulated microseconds; the spans are a pure side channel and the
        result is the same either way (asserted in ``tests/test_obs.py``).
        """
        from repro.sim.core import SimResult  # local: core imports us

        chip = self.chip
        if lowered.generation != chip.generation:
            raise ValueError(
                f"program was compiled for generation {lowered.generation}; "
                f"{chip.name} is generation {chip.generation}. "
                "Recompile (Lesson 2) rather than carrying binaries.")
        if not chip.supports_dtype(dtype):
            raise ValueError(f"{chip.name} does not support {dtype}")

        elem_bytes = 1 if dtype == "int8" else 2
        flags = [0] * lowered.n_flags
        n_pools = len(lowered.pool_levels)
        busy = [[0] * ENGINES_PER_LEVEL for _ in range(n_pools)]
        pool_busy_cycles = [0] * n_pools
        pool_bytes = [0] * n_pools
        bandwidths = lowered.pool_bandwidths
        latencies = lowered.pool_latencies
        overhead = lowered.dma_overhead
        clock_hz = lowered.clock_hz
        ceil = math.ceil
        emit = tracer.record if tracer is not None else None
        scale = 1e6 / clock_hz  # cycles -> simulated microseconds

        issue = 0
        bundle_issue = 0
        in_bundle = False
        bundles = 0
        macs = 0
        scalar_ops = 0
        mxu_busy = 0
        vpu_busy = 0
        sync_stall = 0
        mxu_free = 0
        vpu_free = 0
        vector_alu_ops = 0.0
        vmem_elements = 0

        for kind, a0, a1, a2, f in lowered.rows:
            if kind == K_MXM:
                start = mxu_free if mxu_free > issue else issue
                mxu_free = start + a0
                macs += a1
                mxu_busy += a0
                vmem_elements += a2
                if emit is not None:
                    emit("mxm", "compute", "core", "mxu",
                         start * scale, a0 * scale, (("macs", a1),))
            elif kind == K_BUNDLE:
                if in_bundle:
                    nxt = bundle_issue + 1
                    if nxt > issue:
                        issue = nxt
                in_bundle = True
                bundles += 1
                bundle_issue = issue
            elif kind == K_VECTOR:
                start = vpu_free if vpu_free > issue else issue
                vpu_free = start + a0
                vector_alu_ops += f
                vpu_busy += a0
                vmem_elements += a2
                if emit is not None:
                    emit("vector", "compute", "core", "vpu",
                         start * scale, a0 * scale, (("alu_ops", f),))
            elif kind == K_SYNC_WAIT:
                target = flags[a0]
                if target > issue:
                    sync_stall += target - issue
                    if emit is not None:
                        emit("sync.wait", "sync", "core", "sync",
                             issue * scale, (target - issue) * scale,
                             (("flag", a0),))
                    issue = target
            elif kind == K_SYNC_SET:
                flags[a0] = issue
            elif kind == K_DMA:
                pool = busy[a0]
                active = 0
                best = 0
                best_free = pool[0]
                for engine in range(1, ENGINES_PER_LEVEL):
                    free_at = pool[engine]
                    if free_at < best_free:
                        best = engine
                        best_free = free_at
                for free_at in pool:
                    if free_at > issue:
                        active += 1
                contention = active if active > 1 else 1
                # Exact expression from DmaEngine.issue (bit-identity).
                streaming_s = a1 * contention / bandwidths[a0]
                duration = (overhead + latencies[a0]
                            + ceil(streaming_s * clock_hz))
                start = best_free if best_free > issue else issue
                end = start + duration
                pool[best] = end
                flags[a2] = end
                pool_busy_cycles[a0] += duration
                pool_bytes[a0] += a1
                if emit is not None:
                    emit("dma", "memory", "core",
                         f"dma.{lowered.pool_levels[a0]}",
                         start * scale, duration * scale, (("bytes", a1),))
            elif kind == K_SCALAR:
                scalar_ops += a0
            elif kind == K_MXM_FIXED:
                start = mxu_free if mxu_free > issue else issue
                mxu_free = start + a0
                mxu_busy += a0
                if emit is not None:
                    emit("mxm.fixed", "compute", "core", "mxu",
                         start * scale, a0 * scale)
            else:  # K_HALT
                break

        if in_bundle:
            nxt = bundle_issue + 1
            if nxt > issue:
                issue = nxt

        dma_end = max((free_at for pool in busy for free_at in pool),
                      default=0)
        flag_max = max(flags, default=0)
        total = max(issue, mxu_free, vpu_free, dma_end, flag_max)

        counters = PerfCounters(
            cycles=max(1, total),
            bundles=bundles,
            macs=macs,
            vector_alu_ops=vector_alu_ops,
            scalar_ops=scalar_ops,
            mxu_busy_cycles=mxu_busy,
            vpu_busy_cycles=vpu_busy,
            dma_busy_cycles=sum(pool_busy_cycles),
            sync_stall_cycles=sync_stall,
        )
        # Same ledger the interpreter folds in: every level present (0.0
        # when untouched); all contributions are integers, so int sums
        # match the interpreter's sequential float accumulation exactly.
        for name in lowered.level_names:
            moved = 0
            if name == "vmem":
                moved = vmem_elements * elem_bytes
            else:
                for pool, pool_name in enumerate(lowered.pool_levels):
                    if pool_name == name:
                        moved = pool_bytes[pool]
                        break
            counters.add_bytes(name, float(moved))

        report = build_report(chip, lowered.name, counters, dtype)
        return SimResult(report=report, counters=counters)


def replay(lowered: LoweredProgram, chip: ChipConfig, *,
           dtype: str = "bf16"):
    """One-shot convenience wrapper over :class:`FastReplay`."""
    return FastReplay(chip).run(lowered, dtype=dtype)
