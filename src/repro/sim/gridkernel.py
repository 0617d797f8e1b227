"""The timing engine: every program is priced through this kernel.

One evaluation of a (program, chip, dtype) point is factored into the
pieces that actually vary across chips, so a DSE grid — the same few
compiled programs against dozens of chip variants that differ only in
clock, MXU count, or CMEM provisioning — shares everything else:

* **structure** (:func:`_build_struct`) — one columnar pass per distinct
  ``Program.signature()``: numpy position/shape tables for MXU and VPU
  rows, the short list of *hard* rows (``sync.wait`` / ``sync.set`` /
  DMA — the only rows that move the issue cursor or touch flags), bundle
  run-lengths between them, and the structure-constant totals (MACs,
  scalar ops, VMEM elements, DMA bytes per level). Compiled for TPUv4i,
  hard rows run from 13 (mlp0, batch 8) to 8,092 (bert1, batch 64,
  beside 52,843 MXU/VPU rows); in cnn1 at batch 64 they outnumber the
  unit rows, 1,923 to 872. This is the only code outside the
  interpreter that decodes a :class:`Program` for timing;
* **pricing** (per ``(signature, unit geometry)``) — MXU/VPU cycle costs
  gathered from grid-wide per-shape memos, so a shape is priced once per
  geometry for the whole grid, not once per point;
* **scan** (per ``(signature, DMA/clock configuration)``) — a sequential
  pass over the hard rows only: bundle ratchets, sync stalls, and the
  DMA engine pools (the one production copy of the DMA streaming
  expression; :meth:`~repro.arch.dma.DmaEngine.issue` is the oracle's).

Unit finish times are then reconstructed in closed form: the issue cycle
at every MXU/VPU row is a gather over the scan's per-hard-row state plus
a bundle run-length offset, and a busy unit's final free time is
``max(issue_i + suffix_cost_i)`` — the max-plus form of the sequential
recurrence. Per-point dtype scaling is a byte multiplier. The result is
**bit-identical** to the per-instruction interpreter
(:meth:`~repro.sim.core.TensorCoreSim.run_interpreted`, the test-only
oracle; asserted in ``tests/test_fastsim.py`` and
``tests/test_gridsim.py``).

:func:`evaluate_grid` prices a batch of points; :mod:`repro.sim.lowered`
binds one structure to a chip's DMA pools (plus any DMA chains appended
by :func:`_with_chain`) and prices it through the same per-point
function, optionally emitting one span per executed row. A program whose
vector-ALU float total the doubled-integer sum cannot reproduce has its
ALU ops summed sequentially instead; those points are counted in
``grid_kernel_stats().fallback_points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

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

#: DMA engines per memory level (the interpreter's pool size too).
ENGINES_PER_LEVEL = 4

#: Mirrors ``DmaEngine``'s default per-transfer descriptor overhead.
DMA_OVERHEAD_CYCLES = 64

#: Float vector-ALU totals above this are not guaranteed to match the
#: interpreter's sequential accumulation bit for bit (every partial sum
#: must be an exactly-representable multiple of 0.5).
_ALU_EXACT_LIMIT = 2 ** 52

# Hard-row types (the only rows the sequential scan must visit).
_H_WAIT = 0
_H_SET = 1
_H_DMA = 2

# Row classes in a structure's ``order`` (program order, for tracing).
_O_MXU = 0
_O_VPU = 1
_O_HARD = 2


def check_runnable(chip: ChipConfig, generation: int,
                   dtype: Optional[str] = None) -> None:
    """Raise the simulator's error when ``chip`` cannot run a program
    compiled for ``generation`` (at ``dtype``, when given)."""
    if generation != chip.generation:
        raise ValueError(
            f"program was compiled for generation {generation}; "
            f"{chip.name} is generation {chip.generation}. "
            "Recompile (Lesson 2) rather than carrying binaries.")
    if dtype is not None and not chip.supports_dtype(dtype):
        raise ValueError(f"{chip.name} does not support {dtype}")


class DmaPools(NamedTuple):
    """The DMA engine pools the kernel derives from a chip's memory."""

    level_names: tuple          # every memory level (traffic ledger keys)
    pool_levels: tuple          # levels with DMA engine pools, pool order
    bandwidths: tuple           # bytes/s per pool level
    latencies: tuple            # load-use latency cycles per pool level


def dma_pools(chip: ChipConfig) -> DmaPools:
    """``chip``'s DMA pool layout: every memory level except vmem gets a
    pool, in level order."""
    memory = MemorySystem(chip)
    level_names = tuple(level.name for level in memory.levels())
    pool_levels = tuple(n for n in level_names if n != "vmem")
    return DmaPools(
        level_names, pool_levels,
        tuple(memory.level(n).bandwidth for n in pool_levels),
        tuple(memory.level(n).latency_cycles for n in pool_levels))


# ------------------------------------------------------------------- stats

@dataclass
class GridKernelStats:
    """Work the kernel actually did (vs shared) across a process."""

    batches: int = 0           # evaluate_grid calls that ran batched
    points: int = 0            # grid points requested
    structs: int = 0           # columnar structure tables built
    pricings: int = 0          # (structure, unit-geometry) pricing passes
    scans: int = 0             # (structure, DMA/clock) hard-row scans
    fallback_points: int = 0   # points with a sequential vector-ALU sum


_STATS = GridKernelStats()


def grid_kernel_stats() -> GridKernelStats:
    return _STATS


# ------------------------------------------------------------------ points

@dataclass(frozen=True)
class GridPoint:
    """One (program, chip, dtype) evaluation in a batched grid."""

    program: Program
    chip: ChipConfig
    dtype: str = "bf16"


# ----------------------------------------------------------- chip grouping

@dataclass(frozen=True)
class _ChipInfo:
    """Everything the kernel derives from the chip, pre-split by role."""

    pools: DmaPools
    pool_set: frozenset
    mxu_key: tuple             # (mxu_dim, mxus_per_core)
    vpu_key: tuple             # (vpu_lanes, vpu_sublanes)
    scan_key: tuple            # (pools, clock)
    clock_hz: float


_CHIP_INFO: Dict[tuple, _ChipInfo] = {}


def _chip_info(chip: ChipConfig, pools: Optional[DmaPools] = None,
               clock_hz: Optional[float] = None) -> _ChipInfo:
    """``chip``'s info, with its own DMA pools and clock unless given."""
    key = (chip, pools, clock_hz)
    info = _CHIP_INFO.get(key)
    if info is None:
        pools = pools if pools is not None else dma_pools(chip)
        clock_hz = clock_hz if clock_hz is not None else chip.clock_hz
        info = _ChipInfo(
            pools=pools,
            pool_set=frozenset(pools.pool_levels),
            mxu_key=(chip.mxu_dim, chip.mxus_per_core),
            vpu_key=(chip.vpu_lanes, chip.vpu_sublanes),
            scan_key=(pools, clock_hz),
            clock_hz=clock_hz,
        )
        _CHIP_INFO[key] = info
    return info


# -------------------------------------------------------------- structure

@dataclass
class _Struct:
    """One program's timing-relevant structure, chip-independent.

    MXU/VPU rows carry (preceding hard-row index, bundle run-length) so
    their issue cycles can be reconstructed from any scan's per-hard-row
    state; hard rows carry the bundle run-length *before* them so the
    scan can apply bundle ratchets in closed form.
    """

    name: str
    generation: int
    n_flags: int
    rows: int                  # bundle markers + instructions up to HALT
    bundles: int               # bundle markers before HALT
    tail_bundles: int          # bundles after the last hard row
    scalar_ops: int
    macs: int                  # structure constant: sum of m*k*n
    vmem_elements: int         # structure constant: MXM + vector elements
    dma_bytes: Dict[str, int]  # structure constant: DMA bytes per level
    dma_levels: tuple          # distinct DMA levels, first-occurrence order
    shapes: tuple              # unique MXM (m, k, n)
    vecops: tuple              # unique vector ops, as pricing descriptors
    order: bytes               # _O_* per MXU/VPU/hard row, program order
    # Per-MXU-row columns (includes mxm.loadw/transpose as fixed costs):
    mxu_shape: "np.ndarray"    # index into shapes, -1 for fixed-cost rows
    mxu_fixed: "np.ndarray"    # cycles for fixed rows, 0 otherwise
    mxu_hidx: "np.ndarray"     # preceding hard-row index (-1: none)
    mxu_b: "np.ndarray"        # bundles since that hard row
    # Per-VPU-row columns:
    vec_id: "np.ndarray"       # index into vecops
    vec_hidx: "np.ndarray"
    vec_b: "np.ndarray"
    # Hard rows (parallel lists):
    h_type: list               # _H_WAIT / _H_SET / _H_DMA
    h_arg: list                # flag id (wait/set) or bytes (dma)
    h_flag: list               # dma completion flag (0 otherwise)
    h_level: list              # dma level name (None otherwise)
    h_nb: list                 # bundles since the previous hard row
    # Derived caches, filled lazily per chip grouping:
    mxu_priced: dict = field(default_factory=dict)
    vpu_priced: dict = field(default_factory=dict)
    scans: dict = field(default_factory=dict)
    issues: dict = field(default_factory=dict)   # scan_key -> (I_mxu, I_vec)
    finals: dict = field(default_factory=dict)   # (unit, price, scan) -> int
    pool_ids: dict = field(default_factory=dict)  # pool_levels -> list


class _Signature:
    """A ``Program.signature()`` whose hash is computed once, so the
    structure-table lookup and the insert after a miss share it."""

    __slots__ = ("key", "hash")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.hash = hash(key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: "_Signature") -> bool:
        return self.key == other.key


_STRUCTS: Dict[_Signature, _Struct] = {}

# Grid-wide per-shape pricing memos: a shape is priced once per unit
# geometry across the whole grid, not once per point.
_MXM_PRICE: Dict[tuple, int] = {}            # (mxu_key, (m,k,n)) -> cycles
_VEC_PRICE: Dict[tuple, tuple] = {}          # (vpu_key, vecop) -> (cyc, alu)
_MXU_MODELS: Dict[tuple, MxuModel] = {}
_VPU_MODELS: Dict[tuple, VpuModel] = {}


def clear_grid_kernel() -> None:
    """Drop every kernel cache and zero the stats (tests, cold benches)."""
    global _STATS
    _STRUCTS.clear()
    _MXM_PRICE.clear()
    _VEC_PRICE.clear()
    _MXU_MODELS.clear()
    _VPU_MODELS.clear()
    _CHIP_INFO.clear()
    _STATS = GridKernelStats()


def _build_struct(program: Program) -> _Struct:
    """One columnar pass over the program, statically truncated at the
    first HALT (execution is straight-line, so the rest is dead)."""
    shapes: Dict[tuple, int] = {}
    vecops: Dict[tuple, int] = {}
    order: List[int] = []
    mxu_shape: List[int] = []
    mxu_fixed: List[int] = []
    mxu_hidx: List[int] = []
    mxu_b: List[int] = []
    vec_id: List[int] = []
    vec_hidx: List[int] = []
    vec_b: List[int] = []
    h_type: List[int] = []
    h_arg: List[int] = []
    h_flag: List[int] = []
    h_level: List[Optional[str]] = []
    h_nb: List[int] = []
    dma_bytes: Dict[str, int] = {}
    dma_levels: List[str] = []

    n_flags = 0
    rows = 0
    bundles = 0
    scalar_ops = 0
    macs = 0
    vmem_elements = 0
    last_hard = -1
    bundles_at_last_hard = 0
    halted = False

    for bundle in program.bundles:
        if halted:
            break
        bundles += 1
        instructions = bundle.instructions
        rows += 1 + len(instructions)
        for inst in instructions:
            op = inst.opcode
            if op is Opcode.MXM:
                shape_id = shapes.setdefault(inst.args, len(shapes))
                m, k, n = inst.args
                macs += m * k * n
                vmem_elements += m * k + k * n + m * n
                order.append(_O_MXU)
                mxu_shape.append(shape_id)
                mxu_fixed.append(0)
                mxu_hidx.append(last_hard)
                mxu_b.append(bundles - bundles_at_last_hard)
            elif op in VECTOR_OP_CLASS:
                if op is Opcode.VREDUCE:
                    elements, axis_len = inst.args
                    descriptor = ("reduce", elements, max(1, axis_len))
                else:
                    descriptor = ("elementwise", VECTOR_OP_CLASS[op],
                                  inst.args[0])
                    elements = inst.args[0]
                order.append(_O_VPU)
                vec_id.append(vecops.setdefault(descriptor, len(vecops)))
                vmem_elements += 2 * elements
                vec_hidx.append(last_hard)
                vec_b.append(bundles - bundles_at_last_hard)
            elif op is Opcode.DMA_IN or op is Opcode.DMA_OUT:
                level_name = LEVEL_NAMES.get(inst.args[0])
                if level_name is None:
                    known = ", ".join(f"{i} ({name})" for i, name
                                      in sorted(LEVEL_NAMES.items()))
                    raise ValueError(
                        f"{op.mnemonic} level operand {inst.args[0]!r} "
                        f"names no memory level; known: {known}")
                flag = inst.args[2]
                if flag >= n_flags:
                    n_flags = flag + 1
                if level_name not in dma_bytes:
                    dma_bytes[level_name] = 0
                    dma_levels.append(level_name)
                dma_bytes[level_name] += inst.args[1]
                order.append(_O_HARD)
                h_type.append(_H_DMA)
                h_arg.append(inst.args[1])
                h_flag.append(flag)
                h_level.append(level_name)
                h_nb.append(bundles - bundles_at_last_hard)
                bundles_at_last_hard = bundles
                last_hard += 1
            elif op is Opcode.SYNC_WAIT or op is Opcode.SYNC_SET:
                flag = inst.args[0]
                if flag >= n_flags:
                    n_flags = flag + 1
                order.append(_O_HARD)
                h_type.append(_H_WAIT if op is Opcode.SYNC_WAIT else _H_SET)
                h_arg.append(flag)
                h_flag.append(0)
                h_level.append(None)
                h_nb.append(bundles - bundles_at_last_hard)
                bundles_at_last_hard = bundles
                last_hard += 1
            elif op is Opcode.MXM_LOADW or op is Opcode.MXM_TRANSPOSE:
                order.append(_O_MXU)
                mxu_shape.append(-1)
                mxu_fixed.append(max(1, inst.args[0]))
                mxu_hidx.append(last_hard)
                mxu_b.append(bundles - bundles_at_last_hard)
            elif op is Opcode.HALT:
                rows -= len(instructions) - instructions.index(inst) - 1
                halted = True
                break
            else:
                # NOP / SADD / SMUL / SBRANCH / SLOOP: single-cycle
                # scalar-slot ops; only the counter observes them.
                scalar_ops += 1

    as_i64 = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    return _Struct(
        name=program.name,
        generation=program.generation,
        n_flags=n_flags,
        rows=rows,
        bundles=bundles,
        tail_bundles=bundles - bundles_at_last_hard,
        scalar_ops=scalar_ops,
        macs=macs,
        vmem_elements=vmem_elements,
        dma_bytes=dma_bytes,
        dma_levels=tuple(dma_levels),
        shapes=tuple(shapes),
        vecops=tuple(vecops),
        order=bytes(order),
        mxu_shape=as_i64(mxu_shape),
        mxu_fixed=as_i64(mxu_fixed),
        mxu_hidx=as_i64(mxu_hidx),
        mxu_b=as_i64(mxu_b),
        vec_id=as_i64(vec_id),
        vec_hidx=as_i64(vec_hidx),
        vec_b=as_i64(vec_b),
        h_type=h_type,
        h_arg=h_arg,
        h_flag=h_flag,
        h_level=h_level,
        h_nb=h_nb,
    )


def _struct_for(program: Program) -> _Struct:
    """The shared structure of ``program``, built on first sight of its
    signature."""
    sig = _Signature(program.signature())
    struct = _STRUCTS.get(sig)
    if struct is None:
        struct = _build_struct(program)
        _STRUCTS[sig] = struct
        _STATS.structs += 1
    return struct


def _check_dma_levels(struct: _Struct, chip: ChipConfig,
                      info: _ChipInfo) -> None:
    """The interpreter's error for a DMA level ``chip`` cannot reach."""
    for level in struct.dma_levels:
        if level not in info.pool_set:
            raise ValueError(f"{chip.name} has no DMA path to {level!r}")


def _with_chain(struct: _Struct, level: str, byte_counts: Sequence[int],
                where: str) -> _Struct:
    """A copy of ``struct`` with one serialized DMA chain on ``level``.

    The chain is one bundle holding, per transfer, a DMA stamping a fresh
    flag followed by a ``sync.wait`` on it, so transfers run back to
    back. ``where="pre"`` puts it before the program; ``"post"`` after
    its last row. ``struct`` itself is never mutated.
    """
    n = len(byte_counts)
    flags = range(struct.n_flags, struct.n_flags + n)
    chain_type = [_H_DMA, _H_WAIT] * n
    chain_arg = [x for count, flag in zip(byte_counts, flags)
                 for x in (count, flag)]
    chain_flag = [x for flag in flags for x in (flag, 0)]
    chain_level = [level, None] * n
    chain_order = bytes([_O_HARD]) * (2 * n)
    dma_bytes = dict(struct.dma_bytes)
    dma_bytes[level] = dma_bytes.get(level, 0) + sum(byte_counts)
    dma_levels = struct.dma_levels if level in struct.dma_bytes \
        else struct.dma_levels + (level,)
    if where == "pre":
        # Unit rows keep their bundle offsets; those before the program's
        # first hard row now follow the chain's last wait instead.
        changes = dict(
            order=chain_order + struct.order,
            mxu_hidx=struct.mxu_hidx + 2 * n,
            vec_hidx=struct.vec_hidx + 2 * n,
            h_type=chain_type + struct.h_type,
            h_arg=chain_arg + struct.h_arg,
            h_flag=chain_flag + struct.h_flag,
            h_level=chain_level + struct.h_level,
            h_nb=[1] + [0] * (2 * n - 1) + struct.h_nb)
    else:
        changes = dict(
            tail_bundles=0,
            order=struct.order + chain_order,
            h_type=struct.h_type + chain_type,
            h_arg=struct.h_arg + chain_arg,
            h_flag=struct.h_flag + chain_flag,
            h_level=struct.h_level + chain_level,
            h_nb=(struct.h_nb + [struct.tail_bundles + 1]
                  + [0] * (2 * n - 1)))
    # Unit rows and their costs are unchanged, so the pricing caches are
    # shared; everything downstream of the scan starts empty.
    return replace(
        struct, n_flags=struct.n_flags + n, rows=struct.rows + 1 + 2 * n,
        bundles=struct.bundles + 1, dma_bytes=dma_bytes,
        dma_levels=dma_levels, scans={}, issues={}, finals={},
        pool_ids={}, **changes)


# ---------------------------------------------------------------- pricing

@dataclass(frozen=True)
class _Priced:
    """Per-(structure, unit-geometry) cycle costs for one unit."""

    suffix: Optional["np.ndarray"]   # suffix_i = sum of costs from row i on
    busy: int                        # total busy cycles (sum of costs)
    alu_ops: float = 0.0             # VPU only: the vector-ALU op total
    exact: bool = True               # VPU only: alu_ops from the int sum


def _suffix(costs: "np.ndarray") -> "np.ndarray":
    return np.cumsum(costs[::-1])[::-1]


def _mxu_priced(struct: _Struct, info: _ChipInfo) -> _Priced:
    priced = struct.mxu_priced.get(info.mxu_key)
    if priced is not None:
        return priced
    model = _MXU_MODELS[info.mxu_key]
    shape_cycles = []
    for shape in struct.shapes:
        key = (info.mxu_key, shape)
        cycles = _MXM_PRICE.get(key)
        if cycles is None:
            cycles = model.matmul(*shape).cycles
            _MXM_PRICE[key] = cycles
        shape_cycles.append(cycles)
    if struct.mxu_shape.size:
        table = np.asarray(shape_cycles + [0], dtype=np.int64)
        costs = np.where(struct.mxu_shape >= 0, table[struct.mxu_shape],
                         struct.mxu_fixed)
        priced = _Priced(suffix=_suffix(costs), busy=int(costs.sum()))
    else:
        priced = _Priced(suffix=None, busy=0)
    struct.mxu_priced[info.mxu_key] = priced
    _STATS.pricings += 1
    return priced


def _vec_table(struct: _Struct, info: _ChipInfo) -> list:
    """``(cycles, alu_ops)`` per unique vector op of ``struct``."""
    model = _VPU_MODELS[info.vpu_key]
    table = []
    for vecop in struct.vecops:
        key = (info.vpu_key, vecop)
        entry = _VEC_PRICE.get(key)
        if entry is None:
            if vecop[0] == "reduce":
                timing = model.reduction(vecop[1], vecop[2])
            else:
                timing = model.elementwise(vecop[1], vecop[2])
            entry = (timing.cycles, timing.alu_ops)
            _VEC_PRICE[key] = entry
        table.append(entry)
    return table


def _vpu_priced(struct: _Struct, info: _ChipInfo) -> _Priced:
    priced = struct.vpu_priced.get(info.vpu_key)
    if priced is not None:
        return priced
    if not struct.vec_id.size:
        priced = _Priced(suffix=None, busy=0)
    else:
        table = _vec_table(struct, info)
        costs = np.asarray([c for c, _ in table],
                           dtype=np.int64)[struct.vec_id]
        # The interpreter accumulates alu_ops as sequential float adds; a
        # doubled-integer sum reproduces it exactly only when every term
        # and the total are representable multiples of 0.5.
        alu2 = [a * 2.0 for _, a in table]
        exact = all(a == int(a) and abs(a) <= _ALU_EXACT_LIMIT
                    for a in alu2)
        if exact:
            total2 = int(np.asarray(alu2, dtype=np.int64)[struct.vec_id]
                         .sum())
            exact = total2 <= _ALU_EXACT_LIMIT
        if exact:
            alu_ops = total2 / 2.0
        else:
            alu_ops = 0.0
            for vid in struct.vec_id.tolist():
                alu_ops += table[vid][1]
        priced = _Priced(suffix=_suffix(costs), busy=int(costs.sum()),
                         alu_ops=alu_ops, exact=exact)
    struct.vpu_priced[info.vpu_key] = priced
    _STATS.pricings += 1
    return priced


# ------------------------------------------------------------------- scan

@dataclass(frozen=True)
class _Scan:
    """Sequential state from one pass over the hard rows."""

    issue_end: int
    sync_stall: int
    dma_end: int
    flag_max: int
    dma_busy: int
    issue_h: list              # issue cycle after each hard row
    bi_h: list                 # last bundle's issue cycle after each row
    start_h: list              # DMA start / stalled wait's issue cycle
    dur_h: list                # DMA duration / wait stall (0 for sets)


def _pool_ids(struct: _Struct, info: _ChipInfo) -> list:
    pool_levels = info.pools.pool_levels
    ids = struct.pool_ids.get(pool_levels)
    if ids is None:
        index = {name: i for i, name in enumerate(pool_levels)}
        ids = [index[level] if level is not None else -1
               for level in struct.h_level]
        struct.pool_ids[pool_levels] = ids
    return ids


def _scan(struct: _Struct, info: _ChipInfo) -> _Scan:
    scan = struct.scans.get(info.scan_key)
    if scan is not None:
        return scan
    pool_ids = _pool_ids(struct, info)
    bandwidths = info.pools.bandwidths
    latencies = info.pools.latencies
    clock_hz = info.clock_hz
    overhead = DMA_OVERHEAD_CYCLES
    ceil = math.ceil

    flags = [0] * struct.n_flags
    busy = [[0] * ENGINES_PER_LEVEL for _ in info.pools.pool_levels]
    issue = 0
    bi = -1                    # last bundle's issue cycle (-1: none yet)
    stall = 0
    dma_busy = 0
    issue_h: List[int] = []
    bi_h: List[int] = []
    start_h: List[int] = []
    dur_h: List[int] = []

    for i, h_type in enumerate(struct.h_type):
        nb = struct.h_nb[i]
        if nb:
            # nb consecutive bundle markers with no issue change between
            # them collapse to one ratchet plus nb-1 increments (the
            # first-ever marker has bi == -1, so the ratchet is a no-op).
            nxt = bi + 1
            if nxt > issue:
                issue = nxt
            issue += nb - 1
            bi = issue
        start = issue
        duration = 0
        if h_type == _H_DMA:
            pool = busy[pool_ids[i]]
            best = 0
            best_free = pool[0]
            for engine in range(1, ENGINES_PER_LEVEL):
                free_at = pool[engine]
                if free_at < best_free:
                    best = engine
                    best_free = free_at
            active = 0
            for free_at in pool:
                if free_at > issue:
                    active += 1
            contention = active if active > 1 else 1
            # Exact expression from DmaEngine.issue (bit-identity).
            streaming_s = struct.h_arg[i] * contention / bandwidths[pool_ids[i]]
            duration = (overhead + latencies[pool_ids[i]]
                        + ceil(streaming_s * clock_hz))
            start = best_free if best_free > issue else issue
            end = start + duration
            pool[best] = end
            flags[struct.h_flag[i]] = end
            dma_busy += duration
        elif h_type == _H_WAIT:
            target = flags[struct.h_arg[i]]
            if target > issue:
                duration = target - issue
                stall += duration
                issue = target
        else:  # _H_SET
            flags[struct.h_arg[i]] = issue
        issue_h.append(issue)
        bi_h.append(bi)
        start_h.append(start)
        dur_h.append(duration)

    if struct.tail_bundles:
        nxt = bi + 1
        if nxt > issue:
            issue = nxt
        issue += struct.tail_bundles - 1
        bi = issue
    if struct.bundles:                    # the last bundle's ratchet
        nxt = bi + 1
        if nxt > issue:
            issue = nxt

    scan = _Scan(
        issue_end=issue,
        sync_stall=stall,
        dma_end=max((f for pool in busy for f in pool), default=0),
        flag_max=max(flags, default=0),
        dma_busy=dma_busy,
        issue_h=issue_h,
        bi_h=bi_h,
        start_h=start_h,
        dur_h=dur_h,
    )
    struct.scans[info.scan_key] = scan
    _STATS.scans += 1
    return scan


def _issue_at_rows(struct: _Struct, info: _ChipInfo, scan: _Scan) -> tuple:
    """Issue cycle at every MXU row and every VPU row under ``scan``.

    A unit row's issue cycle is the issue after its preceding hard row,
    advanced by the bundle markers in between: 0 markers leave it, b
    markers ratchet once off the last bundle and add b-1.
    """
    cached = struct.issues.get(info.scan_key)
    if cached is not None:
        return cached
    # Sentinel slot 0 encodes "no preceding hard row": issue 0, bi -1.
    issue_h = np.asarray([0] + scan.issue_h, dtype=np.int64)
    bi_h = np.asarray([-1] + scan.bi_h, dtype=np.int64)

    def reconstruct(hidx, b):
        if not hidx.size:
            return None
        base = issue_h[hidx + 1]
        ratchet = np.maximum(base, bi_h[hidx + 1] + 1) + b - 1
        return np.where(b == 0, base, ratchet)

    issues = (reconstruct(struct.mxu_hidx, struct.mxu_b),
              reconstruct(struct.vec_hidx, struct.vec_b))
    struct.issues[info.scan_key] = issues
    return issues


def _unit_final(struct: _Struct, unit: str, price_key: tuple,
                priced: _Priced, issues, scan_key: tuple) -> int:
    """Final free time of one pipelined unit, in max-plus closed form.

    The sequential recurrence ``free = max(free, issue_i) + cost_i``
    (``free`` starting at 0, every ``issue_i >= 0``) has final value
    ``max_i(issue_i + sum_{j>=i} cost_j)``.
    """
    key = (unit, price_key, scan_key)
    final = struct.finals.get(key)
    if final is None:
        final = int((issues + priced.suffix).max()) if issues is not None \
            else 0
        struct.finals[key] = final
    return final


def _unit_spans(issues, priced: _Priced) -> tuple:
    """Per-row (start, cost) lists of one unit, as Python ints.

    With ``P_i`` the costs before row i, the recurrence's start cycle
    ``max(start_{i-1} + cost_{i-1}, issue_i)`` is the prefix max-plus
    ``P_i + max_{j<=i}(issue_j - P_j)``.
    """
    if issues is None:
        return [], []
    suffix = priced.suffix
    costs = suffix - np.append(suffix[1:], 0)
    before = suffix[0] - suffix
    starts = before + np.maximum.accumulate(issues - before)
    return starts.tolist(), costs.tolist()


# ------------------------------------------------------------- evaluation

def _trace(tracer: "SpanTracer", struct: _Struct, info: _ChipInfo,
           mxu: _Priced, vpu: _Priced, scan: _Scan, issues: tuple) -> None:
    """One span per executed MXU/VPU/DMA row and stalling ``sync.wait``,
    in program order, on the ``core`` group's unit tracks (simulated
    microseconds)."""
    emit = tracer.record
    scale = 1e6 / info.clock_hz  # cycles -> simulated microseconds
    mxu_start, mxu_cost = _unit_spans(issues[0], mxu)
    vec_start, vec_cost = _unit_spans(issues[1], vpu)
    mxu_shape = struct.mxu_shape.tolist()
    vec_id = struct.vec_id.tolist()
    vec_alu = [alu for _, alu in _vec_table(struct, info)]
    mi = vi = hi = 0
    for row in struct.order:
        if row == _O_MXU:
            start, cost = mxu_start[mi] * scale, mxu_cost[mi] * scale
            shape = mxu_shape[mi]
            if shape >= 0:
                m, k, n = struct.shapes[shape]
                emit("mxm", "compute", "core", "mxu", start, cost,
                     (("macs", m * k * n),))
            else:
                emit("mxm.fixed", "compute", "core", "mxu", start, cost)
            mi += 1
        elif row == _O_VPU:
            emit("vector", "compute", "core", "vpu", vec_start[vi] * scale,
                 vec_cost[vi] * scale, (("alu_ops", vec_alu[vec_id[vi]]),))
            vi += 1
        else:
            h_type = struct.h_type[hi]
            start, duration = scan.start_h[hi], scan.dur_h[hi]
            if h_type == _H_DMA:
                emit("dma", "memory", "core", f"dma.{struct.h_level[hi]}",
                     start * scale, duration * scale,
                     (("bytes", struct.h_arg[hi]),))
            elif h_type == _H_WAIT and duration:
                emit("sync.wait", "sync", "core", "sync", start * scale,
                     duration * scale, (("flag", struct.h_arg[hi]),))
            hi += 1


def _evaluate(struct: _Struct, chip: ChipConfig, info: _ChipInfo,
              dtype: str, tracer: Optional["SpanTracer"] = None):
    """Price one structure on one chip: the kernel's per-point function."""
    from repro.sim.core import SimResult  # local: core imports this module

    if info.mxu_key not in _MXU_MODELS:
        _MXU_MODELS[info.mxu_key] = MxuModel(chip)
    if info.vpu_key not in _VPU_MODELS:
        _VPU_MODELS[info.vpu_key] = VpuModel(chip)
    mxu = _mxu_priced(struct, info)
    vpu = _vpu_priced(struct, info)
    if not vpu.exact:
        _STATS.fallback_points += 1
    scan = _scan(struct, info)
    issues = _issue_at_rows(struct, info, scan)
    f_mxu = _unit_final(struct, "mxu", info.mxu_key, mxu, issues[0],
                        info.scan_key)
    f_vpu = _unit_final(struct, "vpu", info.vpu_key, vpu, issues[1],
                        info.scan_key)
    if tracer is not None:
        _trace(tracer, struct, info, mxu, vpu, scan, issues)

    total = max(scan.issue_end, f_mxu, f_vpu, scan.dma_end, scan.flag_max)
    elem_bytes = 1 if dtype == "int8" else 2
    counters = PerfCounters(
        cycles=max(1, int(total)),
        bundles=struct.bundles,
        macs=struct.macs,
        vector_alu_ops=vpu.alu_ops,
        scalar_ops=struct.scalar_ops,
        mxu_busy_cycles=mxu.busy,
        vpu_busy_cycles=vpu.busy,
        dma_busy_cycles=scan.dma_busy,
        sync_stall_cycles=scan.sync_stall,
    )
    # Every level is present (0.0 when untouched); all contributions are
    # integers, so int sums match the interpreter's float accumulation.
    for name in info.pools.level_names:
        if name == "vmem":
            moved = struct.vmem_elements * elem_bytes
        else:
            moved = struct.dma_bytes.get(name, 0)
        counters.add_bytes(name, float(moved))
    report = build_report(chip, struct.name, counters, dtype)
    return SimResult(report=report, counters=counters)


def evaluate_grid(points: Sequence[GridPoint]) -> list:
    """Evaluate every point; returns ``SimResult`` objects in input order.

    Each point raises the interpreter's errors, checked in input order
    before the point is priced.
    """
    points = list(points)
    if not points:
        return []
    _STATS.batches += 1
    _STATS.points += len(points)
    # A signature is one tuple over every bundle position — resolve each
    # distinct program *object* against the signature-keyed table once
    # per batch, not once per point.
    struct_by_pid: Dict[int, _Struct] = {}
    results = []
    for point in points:
        chip = point.chip
        check_runnable(chip, point.program.generation, point.dtype)
        info = _chip_info(chip)
        struct = struct_by_pid.get(id(point.program))
        if struct is None:
            struct = _struct_for(point.program)
            struct_by_pid[id(point.program)] = struct
        _check_dma_levels(struct, chip, info)
        results.append(_evaluate(struct, chip, info, point.dtype))
    return results
