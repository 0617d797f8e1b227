"""DesignPoint: chip + compiler, with cached workload evaluation.

Everything above the compiler (serving, TCO, DSE, benchmarks) evaluates
workloads through this class so that compile/simulate results are computed
once per (model, batch, CMEM budget, dtype) and power is accounted at *chip*
scope: multi-core chips (TPUv2/v3) serve one request stream per core, so
chip throughput is ``cores / latency`` and dynamic power scales with the
active cores.

Caching is two-tier. Each instance keeps one memo dict per record kind
(``"sim"`` for :class:`SimResult`, ``"eval"`` for :class:`Evaluation`),
the only in-process record store; behind the memos every instance
consults an :class:`~repro.engine.cache.EvalCache` (the process-global
one unless a point is handed its own), the disk tier, keyed by a
stable hash of every chip field, the compiler release, the workload,
batch, CMEM budget and dtype. :meth:`DesignPoint.key`,
:meth:`~DesignPoint.lookup` and :meth:`~DesignPoint.store` are the one
path to both tiers, for both kinds; the batched grid
(:mod:`repro.engine.grid`) uses the same three. Sweeps share one point
per (chip, release) through :func:`shared_design_point`; two separate
DesignPoints for the same configuration — or two processes — share
records only through the disk tier (``REPRO_CACHE_DIR``). A cached
:class:`Evaluation` short-circuits compilation
entirely; results are identical to the uncached path by construction
(pure arithmetic on the same inputs; asserted in ``tests/test_engine.py``).

:meth:`DesignPoint.run` and :meth:`~DesignPoint.evaluate` are the
per-point production path (serving simulators, multitenancy, priority,
fleet sizing, ``repro evaluate``/``compare``/``metrics``); they keep
each compile in the point's memo, which :meth:`~DesignPoint.compiled`
reads back. ``TensorCoreSim.run`` lowers the compiled program and
replays it with a tight kernel that is bit-identical to the test-only
instruction interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.arch.chip import ChipConfig
from repro.arch.power import PowerModel
from repro.compiler.pipeline import CompiledModel, compile_model
from repro.compiler.versions import CompilerVersion, LATEST
from repro.engine.cache import EvalCache, get_cache
from repro.engine import grid
from repro.engine.keys import (
    chip_fingerprint,
    compile_chip_fingerprint,
    compiler_fingerprint,
    eval_key,
    key_meta,
)
from repro.engine.modules import built_module
from repro.obs.metrics import metrics
from repro.sim.core import SimResult, TensorCoreSim
from repro.util.units import TERA
from repro.workloads.models import WorkloadSpec

#: Memo key of one evaluation: (workload, batch, CMEM budget, dtype).
_MemoKey = Tuple[str, int, Optional[int], str]


@dataclass(frozen=True)
class Evaluation:
    """Chip-level evaluation of one workload at one batch size."""

    workload: str
    chip: str
    batch: int
    latency_s: float
    chip_qps: float            # batches/s * batch, across all cores
    chip_power_w: float
    achieved_tops_chip: float
    mxu_utilization: float
    cmem_hit_fraction: float

    @property
    def samples_per_joule(self) -> float:
        return self.chip_qps / self.chip_power_w if self.chip_power_w else 0.0

    @property
    def tops_per_watt(self) -> float:
        return (self.achieved_tops_chip / self.chip_power_w
                if self.chip_power_w else 0.0)


class DesignPoint:
    """One (chip, compiler release) pair with memoized evaluation.

    Every method takes the arithmetic ``dtype`` (default: the chip's
    :attr:`~repro.arch.chip.ChipConfig.native_dtype`, resolved before
    any key is formed): it is part of the compile (non-bf16 modules are
    retargeted, see :func:`~repro.engine.modules.built_module`), the
    replay, the power model, the memo keys and the EvalCache key, so a
    result of one dtype is never served for another.

    The simulator and the three fingerprints are built on first use and
    kept: a point whose every lookup hits the cache never builds a
    simulator or the compile-content fingerprint.
    """

    def __init__(self, chip: ChipConfig,
                 version: CompilerVersion = LATEST,
                 cache: Optional[EvalCache] = None) -> None:
        self.chip = chip
        self.version = version
        #: The dtype every method defaults to.
        self.native_dtype = chip.native_dtype
        self._compiled: dict[_MemoKey, CompiledModel] = {}
        # One memo per record kind: "sim" -> SimResult, "eval" ->
        # Evaluation.
        self._records: dict[str, dict[_MemoKey, object]] = {
            "sim": {}, "eval": {}}
        self._cache = cache

    @cached_property
    def sim(self) -> TensorCoreSim:
        """The point's simulator."""
        return TensorCoreSim(self.chip)

    # --------------------------------------------------------------- caching

    @cached_property
    def chip_fp(self) -> str:
        """Fingerprint of the chip config (stable across processes)."""
        return chip_fingerprint(self.chip)

    @cached_property
    def compiler_fp(self) -> str:
        """Fingerprint of the compiler release (stable across processes)."""
        return compiler_fingerprint(self.version)

    @cached_property
    def compile_fp(self) -> str:
        """Fingerprint of the chip fields compiled content depends on."""
        return compile_chip_fingerprint(self.chip)

    def engine_cache(self) -> EvalCache:
        """The EvalCache this point reads and stores through."""
        return self._cache if self._cache is not None else get_cache()

    def key(self, kind: str, spec: WorkloadSpec, batch: int,
            cmem_budget_bytes: Optional[int] = None,
            dtype: Optional[str] = None) -> str:
        """The EvalCache key a ``kind`` record lives under.

        ``kind`` is ``"sim"`` (the :class:`SimResult` of :meth:`run`) or
        ``"eval"`` (the :class:`Evaluation` of :meth:`evaluate`).
        Phase-split workloads (:class:`~repro.workloads.generative.
        PhaseSpec`) carry a phase and KV bucket into the key; plain
        specs have neither attribute and produce the legacy key bytes.
        """
        if dtype is None:
            dtype = self.native_dtype
        self._memo(kind)  # rejects an unknown kind
        return eval_key(kind, self.chip_fp, self.compiler_fp, spec.name,
                        batch, cmem_budget_bytes, dtype,
                        phase=getattr(spec, "phase", None),
                        kv_bucket=getattr(spec, "kv_bucket", None))

    def lookup(self, kind: str, spec: WorkloadSpec, batch: int,
               cmem_budget_bytes: Optional[int] = None,
               dtype: Optional[str] = None):
        """A memo/EvalCache hit of a ``kind`` record, or None (never
        computes)."""
        if dtype is None:
            dtype = self.native_dtype
        memo = self._memo(kind)
        memo_key = (spec.name, batch, cmem_budget_bytes, dtype)
        hit = memo.get(memo_key)
        if hit is not None:
            return hit
        with metrics().timer("tier.cache_lookup_s"):
            hit = self.engine_cache().get(
                self.key(kind, spec, batch, cmem_budget_bytes, dtype))
        if hit is not None:
            memo[memo_key] = hit
        return hit

    def store(self, kind: str, spec: WorkloadSpec, batch: int,
              cmem_budget_bytes: Optional[int], record,
              dtype: Optional[str] = None) -> None:
        """Publish a ``kind`` record under the keys :meth:`lookup` reads."""
        if dtype is None:
            dtype = self.native_dtype
        meta = key_meta(kind, self.chip.name, self.version.name, spec.name,
                        batch, cmem_budget_bytes, dtype,
                        phase=getattr(spec, "phase", None),
                        kv_bucket=getattr(spec, "kv_bucket", None))
        self.engine_cache().put(
            self.key(kind, spec, batch, cmem_budget_bytes, dtype), record,
            meta)
        self._memo(kind)[(spec.name, batch, cmem_budget_bytes,
                          dtype)] = record

    def _memo(self, kind: str) -> dict:
        memo = self._records.get(kind)
        if memo is None:
            raise ValueError(
                f"unknown record kind {kind!r}; known: sim, eval")
        return memo

    # ------------------------------------------------------------- compile/run

    def compile(self, spec: WorkloadSpec, batch: int,
                cmem_budget_bytes: Optional[int] = None,
                dtype: Optional[str] = None) -> CompiledModel:
        """Compile a workload at a batch size; the caller keeps the result.

        The grid path (:mod:`repro.engine.grid`) compiles through here
        and keeps each compile only for the batch it runs, so a sweep
        does not pin every program it compiled; :meth:`compiled` is the
        per-point memo.
        """
        if dtype is None:
            dtype = self.native_dtype
        if batch <= 0:
            raise ValueError("batch must be positive")
        return compile_model(built_module(spec, batch, dtype), self.chip,
                             version=self.version,
                             cmem_budget_bytes=cmem_budget_bytes)

    def compiled(self, spec: WorkloadSpec, batch: int,
                 cmem_budget_bytes: Optional[int] = None,
                 dtype: Optional[str] = None) -> CompiledModel:
        """Compile (memoized) a workload at a batch size."""
        if dtype is None:
            dtype = self.native_dtype
        key = (spec.name, batch, cmem_budget_bytes, dtype)
        if key not in self._compiled:
            self._compiled[key] = self.compile(spec, batch,
                                               cmem_budget_bytes, dtype)
        return self._compiled[key]

    def run(self, spec: WorkloadSpec, batch: int,
            cmem_budget_bytes: Optional[int] = None,
            dtype: Optional[str] = None) -> SimResult:
        """Simulate (memoized) one inference of a workload."""
        if dtype is None:
            dtype = self.native_dtype
        result = self.lookup("sim", spec, batch, cmem_budget_bytes, dtype)
        if result is None:
            reg = metrics()
            with reg.timer("tier.compile_s"):
                compiled = self.compiled(spec, batch, cmem_budget_bytes,
                                         dtype)
            with reg.timer("tier.sim_s"):
                result = self.sim.run(compiled.program, dtype=dtype)
            self.store("sim", spec, batch, cmem_budget_bytes, result, dtype)
        return result

    def latency_s(self, spec: WorkloadSpec, batch: int,
                  cmem_budget_bytes: Optional[int] = None,
                  dtype: Optional[str] = None) -> float:
        """Latency of one batch (seconds)."""
        return self.run(spec, batch, cmem_budget_bytes, dtype).seconds

    # ------------------------------------------------------------- evaluation

    def evaluate(self, spec: WorkloadSpec, batch: Optional[int] = None,
                 cmem_budget_bytes: Optional[int] = None,
                 dtype: Optional[str] = None) -> Evaluation:
        """Chip-level throughput/power evaluation at a batch size."""
        if dtype is None:
            dtype = self.native_dtype
        b = batch if batch is not None else spec.default_batch
        evaluation = self.lookup("eval", spec, b, cmem_budget_bytes, dtype)
        if evaluation is None:
            result = self.run(spec, b, cmem_budget_bytes, dtype)
            compiled = self.compiled(spec, b, cmem_budget_bytes, dtype)
            evaluation = self.evaluation_from(spec, b, cmem_budget_bytes,
                                              result, compiled, dtype)
            self.store("eval", spec, b, cmem_budget_bytes, evaluation, dtype)
        return evaluation

    def evaluation_from(self, spec: WorkloadSpec, b: int,
                        cmem_budget_bytes: Optional[int],
                        result: SimResult,
                        compiled: CompiledModel,
                        dtype: Optional[str] = None) -> Evaluation:
        """Derive the chip-level record from a simulation + compilation.

        Pure arithmetic — the only consumer of ``result``/``compiled``
        content — shared by the per-point path above and the batched
        grid path (:mod:`repro.engine.grid`), so both produce identical
        records by construction.
        """
        cores = self.chip.cores
        seconds = result.seconds
        counters = result.counters

        # Chip power: idle once, dynamic activity times the active cores.
        power_model = PowerModel(self.chip)
        sram = (counters.bytes_by_level.get("vmem", 0.0)
                + counters.bytes_by_level.get("cmem", 0.0))
        power = power_model.average_power(
            seconds,
            macs=counters.macs * cores,
            dtype=self.native_dtype if dtype is None else dtype,
            sram_bytes=sram * cores,
            hbm_bytes=counters.bytes_by_level.get("hbm", 0.0) * cores,
            vector_ops=counters.vector_alu_ops * cores,
        )
        # Datapath activity -> chip power: scale the dynamic component by
        # the uncore/margin factor (clocking, PHYs) the activity model
        # cannot see, then cap at TDP.
        dynamic_w = power.total_w - power.static_w
        chip_power_w = power.static_w + dynamic_w * PowerModel.UNCORE_MARGIN
        chip_ops_per_s = 2.0 * counters.macs * cores / seconds
        return Evaluation(
            workload=spec.name,
            chip=self.chip.name,
            batch=b,
            latency_s=seconds,
            chip_qps=cores * b / seconds,
            chip_power_w=min(chip_power_w, self.chip.tdp_w),
            achieved_tops_chip=chip_ops_per_s / TERA,
            mxu_utilization=result.report.mxu_utilization,
            cmem_hit_fraction=compiled.memory.cmem_hit_fraction,
        )

    def max_batch_under_slo(self, spec: WorkloadSpec, slo_s: float,
                            candidates: tuple[int, ...] = (1, 2, 4, 8, 16, 32,
                                                           64, 128, 256)) -> int:
        """Largest candidate batch whose latency meets the SLO (0 if none).

        This is Lesson 9 in executable form: the app's latency budget — not
        any architectural limit — decides the batch size.

        The candidate ladder is simulated as one grid batch (identical
        results to the per-candidate loop; see :mod:`repro.engine.grid`),
        so a cold SLO probe costs one kernel dispatch, not nine runs.
        """
        # Call-time import: repro.serving imports this module.
        from repro.serving.slo import largest_batch_within
        if slo_s <= 0:
            raise ValueError("SLO must be positive")
        results = grid.run_grid([grid.GridJob(self, spec, batch)
                                 for batch in candidates])
        return largest_batch_within(
            {batch: result.seconds
             for batch, result in zip(candidates, results)}, slo_s, 0)


# ----------------------------------------------------------- shared registry

#: Keyed by the frozen (chip, version) values themselves: a dict lookup
#: hashes and compares fields, which is far cheaper than fingerprinting
#: (the fingerprints stay on the DesignPoint for EvalCache keys).
_POINTS: dict[tuple[ChipConfig, CompilerVersion], DesignPoint] = {}


def shared_design_point(chip: ChipConfig,
                        version: CompilerVersion = LATEST) -> DesignPoint:
    """A process-wide DesignPoint for (chip, version), created on demand.

    Sweep tasks go through here so that repeated evaluations of the same
    configuration in one process (e.g. a CMEM sweep's capacities, or the
    apps of one DSE candidate) share compiled models and the sim.
    """
    key = (chip, version)
    point = _POINTS.get(key)
    if point is None:
        point = DesignPoint(chip, version)
        _POINTS[key] = point
    return point


def clear_shared_design_points() -> None:
    """Drop the shared registry (tests / cold benchmark runs)."""
    _POINTS.clear()
