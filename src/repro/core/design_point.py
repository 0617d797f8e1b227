"""DesignPoint: chip + compiler, with cached workload evaluation.

Everything above the compiler (serving, TCO, DSE, benchmarks) evaluates
workloads through this class so that compile/simulate results are computed
once per (model, batch, CMEM budget, dtype) and power is accounted at *chip*
scope: multi-core chips (TPUv2/v3) serve one request stream per core, so
chip throughput is ``cores / latency`` and dynamic power scales with the
active cores.

Caching is two-tier. Each instance keeps one memo dict per record kind
(:attr:`DesignPoint.records`: ``"sim"`` for :class:`SimResult`,
``"eval"`` for :class:`Evaluation`), the only in-process record store;
behind the memos every instance consults an
:class:`~repro.engine.cache.EvalCache` (the process-global one unless a
point is handed its own), the disk tier, keyed by
:meth:`DesignPoint.key`: a stable hash of every chip field, the compiler
release, the workload, batch, CMEM budget and dtype. Sweeps share one
point per (chip, release) through :func:`shared_design_point`; two
separate DesignPoints for the same configuration — or two processes —
share records only through the disk tier (``REPRO_CACHE_DIR``). A cached
:class:`Evaluation` short-circuits compilation entirely.

Every record is made by the grid (:mod:`repro.engine.grid`):
:meth:`DesignPoint.run` and :meth:`~DesignPoint.evaluate` are one-job
calls of :func:`~repro.engine.grid.run_grid` and
:func:`~repro.engine.grid.evaluate_jobs`, which read and write both
tiers. They pass the point's compile memo, so a per-point caller keeps
each compile, which :meth:`~DesignPoint.compiled` reads back; a sweep
keeps its compiles only for the batch it runs.
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
)
from repro.engine.modules import built_module
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
        self._compiled: grid.CompileMemo = {}
        #: One memo per record kind: "sim" -> SimResult, "eval" ->
        #: Evaluation. The grid reads and writes them.
        self.records: dict[str, dict[_MemoKey, object]] = {
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
        if kind not in self.records:
            raise ValueError(
                f"unknown record kind {kind!r}; known: sim, eval")
        return eval_key(kind, self.chip_fp, self.compiler_fp, spec.name,
                        batch, cmem_budget_bytes,
                        self.native_dtype if dtype is None else dtype,
                        phase=getattr(spec, "phase", None),
                        kv_bucket=getattr(spec, "kv_bucket", None))

    # ------------------------------------------------------------- compile/run

    def compile(self, spec: WorkloadSpec, batch: int,
                cmem_budget_bytes: Optional[int] = None,
                dtype: Optional[str] = None) -> CompiledModel:
        """Compile a workload at a batch size; the caller keeps the result.

        The one compile memo, :func:`repro.engine.grid.compiled`, calls
        this with a checked :class:`~repro.engine.grid.GridJob`'s values;
        :meth:`compiled` is the memoized entry point.
        """
        return compile_model(
            built_module(spec, batch,
                         self.native_dtype if dtype is None else dtype),
            self.chip, version=self.version,
            cmem_budget_bytes=cmem_budget_bytes)

    def compiled(self, spec: WorkloadSpec, batch: int,
                 cmem_budget_bytes: Optional[int] = None,
                 dtype: Optional[str] = None) -> CompiledModel:
        """Compile (memoized in this point) a workload at a batch size."""
        return grid.compiled(
            grid.GridJob(self, spec, batch, cmem_budget_bytes, dtype),
            self._compiled)

    def run(self, spec: WorkloadSpec, batch: int,
            cmem_budget_bytes: Optional[int] = None,
            dtype: Optional[str] = None) -> SimResult:
        """Simulate (memoized) one inference of a workload: a one-job
        :func:`~repro.engine.grid.run_grid`."""
        return grid.run_grid(
            [grid.GridJob(self, spec, batch, cmem_budget_bytes, dtype)],
            self._compiled)[0]

    def latency_s(self, spec: WorkloadSpec, batch: int,
                  cmem_budget_bytes: Optional[int] = None,
                  dtype: Optional[str] = None) -> float:
        """Latency of one batch (seconds)."""
        return self.run(spec, batch, cmem_budget_bytes, dtype).seconds

    # ------------------------------------------------------------- evaluation

    def evaluate(self, spec: WorkloadSpec, batch: Optional[int] = None,
                 cmem_budget_bytes: Optional[int] = None,
                 dtype: Optional[str] = None) -> Evaluation:
        """Chip-level throughput/power evaluation at a batch size: a
        one-job :func:`~repro.engine.grid.evaluate_jobs`."""
        return grid.evaluate_jobs(
            [grid.GridJob(self, spec, batch, cmem_budget_bytes, dtype)],
            self._compiled)[0]

    def evaluation_from(self, spec: WorkloadSpec, b: int,
                        cmem_budget_bytes: Optional[int],
                        result: SimResult,
                        compiled: CompiledModel,
                        dtype: Optional[str] = None) -> Evaluation:
        """Derive the chip-level record from a simulation + compilation.

        Pure arithmetic — the only consumer of ``result``/``compiled``
        content — called by :func:`repro.engine.grid.evaluate_jobs` for
        each record it makes.
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
        if not slo_s > 0:    # NaN too
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
