"""DesignPoint: chip + compiler, with cached workload evaluation.

Everything above the compiler (serving, TCO, DSE, benchmarks) evaluates
workloads through this class so that compile/simulate results are computed
once per (model, batch, CMEM budget) and power is accounted at *chip*
scope: multi-core chips (TPUv2/v3) serve one request stream per core, so
chip throughput is ``cores / latency`` and dynamic power scales with the
active cores.

Caching is two-tier. Each instance keeps its original per-instance memo
dicts (cheapest lookup), and behind them every instance consults the
process-global :class:`~repro.engine.cache.EvalCache`, keyed by a stable
hash of every chip field, the compiler release, the workload, batch,
CMEM budget and dtype. Two DesignPoints for the same configuration — or
two processes sharing the cache's disk tier — therefore never repeat a
simulation. A cached :class:`Evaluation` short-circuits compilation
entirely; results are identical to the uncached path by construction
(pure arithmetic on the same inputs; asserted in ``tests/test_engine.py``).

Simulations take the lowered-IR path: ``TensorCoreSim.run`` lowers each
compiled program once (cached process-wide in :mod:`repro.engine.lowered`)
and replays it with a tight kernel that is bit-identical to the
test-only instruction interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.chip import ChipConfig
from repro.arch.power import PowerModel
from repro.compiler.pipeline import CompiledModel, compile_model
from repro.compiler.versions import CompilerVersion, LATEST
from repro.engine.cache import EvalCache, get_cache
from repro.engine.keys import (
    chip_fingerprint,
    compiler_fingerprint,
    eval_key,
    key_meta,
)
from repro.engine.modules import built_module
from repro.obs.metrics import metrics
from repro.sim.core import SimResult, TensorCoreSim
from repro.util.units import TERA
from repro.workloads.models import WorkloadSpec

#: DesignPoint evaluates with the simulator's default arithmetic.
_EVAL_DTYPE = "bf16"


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
    """One (chip, compiler release) pair with memoized evaluation."""

    def __init__(self, chip: ChipConfig,
                 version: CompilerVersion = LATEST,
                 cache: Optional[EvalCache] = None) -> None:
        self.chip = chip
        self.version = version
        self.sim = TensorCoreSim(chip)
        self._compiled: dict[tuple[str, int, Optional[int]], CompiledModel] = {}
        self._results: dict[tuple[str, int, Optional[int]], SimResult] = {}
        self._evaluations: dict[tuple[str, int, Optional[int]], Evaluation] = {}
        self._cache = cache
        self._chip_fp = chip_fingerprint(chip)
        self._compiler_fp = compiler_fingerprint(version)

    # --------------------------------------------------------------- caching

    @property
    def chip_fp(self) -> str:
        """Fingerprint of the chip config (stable across processes)."""
        return self._chip_fp

    @property
    def compiler_fp(self) -> str:
        """Fingerprint of the compiler release (stable across processes)."""
        return self._compiler_fp

    def engine_cache(self) -> EvalCache:
        """The EvalCache this point reads and stores through."""
        return self._cache if self._cache is not None else get_cache()

    def _key(self, kind: str, spec: WorkloadSpec, batch: int,
             cmem_budget_bytes: Optional[int]) -> str:
        # Phase-split workloads (repro.workloads.generative.PhaseSpec)
        # carry a phase and KV bucket into the key; plain specs have
        # neither attribute and produce the exact legacy key bytes.
        return eval_key(kind, self._chip_fp, self._compiler_fp, spec.name,
                        batch, cmem_budget_bytes, _EVAL_DTYPE,
                        phase=getattr(spec, "phase", None),
                        kv_bucket=getattr(spec, "kv_bucket", None))

    def result_key(self, spec: WorkloadSpec, batch: int,
                   cmem_budget_bytes: Optional[int] = None) -> str:
        """The EvalCache key a :meth:`run` result lives under."""
        return self._key("sim", spec, batch, cmem_budget_bytes)

    def evaluation_key(self, spec: WorkloadSpec, batch: int,
                       cmem_budget_bytes: Optional[int] = None) -> str:
        """The EvalCache key an :meth:`evaluate` record lives under."""
        return self._key("eval", spec, batch, cmem_budget_bytes)

    def cached_result(self, spec: WorkloadSpec, batch: int,
                      cmem_budget_bytes: Optional[int] = None
                      ) -> Optional[SimResult]:
        """A memo/EvalCache simulation hit, or None (never computes)."""
        key = (spec.name, batch, cmem_budget_bytes)
        hit = self._results.get(key)
        if hit is not None:
            return hit
        with metrics().timer("tier.cache_lookup_s"):
            cached = self.engine_cache().get(
                self.result_key(spec, batch, cmem_budget_bytes))
        if cached is not None:
            self._results[key] = cached
        return cached

    def store_result(self, spec: WorkloadSpec, batch: int,
                     cmem_budget_bytes: Optional[int],
                     result: SimResult) -> None:
        """Publish a simulation under the same keys :meth:`run` uses."""
        self.engine_cache().put(
            self.result_key(spec, batch, cmem_budget_bytes), result,
            self._meta("sim", spec, batch, cmem_budget_bytes))
        self._results[(spec.name, batch, cmem_budget_bytes)] = result

    def cached_evaluation(self, spec: WorkloadSpec, batch: int,
                          cmem_budget_bytes: Optional[int] = None
                          ) -> Optional[Evaluation]:
        """A memo/EvalCache evaluation hit, or None (never computes)."""
        key = (spec.name, batch, cmem_budget_bytes)
        hit = self._evaluations.get(key)
        if hit is not None:
            return hit
        with metrics().timer("tier.cache_lookup_s"):
            cached = self.engine_cache().get(
                self.evaluation_key(spec, batch, cmem_budget_bytes))
        if cached is not None:
            self._evaluations[key] = cached
        return cached

    def store_evaluation(self, spec: WorkloadSpec, batch: int,
                         cmem_budget_bytes: Optional[int],
                         evaluation: Evaluation) -> None:
        """Publish an evaluation under the keys :meth:`evaluate` uses."""
        self.engine_cache().put(
            self.evaluation_key(spec, batch, cmem_budget_bytes), evaluation,
            self._meta("eval", spec, batch, cmem_budget_bytes))
        self._evaluations[(spec.name, batch, cmem_budget_bytes)] = evaluation

    def _meta(self, kind: str, spec: WorkloadSpec, batch: int,
              cmem_budget_bytes: Optional[int]) -> dict:
        return key_meta(kind, self.chip.name, self.version.name, spec.name,
                        batch, cmem_budget_bytes, _EVAL_DTYPE,
                        phase=getattr(spec, "phase", None),
                        kv_bucket=getattr(spec, "kv_bucket", None))

    # ------------------------------------------------------------- compile/run

    def compiled(self, spec: WorkloadSpec, batch: int,
                 cmem_budget_bytes: Optional[int] = None) -> CompiledModel:
        """Compile (memoized) a workload at a batch size."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        key = (spec.name, batch, cmem_budget_bytes)
        if key not in self._compiled:
            module = built_module(spec, batch)
            self._compiled[key] = compile_model(
                module, self.chip, version=self.version,
                cmem_budget_bytes=cmem_budget_bytes)
        return self._compiled[key]

    def run(self, spec: WorkloadSpec, batch: int,
            cmem_budget_bytes: Optional[int] = None) -> SimResult:
        """Simulate (memoized) one inference of a workload."""
        key = (spec.name, batch, cmem_budget_bytes)
        if key not in self._results:
            reg = metrics()
            engine = self.engine_cache()
            ekey = self._key("sim", spec, batch, cmem_budget_bytes)
            with reg.timer("tier.cache_lookup_s"):
                cached = engine.get(ekey)
            if cached is None:
                with reg.timer("tier.compile_s"):
                    compiled = self.compiled(spec, batch, cmem_budget_bytes)
                with reg.timer("tier.sim_s"):
                    cached = self.sim.run(compiled.program)
                engine.put(ekey, cached,
                           self._meta("sim", spec, batch,
                                      cmem_budget_bytes))
            self._results[key] = cached
        return self._results[key]

    def latency_s(self, spec: WorkloadSpec, batch: int,
                  cmem_budget_bytes: Optional[int] = None) -> float:
        """Latency of one batch (seconds)."""
        return self.run(spec, batch, cmem_budget_bytes).seconds

    # ------------------------------------------------------------- evaluation

    def evaluate(self, spec: WorkloadSpec, batch: Optional[int] = None,
                 cmem_budget_bytes: Optional[int] = None) -> Evaluation:
        """Chip-level throughput/power evaluation at a batch size."""
        b = batch if batch is not None else spec.default_batch
        key = (spec.name, b, cmem_budget_bytes)
        if key in self._evaluations:
            return self._evaluations[key]
        engine = self.engine_cache()
        ekey = self._key("eval", spec, b, cmem_budget_bytes)
        with metrics().timer("tier.cache_lookup_s"):
            cached = engine.get(ekey)
        if cached is None:
            cached = self._evaluate_uncached(spec, b, cmem_budget_bytes)
            engine.put(ekey, cached,
                       self._meta("eval", spec, b, cmem_budget_bytes))
        self._evaluations[key] = cached
        return cached

    def _evaluate_uncached(self, spec: WorkloadSpec, b: int,
                           cmem_budget_bytes: Optional[int]) -> Evaluation:
        result = self.run(spec, b, cmem_budget_bytes)
        compiled = self.compiled(spec, b, cmem_budget_bytes)
        return self.evaluation_from(spec, b, cmem_budget_bytes, result,
                                    compiled)

    def evaluation_from(self, spec: WorkloadSpec, b: int,
                        cmem_budget_bytes: Optional[int],
                        result: SimResult,
                        compiled: CompiledModel) -> Evaluation:
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
        if slo_s <= 0:
            raise ValueError("SLO must be positive")
        from repro.engine.grid import GridJob, run_grid
        results = run_grid([GridJob(self, spec, batch)
                            for batch in candidates])
        best = 0
        for batch, result in zip(candidates, results):
            if result.seconds <= slo_s:
                best = max(best, batch)
        return best


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
