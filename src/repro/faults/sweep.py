"""Seeded fault sweeps: availability and p99-under-faults across the fleet.

One row per (chip generation, app): generate deterministic Poisson
traffic at a fixed fraction of the chip's SLO-feasible capacity, simulate
it twice — once faultless, once under a :class:`~repro.faults.model.
FaultModel` — and report availability, retries, drops and the latency
tail the faults cost. Everything is seeded, so two sweeps with the same
arguments are identical record for record (asserted in
``tests/test_faults.py::TestFaultSweep::test_sweep_deterministic``).

Chips without bf16 (TPUv1) are served through an int8-retargeted
compile — the dtype those parts actually ran in production — so the
sweep covers all four generations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch import GENERATIONS
from repro.arch.chip import ChipConfig
from repro.core.design_point import DesignPoint, shared_design_point
from repro.engine import grid
from repro.faults.model import FaultModel
from repro.serving.batching import BatchPolicy
from repro.serving.server import ServingSimulator, ServingStats
from repro.serving.slo import Slo, check_load, slo_capacity
from repro.workloads.generator import RequestGenerator
from repro.workloads.models import app_by_name

#: Default sweep shape: the DSE app subset at half of SLO capacity.
DEFAULT_UTILIZATION = 0.5
DEFAULT_DURATION_S = 2.0
DEFAULT_MAX_BATCH = 16


@dataclass(frozen=True)
class FaultSweepRow:
    """Faultless-vs-faulted serving stats for one (chip, app) pair."""

    chip: str
    app: str
    offered_qps: float
    baseline: ServingStats
    faulted: ServingStats

    @property
    def p99_degradation(self) -> float:
        """Faulted p99 over baseline p99 (1.0 = no tail impact)."""
        if self.baseline.p99_s == 0.0:
            return 1.0
        return self.faulted.p99_s / self.baseline.p99_s


def latency_table(point: DesignPoint, spec, steps: Sequence[int], *,
                  dtype: Optional[str] = None) -> dict[int, float]:
    """Batch -> compute latency for one (chip, app), dtype-aware.

    ``dtype=None`` picks the chip's :attr:`~repro.arch.chip.ChipConfig.
    native_dtype`: bf16 where supported, otherwise an int8-retargeted
    compile (TPUv1, and the cluster's degraded-precision tier, actually
    ran int8 in production). Every dtype takes one batched grid-kernel
    pass over the steps, and each result lands in the point's EvalCache
    under the same key ``latency_s`` uses.
    """
    if dtype is None:
        dtype = point.chip.native_dtype
    results = grid.run_grid([grid.GridJob(point, spec, step, dtype=dtype)
                             for step in steps])
    return {step: r.seconds for step, r in zip(steps, results)}


def fault_sweep(model: FaultModel, *,
                apps: Optional[Sequence[str]] = None,
                chips: Optional[Sequence[ChipConfig]] = None,
                duration_s: float = DEFAULT_DURATION_S,
                utilization: float = DEFAULT_UTILIZATION,
                max_batch: int = DEFAULT_MAX_BATCH) -> list[FaultSweepRow]:
    """Simulate every (chip, app) pair faultless and under ``model``.

    Traffic per pair is Poisson at ``utilization`` of the chip's
    capacity at its largest SLO-feasible batch (batch 1 when nothing
    meets the SLO, so no generation is silently skipped), seeded from
    the model's seed — the whole sweep is a pure function of its
    arguments.
    """
    from repro.core.dse import DEFAULT_DSE_APPS
    check_load(duration_s, utilization)
    steps = BatchPolicy.batch_steps(max_batch)
    app_names = tuple(apps) if apps is not None else DEFAULT_DSE_APPS
    chip_list = tuple(chips) if chips is not None else GENERATIONS

    rows: list[FaultSweepRow] = []
    for pair_index, (chip, app) in enumerate(
            (c, a) for c in chip_list for a in app_names):
        spec = app_by_name(app)
        slo = Slo(spec.slo_ms / 1e3)
        point = shared_design_point(chip)
        table = latency_table(point, spec, steps)
        rate_qps = utilization * slo_capacity(table, slo, chip.cores)

        simulator = ServingSimulator(point, spec,
                                     BatchPolicy.for_slo(max_batch, slo), slo)
        simulator.seed_latencies(table)

        # Per-pair traffic stream, derived from the fault seed so the
        # sweep stays a pure function of (model, apps, chips, ...).
        # Bare timestamps (same draws as .poisson, which delegates
        # here): the simulator only reads arrival times.
        traffic = RequestGenerator(model.seed * 7919 + pair_index)
        requests = traffic.rng.poisson_arrivals(rate_qps, duration_s)
        if not requests:
            continue  # degenerate rate/duration; nothing to serve
        baseline = simulator.simulate(requests)
        faulted = simulator.simulate(requests, faults=model)
        rows.append(FaultSweepRow(chip=chip.name, app=spec.name,
                                  offered_qps=rate_qps, baseline=baseline,
                                  faulted=faulted))
    return rows
