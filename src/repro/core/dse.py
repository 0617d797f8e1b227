"""Design-space exploration: re-deriving TPUv4i from the lessons (E10, E15).

Two instruments:

* :func:`cmem_sweep` — performance of a workload set as CMEM capacity grows
  from 0 to 256 MiB (the paper's CMEM-sensitivity figure: steep gains until
  the hot working set fits, then a plateau);
* :func:`enumerate_candidates` + :func:`pareto_frontier` — sweep MXU count,
  CMEM capacity and clock; estimate each candidate's TDP from the process
  node; reject designs that bust the air-cooling envelope (Lesson 8);
  report the perf / perf-per-watt Pareto set. The shipped TPUv4i
  configuration (4 MXUs, 128 MiB CMEM, ~1 GHz) sits on that frontier.

Evaluation routes through the shared engine
(:mod:`repro.engine`): results are memoized in one shared design point
per candidate (and, with a cache directory, in the
:class:`~repro.engine.cache.EvalCache` disk tier), and both sweeps run
as one batched grid pass (:mod:`repro.engine.grid`) with results
bit-identical to the per-point loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.chip import ChipConfig, TPUV4I
from repro.arch.cooling import AIR_COOLING, air_coolable
from repro.arch.power import PowerModel
from repro.compiler.versions import CompilerVersion, LATEST
from repro.core.design_point import shared_design_point
from repro.engine import grid
from repro.tech.node import node_by_name
from repro.util.units import GHZ, MIB
from repro.workloads.models import PRODUCTION_APPS, WorkloadSpec

# Subset used by default: one app per family keeps DSE wall-time modest
# while spanning the roofline (benchmarks can pass the full eight).
DEFAULT_DSE_APPS: tuple[str, ...] = ("mlp1", "cnn0", "rnn0", "bert0")


def _apps(names: Sequence[str]) -> list[WorkloadSpec]:
    by_name = {w.name: w for w in PRODUCTION_APPS}
    return [by_name[n] for n in names]


# -------------------------------------------------------------- CMEM sweep

def cmem_sweep(spec: WorkloadSpec, capacities_bytes: Sequence[int],
               chip: ChipConfig = TPUV4I,
               batch: Optional[int] = None) -> list[tuple[int, float]]:
    """(capacity, latency seconds) for a workload across CMEM budgets.

    The whole capacity axis is one grid batch (in-process, cache-backed).
    Capacities are validated up front: a bad one raises before any point
    is evaluated.
    """
    capacities = list(capacities_bytes)
    for capacity in capacities:
        if capacity < 0:
            raise ValueError("CMEM capacity must be non-negative")
    b = batch if batch is not None else spec.default_batch
    point = shared_design_point(chip)
    results = grid.run_grid([grid.GridJob(point, spec, b, capacity)
                             for capacity in capacities])
    return [(capacity, result.seconds)
            for capacity, result in zip(capacities, results)]


# ------------------------------------------------------------- candidates

@dataclass(frozen=True)
class DesignCandidate:
    """One explored configuration and its evaluation."""

    chip: ChipConfig
    geomean_qps: float
    tdp_estimate_w: float
    air_coolable: bool
    die_mm2_estimate: float

    @property
    def qps_per_watt(self) -> float:
        return self.geomean_qps / self.tdp_estimate_w

    def describe(self) -> str:
        cooling = "air" if self.air_coolable else "LIQUID"
        return (f"{self.chip.name}: {self.chip.mxus_per_core} MXU, "
                f"{self.chip.cmem_bytes // MIB} MiB CMEM, "
                f"{self.chip.clock_hz / GHZ:.2f} GHz -> "
                f"qps={self.geomean_qps:.0f}, ~{self.tdp_estimate_w:.0f} W "
                f"({cooling}), ~{self.die_mm2_estimate:.0f} mm2")


def _die_estimate_mm2(chip: ChipConfig) -> float:
    """Bottom-up die area: MXU logic + CMEM/VMEM SRAM + 40% uncore."""
    node = node_by_name(chip.process)
    # ~30 transistors per MAC cell (multiplier + accumulator + pipe).
    mac_transistors_m = chip.macs_per_cycle * 30 / 1e6
    logic = node.logic_area_mm2(mac_transistors_m)
    sram = node.sram_area_mm2(chip.on_chip_bytes)
    return (logic + sram) * 1.4


def _variant(mxus: int, cmem_mib: int, clock_ghz: float) -> ChipConfig:
    name = f"v4-{mxus}mxu-{cmem_mib}m-{clock_ghz:.2f}g"
    return TPUV4I.variant(
        name,
        mxus_per_core=mxus,
        cmem_bytes=cmem_mib * MIB,
        cmem_bw=TPUV4I.cmem_bw if cmem_mib else 0.0,
        clock_hz=clock_ghz * GHZ,
        # Idle power scales weakly with compute/SRAM provisioning.
        idle_w=40.0 + 2.5 * mxus + 0.05 * cmem_mib,
    )


def enumerate_candidates(
        mxu_counts: Sequence[int] = (2, 4, 8),
        cmem_mib_options: Sequence[int] = (0, 64, 128),
        clocks_ghz: Sequence[float] = (1.05,),
) -> list[ChipConfig]:
    """The candidate grid around the TPUv4i design point."""
    candidates: list[ChipConfig] = []
    for mxus in mxu_counts:
        for cmem in cmem_mib_options:
            for clock in clocks_ghz:
                if mxus <= 0 or cmem < 0 or clock <= 0:
                    raise ValueError("bad candidate parameters")
                candidates.append(_variant(mxus, cmem, clock))
    return candidates


def candidate_from_evaluations(chip: ChipConfig,
                               evaluations: Sequence) -> DesignCandidate:
    """Fold per-app :class:`Evaluation` records into a candidate.

    The arithmetic shared by the serial loop and the grid-batched path:
    geomean over the evaluations' ``chip_qps`` in the given (app) order,
    plus the chip-only TDP/area estimates.
    """
    qps = [evaluation.chip_qps for evaluation in evaluations]
    geomean = math.prod(qps) ** (1.0 / len(qps))
    tdp = PowerModel(chip).tdp_estimate_w()
    return DesignCandidate(
        chip=chip,
        geomean_qps=geomean,
        tdp_estimate_w=tdp,
        air_coolable=air_coolable(tdp),
        die_mm2_estimate=_die_estimate_mm2(chip),
    )


def evaluate_candidate(chip: ChipConfig,
                       app_names: Sequence[str] = DEFAULT_DSE_APPS,
                       version: CompilerVersion = LATEST
                       ) -> DesignCandidate:
    """Evaluate one candidate on the app set (geomean chip QPS) + TDP."""
    point = shared_design_point(chip, version)
    evaluations = [point.evaluate(spec) for spec in _apps(app_names)]
    return candidate_from_evaluations(chip, evaluations)


def evaluate_candidates(chips: Sequence[ChipConfig],
                        app_names: Sequence[str] = DEFAULT_DSE_APPS,
                        *, version: CompilerVersion = LATEST,
                        workers: int = 1) -> list[DesignCandidate]:
    """Evaluate a candidate grid as one batched kernel dispatch.

    Every (chip, app) pair becomes one grid job: cache hits are excluded
    up front, the misses share compilations per distinct compile content
    and one vectorized replay batch, and the per-candidate fold is
    :func:`candidate_from_evaluations` — so the result list is identical
    to ``[evaluate_candidate(c, app_names, version) for c in chips]``.

    ``workers`` survives only for existing ``workers=1`` callers; every
    sweep runs in this process, so any other value is an error.
    """
    if workers != 1:
        raise ValueError(
            f"workers={workers!r} is not supported: sweeps run in process "
            "as one grid batch (workers must be 1)")
    specs = _apps(app_names)
    jobs = [grid.GridJob(shared_design_point(chip, version), spec)
            for chip in chips for spec in specs]
    evaluations = grid.evaluate_jobs(jobs)
    return [
        candidate_from_evaluations(
            chip, evaluations[i * len(specs):(i + 1) * len(specs)])
        for i, chip in enumerate(chips)
    ]


def pareto_frontier(candidates: Sequence[DesignCandidate],
                    require_air: bool = True) -> list[DesignCandidate]:
    """Non-dominated set under (geomean_qps up, tdp down).

    With ``require_air=True`` liquid-only designs are excluded first —
    Lesson 8 applied as a hard constraint, the way the team applied it.
    """
    pool = [c for c in candidates if c.air_coolable] if require_air else list(candidates)
    frontier: list[DesignCandidate] = []
    for candidate in pool:
        dominated = any(
            other.geomean_qps >= candidate.geomean_qps
            and other.tdp_estimate_w <= candidate.tdp_estimate_w
            and (other.geomean_qps > candidate.geomean_qps
                 or other.tdp_estimate_w < candidate.tdp_estimate_w)
            for other in pool)
        if not dominated:
            frontier.append(candidate)
    return sorted(frontier, key=lambda c: c.tdp_estimate_w)
