"""Engine-backed sweeps: the parallel counterparts of the DSE loops.

Task functions are module-level (picklable for the process pool) and
import ``repro.core`` lazily, keeping the dependency direction
core -> engine at import time while letting workers execute core code.

Every sweep returns results in input order, so feeding them to
``pareto_frontier`` / tables gives output identical to the serial loops.

When a sweep would run serially (one effective worker), it is dispatched
as **one batched grid evaluation** through :mod:`repro.engine.grid`
instead of a per-point loop: same results, same cache contents, one
vectorized kernel pass (asserted against the per-point loops in
``tests/test_gridsim.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.parallel import ParallelSweeper
from repro.obs.metrics import metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.chip import ChipConfig
    from repro.core.dse import DesignCandidate
    from repro.workloads.models import WorkloadSpec


# ----------------------------------------------------------- candidate sweep

def _candidate_task(args: tuple["ChipConfig", tuple[str, ...], str]
                    ) -> "DesignCandidate":
    chip, app_names, version_name = args
    from repro.compiler.versions import release_by_name
    from repro.core.dse import evaluate_candidate
    return evaluate_candidate(chip, app_names,
                              version=release_by_name(version_name))


def evaluate_candidates(chips: Sequence["ChipConfig"],
                        app_names: Optional[Sequence[str]] = None,
                        *, version=None,
                        workers: Optional[int] = None,
                        chunk_size: Optional[int] = None
                        ) -> list["DesignCandidate"]:
    """Evaluate a candidate grid, fanning out over processes.

    ``workers=None`` uses the available CPUs; ``workers=1`` evaluates the
    grid in process as one batch. Results are ordered like ``chips`` and bit-identical
    across worker counts.
    """
    from repro.compiler.versions import LATEST
    from repro.core.dse import DEFAULT_DSE_APPS
    names = tuple(app_names) if app_names is not None else DEFAULT_DSE_APPS
    release = version if version is not None else LATEST
    sweeper = ParallelSweeper(workers=workers, chunk_size=chunk_size)
    tasks = [(chip, names, release.name) for chip in chips]
    metrics().count("engine.sweeps.candidates", len(tasks))
    if sweeper.effective_workers(len(tasks)) <= 1:
        from repro.core.dse import evaluate_candidates_grid
        return evaluate_candidates_grid(list(chips), names, release)
    return sweeper.map_cached(_candidate_task, tasks)


# ---------------------------------------------------------------- CMEM sweep

def _cmem_task(args: tuple["ChipConfig", str, int, int]) -> tuple[int, float]:
    chip, workload, batch, capacity = args
    from repro.core.design_point import shared_design_point
    from repro.workloads.models import app_by_name
    point = shared_design_point(chip)
    spec = app_by_name(workload)
    return capacity, point.latency_s(spec, batch, cmem_budget_bytes=capacity)


def cmem_capacity_sweep(spec: "WorkloadSpec", capacities_bytes: Sequence[int],
                        chip: "ChipConfig", batch: int,
                        *, workers: Optional[int] = None
                        ) -> list[tuple[int, float]]:
    """(capacity, latency) per CMEM budget, optionally process-parallel."""
    for capacity in capacities_bytes:
        if capacity < 0:
            raise ValueError("CMEM capacity must be non-negative")
    sweeper = ParallelSweeper(workers=workers)
    tasks = [(chip, spec.name, batch, capacity)
             for capacity in capacities_bytes]
    metrics().count("engine.sweeps.cmem_points", len(tasks))
    if sweeper.effective_workers(len(tasks)) <= 1:
        from repro.core.design_point import shared_design_point
        from repro.engine.grid import GridJob, run_grid
        point = shared_design_point(chip)
        results = run_grid([GridJob(point, spec, batch, capacity)
                            for capacity in capacities_bytes])
        return [(capacity, result.seconds)
                for capacity, result in zip(capacities_bytes, results)]
    return sweeper.map_cached(_cmem_task, tasks)


# -------------------------------------------------------- batch-latency grid

def _latency_task(args: tuple["ChipConfig", str, str, int]) -> tuple[int, float]:
    chip, version_name, workload, batch = args
    from repro.compiler.versions import release_by_name
    from repro.core.design_point import shared_design_point
    from repro.workloads.models import app_by_name
    point = shared_design_point(chip, release_by_name(version_name))
    return batch, point.latency_s(app_by_name(workload), batch)


def batch_latency_grid(chip: "ChipConfig", workload: str,
                       batches: Sequence[int], *, version=None,
                       workers: Optional[int] = None
                       ) -> dict[int, float]:
    """Batch -> latency for a workload (the serving simulator's table)."""
    from repro.compiler.versions import LATEST
    release = version if version is not None else LATEST
    for batch in batches:
        if batch <= 0:
            raise ValueError("batch must be positive")
    sweeper = ParallelSweeper(workers=workers)
    tasks = [(chip, release.name, workload, batch) for batch in batches]
    metrics().count("engine.sweeps.batch_points", len(tasks))
    if sweeper.effective_workers(len(tasks)) <= 1:
        from repro.core.design_point import shared_design_point
        from repro.engine.grid import GridJob, run_grid
        from repro.workloads.models import app_by_name
        point = shared_design_point(chip, release)
        spec = app_by_name(workload)
        results = run_grid([GridJob(point, spec, batch)
                            for batch in batches])
        return {batch: result.seconds
                for batch, result in zip(batches, results)}
    return dict(sweeper.map_cached(_latency_task, tasks))
