"""Shared fixtures: tiny models and memoized design points.

Session-scoped fixtures keep the suite fast: compiling/simulating a
workload is memoized inside DesignPoint, so tests share one instance per
chip.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.core import DesignPoint
from repro.graph import GraphBuilder, Shape


@pytest.fixture(scope="session")
def v4i_point() -> DesignPoint:
    return DesignPoint(TPUV4I)


@pytest.fixture(scope="session")
def v3_point() -> DesignPoint:
    return DesignPoint(TPUV3)


def make_tiny_mlp(batch: int = 4, in_dim: int = 256, hidden: int = 128,
                  name: str = "tiny"):
    """A two-layer MLP used across compiler/sim tests."""
    builder = GraphBuilder(name)
    x = builder.parameter(Shape((batch, in_dim)), "x")
    w0 = builder.constant(Shape((in_dim, hidden)), "w0")
    h = builder.relu(builder.dot(x, w0, "h"), "act")
    w1 = builder.constant(Shape((hidden, 16)), "w1")
    out = builder.dot(h, w1, "out")
    module = builder.build()
    module.set_root(out)
    return module


@pytest.fixture()
def tiny_mlp():
    return make_tiny_mlp()


@pytest.fixture(scope="session")
def all_chips():
    return (TPUV1, TPUV2, TPUV3, TPUV4I)


#: The bit-identity sweeps' program set (test_fastsim, test_gridsim,
#: test_obs): every generation x these apps x these batches.
IDENTITY_CHIPS = (TPUV1, TPUV2, TPUV3, TPUV4I)
IDENTITY_APPS = ("mlp0", "cnn0", "rnn0")
IDENTITY_BATCHES = (1, 8)


def supported_dtypes(chip) -> tuple:
    """The serving dtypes ``chip`` runs (TPUv1 is int8-only)."""
    return tuple(d for d in ("bf16", "int8") if chip.supports_dtype(d))


@pytest.fixture(scope="session")
def compiled_programs():
    """{(chip.name, app, batch): (chip, program)} for the identity sweeps."""
    from repro.compiler import compile_model
    from repro.compiler.pipeline import retarget_dtype
    from repro.workloads import app_by_name

    programs = {}
    for chip in IDENTITY_CHIPS:
        for app in IDENTITY_APPS:
            spec = app_by_name(app)
            for batch in IDENTITY_BATCHES:
                module = spec.build(batch)
                if not chip.supports_dtype("bf16"):
                    module = retarget_dtype(module, "int8")
                program = compile_model(module, chip).program
                programs[(chip.name, app, batch)] = (chip, program)
    return programs


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Fail, rather than hang, if the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def cold_engine() -> Iterator[None]:
    """Evaluate from scratch: no built modules, no results.

    Empties the module cache and swaps in a fresh disk-less global
    :class:`~repro.engine.cache.EvalCache` for the block, so every
    evaluation inside builds, compiles, lowers and simulates anew.
    """
    from repro.engine import EvalCache, clear_modules, set_cache

    clear_modules()
    previous = set_cache(EvalCache())
    try:
        yield
    finally:
        set_cache(previous)


@contextmanager
def reference_paths() -> Iterator[None]:
    """Route every layer through its test-only reference twin.

    Production code has one path per layer; the references survive only
    as oracles. Inside this block the dispatch points are monkeypatched:

    * ``TensorCoreSim.run`` runs the per-instruction interpreter;
    * ``run_grid`` / ``evaluate_jobs`` run each job on its own through
      ``DesignPoint.run`` / ``DesignPoint.evaluate`` (the per-point
      loops the grid batch replaces, so sweeps go per point too);
    * ``ServingSimulator`` and ``ClusterSimulator`` replay through their
      ``_replay_events`` loops instead of the fastserve kernels;
    * ``ContinuousBatchingSimulator`` runs each core through the per-slot
      loop in ``tests/reference/continuous.py``.

    Equivalence tests run a scenario once normally and once in here.
    """
    import repro.cluster.cluster as cluster
    import repro.engine.grid as grid
    import repro.serving.server as server
    from repro.serving.continuous import ContinuousBatchingSimulator
    from repro.sim.core import TensorCoreSim
    from tests.reference import continuous as continuous_reference

    def interpreted(sim, program, *, dtype="bf16", tracer=None):
        assert tracer is None, "the interpreter records no spans"
        return sim.run_interpreted(program, dtype=dtype)

    def run_grid(jobs):
        return [job.point.run(job.spec, job.resolved_batch,
                              job.cmem_budget_bytes, job.dtype)
                for job in jobs]

    def evaluate_jobs(jobs):
        return [job.point.evaluate(job.spec, job.batch,
                                   job.cmem_budget_bytes, job.dtype)
                for job in jobs]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TensorCoreSim, "run", interpreted)
        patch.setattr(grid, "run_grid", run_grid)
        patch.setattr(grid, "evaluate_jobs", evaluate_jobs)
        patch.setattr(server, "replay_serving",
                      lambda sim, *args: sim._replay_events(*args))
        patch.setattr(cluster, "replay_cluster",
                      lambda sim, *args: sim._replay_events(*args))
        patch.setattr(ContinuousBatchingSimulator, "_run_core",
                      continuous_reference.run_core)
        yield
