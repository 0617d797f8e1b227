"""Shared benchmark fixtures and the artifact recorder.

Every benchmark regenerates one table/figure of the paper. The rendered
text goes to stdout *and* to ``benchmarks/artifacts/<experiment>.txt`` so
EXPERIMENTS.md can quote the measured output verbatim.

DesignPoints are session-scoped, and all evaluation routes through the
shared engine (:mod:`repro.engine`): results are memoized in each design
point (the sweeps share one per chip through ``shared_design_point``),
so expensive workloads are evaluated once per point across the whole
suite — and, with ``REPRO_CACHE_DIR`` set, once across *invocations* of
the suite through the EvalCache disk tier. The cache's disk-hit/miss
counters are written to ``artifacts/engine_cache_stats.txt`` at session
end.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.core import DesignPoint
from repro.engine import get_cache

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"


def record(experiment: str, text: str) -> str:
    """Print and persist one experiment's rendered output."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {experiment} ===\n{text}\n")
    return text


@pytest.fixture(scope="session")
def v4i_point() -> DesignPoint:
    return DesignPoint(TPUV4I)


@pytest.fixture(scope="session")
def v3_point() -> DesignPoint:
    return DesignPoint(TPUV3)


@pytest.fixture(scope="session")
def v2_point() -> DesignPoint:
    return DesignPoint(TPUV2)


def run_once(benchmark, func):
    """Run a bench body exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def pytest_sessionfinish(session, exitstatus):
    """Record the engine cache's counters for the whole bench session."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / "engine_cache_stats.txt").write_text(
        get_cache().describe() + "\n")
