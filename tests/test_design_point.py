"""Tests for DesignPoint and the DSE (E10, E15)."""

import re

import pytest

from repro.arch import TPUV3, TPUV4I
from repro.core import (
    DesignPoint,
    cmem_sweep,
    enumerate_candidates,
    evaluate_candidate,
    pareto_frontier,
)
from repro.engine import EvalCache, GridJob, run_grid
from repro.obs.metrics import collecting_metrics
from repro.util.units import MIB
from repro.workloads import app_by_name


class TestDesignPoint:
    def test_memoization(self, v4i_point):
        spec = app_by_name("cnn0")
        first = v4i_point.run(spec, 4)
        second = v4i_point.run(spec, 4)
        assert first is second

    def test_latency_positive_and_batch_scales(self, v4i_point):
        spec = app_by_name("cnn0")
        lat1 = v4i_point.latency_s(spec, 1)
        lat16 = v4i_point.latency_s(spec, 16)
        assert 0 < lat1 < lat16

    def test_evaluate_fields(self, v4i_point):
        ev = v4i_point.evaluate(app_by_name("bert0"))
        assert ev.chip == "TPUv4i"
        assert ev.chip_qps > 0
        assert 0 < ev.chip_power_w <= TPUV4I.tdp_w
        assert ev.tops_per_watt > 0

    def test_multi_core_chip_multiplies_throughput(self, v3_point):
        spec = app_by_name("cnn0")
        ev = v3_point.evaluate(spec, batch=8)
        single_core_qps = 8 / v3_point.latency_s(spec, 8)
        assert ev.chip_qps == pytest.approx(2 * single_core_qps)

    def test_v4i_beats_v3_on_perf_per_watt(self, v4i_point, v3_point):
        """The headline E8 claim, at the evaluation level."""
        spec = app_by_name("bert0")
        v4i = v4i_point.evaluate(spec)
        v3 = v3_point.evaluate(spec)
        assert v4i.samples_per_joule > 1.5 * v3.samples_per_joule

    def test_max_batch_under_slo(self, v4i_point):
        spec = app_by_name("cnn0")
        tight = v4i_point.max_batch_under_slo(spec, slo_s=0.003)
        loose = v4i_point.max_batch_under_slo(spec, slo_s=0.1)
        assert 0 < tight < loose

    def test_impossible_slo_gives_zero(self, v4i_point):
        assert v4i_point.max_batch_under_slo(app_by_name("cnn0"), 1e-6) == 0

    def test_bad_batch_rejected(self, v4i_point):
        with pytest.raises(ValueError):
            v4i_point.latency_s(app_by_name("cnn0"), 0)

    def test_nan_slo_rejected(self, v4i_point):
        with pytest.raises(ValueError, match="SLO must be positive"):
            v4i_point.max_batch_under_slo(app_by_name("cnn0"), float("nan"))


@pytest.fixture(scope="module")
def warm_mlp0_point():
    """A point whose memos hold mlp0 at batch 1 and 2, budget None and 0:
    the records a bool or float ``batch``/budget equals as a memo key."""
    point = DesignPoint(TPUV4I, cache=EvalCache())
    spec = app_by_name("mlp0")
    for batch in (1, 2):
        for budget in (None, 0):
            point.evaluate(spec, batch, budget)
    return point


class TestJobChecks:
    """``batch`` and ``cmem_budget_bytes`` are checked before any memo is
    read, so the answer never depends on what the memo holds."""

    _BAD = [("batch", value, f"batch must be an int >= 1, got {value!r}")
            for value in (True, 2.0, 0, -1)] + [
           ("cmem_budget_bytes", value,
            f"cmem_budget_bytes must be an int >= 0, got {value!r}")
            for value in (False, 0.0, -1)]
    _CALLS = {
        "run": lambda p, s, b, c: p.run(s, b, c),
        "evaluate": lambda p, s, b, c: p.evaluate(s, b, c),
        "compiled": lambda p, s, b, c: p.compiled(s, b, c),
        "run_grid": lambda p, s, b, c: run_grid([GridJob(p, s, b, c)]),
    }

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("call", sorted(_CALLS))
    @pytest.mark.parametrize("field,value,message", _BAD,
                             ids=[f"{f}={v!r}" for f, v, _ in _BAD])
    def test_bad_value_is_a_named_error(self, warm, call, field, value,
                                        message, warm_mlp0_point):
        point = (warm_mlp0_point if warm
                 else DesignPoint(TPUV4I, cache=EvalCache()))
        args = {"batch": 1, "cmem_budget_bytes": None, field: value}
        puts = point.engine_cache().stats.puts
        with collecting_metrics() as registry:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                self._CALLS[call](point, app_by_name("mlp0"), args["batch"],
                                  args["cmem_budget_bytes"])
            assert registry.counter("engine.grid.points").value == 0
        assert point.engine_cache().stats.puts == puts


class TestCmemSweep:
    def test_latency_never_worsens_with_capacity(self):
        spec = app_by_name("rnn0")
        sweep = cmem_sweep(spec, [0, 64 * MIB, 128 * MIB])
        latencies = [l for _, l in sweep]
        assert latencies[0] >= latencies[1] >= latencies[2]

    def test_rnn0_gains_substantially(self):
        """The E10 shape: weight-streaming apps love CMEM."""
        spec = app_by_name("rnn0")
        sweep = dict(cmem_sweep(spec, [0, 128 * MIB]))
        assert sweep[0] > 1.4 * sweep[128 * MIB]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            cmem_sweep(app_by_name("rnn0"), [-1])


class TestDse:
    def test_candidate_grid_size(self):
        grid = enumerate_candidates(mxu_counts=(2, 4), cmem_mib_options=(0, 128))
        assert len(grid) == 4

    def test_more_mxus_more_qps_more_power(self):
        small = evaluate_candidate(
            enumerate_candidates((2,), (128,))[0], app_names=("cnn0",))
        big = evaluate_candidate(
            enumerate_candidates((8,), (128,))[0], app_names=("cnn0",))
        assert big.geomean_qps > small.geomean_qps
        assert big.tdp_estimate_w > small.tdp_estimate_w

    def test_cmem_helps_geomean(self):
        bare = evaluate_candidate(
            enumerate_candidates((4,), (0,))[0], app_names=("rnn0",))
        with_cmem = evaluate_candidate(
            enumerate_candidates((4,), (128,))[0], app_names=("rnn0",))
        assert with_cmem.geomean_qps > bare.geomean_qps

    def test_pareto_frontier_nondominated(self):
        candidates = [evaluate_candidate(c, app_names=("cnn0",))
                      for c in enumerate_candidates((2, 4), (0, 128))]
        frontier = pareto_frontier(candidates, require_air=False)
        assert frontier
        for a in frontier:
            assert not any(b.geomean_qps > a.geomean_qps
                           and b.tdp_estimate_w < a.tdp_estimate_w
                           for b in candidates)

    def test_air_constraint_filters(self):
        candidates = [evaluate_candidate(c, app_names=("cnn0",))
                      for c in enumerate_candidates((16,), (128,))]
        assert pareto_frontier(candidates, require_air=True) == []
