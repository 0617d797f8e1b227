"""Tests for the per-operator profiler and remaining thin-coverage paths."""

import pytest

from repro.arch import TPUV3, TPUV4I
from repro.compiler import compile_model, profile_module
from repro.core import DesignPoint
from repro.serving import (
    BatchPolicy,
    MultiTenantSim,
    ServingSimulator,
    Slo,
    Tenant,
    partition_cmem,
)
from repro.sim import TensorCoreSim
from repro.workloads import RequestGenerator, app_by_name

from tests.conftest import make_tiny_mlp


class TestProfiler:
    def test_tiny_mlp_attribution(self, tiny_mlp):
        profile = profile_module(tiny_mlp, TPUV4I)
        assert profile.total_cycles > 0
        categories = profile.category_cycles()
        assert set(categories) == {"mxu", "vpu", "dma"}
        assert sum(categories.values()) == profile.total_cycles

    def test_bert_is_mxu_dominated(self):
        module = app_by_name("bert0").build(4)
        profile = profile_module(module, TPUV4I)
        categories = profile.category_cycles()
        assert categories["mxu"] > categories["vpu"]
        assert categories["mxu"] > categories["dma"]

    def test_rnn_weight_streaming_shows_in_dma(self):
        """Without CMEM, rnn0's profile shifts toward memory."""
        module = app_by_name("rnn0").build(8)
        with_cmem = profile_module(module, TPUV4I)
        without = profile_module(module, TPUV3)  # no CMEM on v3
        share_with = (with_cmem.category_cycles()["dma"]
                      / with_cmem.total_cycles)
        share_without = without.category_cycles()["dma"] / without.total_cycles
        assert share_without > share_with

    def test_top_sorted_descending(self, tiny_mlp):
        profile = profile_module(tiny_mlp, TPUV4I)
        top = profile.top(5)
        assert all(a.total_cycles >= b.total_cycles
                   for a, b in zip(top, top[1:]))
        with pytest.raises(ValueError):
            profile.top(0)

    def test_unoverlapped_exceeds_simulated(self, tiny_mlp):
        """The profiler's sum is an upper bound on the pipelined latency."""
        profile = profile_module(tiny_mlp, TPUV4I)
        simulated = TensorCoreSim(TPUV4I).run(
            compile_model(tiny_mlp, TPUV4I).program)
        assert profile.total_cycles >= simulated.cycles * 0.9

    def test_render(self, tiny_mlp):
        text = profile_module(tiny_mlp, TPUV4I).render(3)
        assert "split:" in text
        assert "mxu" in text

    def test_bound_by_labels(self, tiny_mlp):
        profile = profile_module(tiny_mlp, TPUV4I)
        assert all(op.bound_by in ("mxu", "vpu", "dma")
                   for op in profile.ops)


class TestThinCoveragePaths:
    def test_partition_cmem_without_cmem_chip(self, v3_point):
        tenants = [Tenant(app_by_name("cnn0"), 10),
                   Tenant(app_by_name("rnn0"), 10)]
        budgets = partition_cmem(v3_point, tenants)
        assert all(b == 0 for b in budgets.values())

    def test_multitenancy_on_cmem_less_chip(self, v3_point):
        tenants = [Tenant(app_by_name("cnn0"), 10),
                   Tenant(app_by_name("rnn0"), 10)]
        sim = MultiTenantSim(v3_point, tenants)
        reqs = RequestGenerator(21).multi_tenant(["cnn0", "rnn0"],
                                                 [10, 10], 1.0)
        swap = sim.simulate(reqs, "swap")
        assert swap.swap_seconds_total == 0.0  # nothing to restage

    def test_serving_on_two_core_chip(self, v3_point):
        spec = app_by_name("cnn0")
        server = ServingSimulator(v3_point, spec,
                                  BatchPolicy(max_batch=8, max_wait_s=0.001),
                                  Slo(spec.slo_ms / 1e3))
        stats = server.simulate(RequestGenerator(22).poisson("c", 500, 1.0))
        assert stats.requests > 0
        assert stats.p99_s > 0

    def test_two_core_serves_more_than_one_core(self):
        """TPUv3's second core is a second server in the event loop."""
        spec = app_by_name("cnn0")
        one_core = DesignPoint(TPUV3.variant("v3-1c", cores=1))
        two_core = DesignPoint(TPUV3)
        policy = BatchPolicy(max_batch=4, max_wait_s=0.0005)
        slo = Slo(spec.slo_ms / 1e3)
        reqs = RequestGenerator(23).poisson("c", 4000, 1.0)
        p99_one = ServingSimulator(one_core, spec, policy, slo).simulate(reqs).p99_s
        p99_two = ServingSimulator(two_core, spec, policy, slo).simulate(reqs).p99_s
        assert p99_two < p99_one

    def test_budget_splits_weights(self):
        from repro.compiler.allocator import plan_memory
        from repro.util.units import MIB

        module = app_by_name("bert0").build(1)
        plan = plan_memory(module, TPUV4I, cmem_budget_bytes=64 * MIB)
        cmem, hbm = plan.cmem_weight_bytes, plan.hbm_weight_bytes
        assert cmem > 0 and hbm > 0
        assert cmem + hbm == module.total_weight_bytes()
