"""Tests for SLOs, batching, the serving simulator (L9), and multi-tenancy (L4)."""

import math
import random

import pytest

from repro.serving import (
    BatchPolicy,
    MultiTenantSim,
    ServingSimulator,
    Slo,
    Tenant,
    partition_cmem,
    percentile,
)
from repro.workloads import RequestGenerator, app_by_name


class TestPercentileAndSlo:
    def test_nearest_rank(self):
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile([1, 2, 3, 4], 100) == 4
        assert percentile([5], 99) == 5

    def test_percentile_is_type_stable(self):
        # Regression: int samples used to leak the input element type out.
        for pct in (1, 50, 99, 100):
            assert type(percentile([1, 2, 3, 4], pct)) is float
            assert type(percentile([1.5, 2.5], pct)) is float

    def test_empty_sample_contracts(self):
        # Locked contract: no requests -> vacuously met, zero violations.
        slo = Slo(0.010)
        assert slo.violation_fraction([]) == 0.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)

    def test_violation_fraction(self):
        slo = Slo(0.010)
        assert slo.violation_fraction([0.005, 0.015]) == 0.5
        assert slo.violation_fraction([]) == 0.0

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            Slo(0)
        with pytest.raises(ValueError):
            Slo(1.0, pct=101)

    def test_summarize_matches_percentile_and_violation_fraction(self):
        rng = random.Random(5)
        slo = Slo(0.5)
        samples = [[], [0.7], [1, 0, 1], [0.5] * 7,
                   [rng.random() for _ in range(1000)],
                   [rng.choice((0.1, 0.5, 0.9)) for _ in range(257)]]
        for sample in samples:
            expected = ((percentile(sample, 50), percentile(sample, 95),
                         percentile(sample, 99),
                         slo.violation_fraction(sample))
                        if sample else (0.0, 0.0, 0.0, 0.0))
            summary = slo.summarize(sample)
            assert summary == expected
            assert all(type(v) is float for v in summary)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_slo_rejects_non_finite_limit(self, bad):
        """Regression: ``Slo(nan)`` was accepted and every run under it
        reported a violation fraction of 0.0."""
        with pytest.raises(ValueError, match=rf"limit_s .*finite.* {bad!r}"):
            Slo(bad)


class TestBatchPolicy:
    def test_padded_size_rounds_up(self):
        policy = BatchPolicy(max_batch=64, max_wait_s=0.001)
        assert policy.padded_size(3) == 4
        assert policy.padded_size(33) == 64
        assert policy.padded_size(1) == 1

    def test_padded_capped_at_max(self):
        policy = BatchPolicy(max_batch=24, max_wait_s=0.0)
        assert policy.padded_size(100) == 24

    def test_batch_steps_include_max(self):
        assert BatchPolicy.batch_steps(24) == (1, 2, 4, 8, 16, 24)
        assert BatchPolicy.batch_steps(16)[-1] == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(0, 0.0)
        with pytest.raises(ValueError):
            BatchPolicy(1, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_wait(self, bad):
        with pytest.raises(ValueError,
                           match=rf"max_wait_s .*finite, got {bad!r}"):
            BatchPolicy(8, bad)

    def test_padded_size_rejects_empty_batch(self):
        """Locked contract: an empty batch must never be priced.

        ``padded_size(0)`` silently returning a compiled step would
        charge a full batch launch for zero requests; the contract is to
        raise, and callers must guard before pricing.
        """
        policy = BatchPolicy(max_batch=16, max_wait_s=0.001)
        with pytest.raises(ValueError, match="batch must be >= 1"):
            policy.padded_size(0)
        with pytest.raises(ValueError, match="batch must be >= 1"):
            policy.padded_size(-3)

    def test_padded_size_never_zero(self):
        """Every valid actual size pads to a positive compiled step."""
        for max_batch in (1, 3, 16, 500):
            policy = BatchPolicy(max_batch=max_batch, max_wait_s=0.0)
            for actual in range(1, max_batch + 5):
                assert policy.padded_size(actual) >= 1


@pytest.fixture(scope="module")
def cnn_server(v4i_point_module):
    spec = app_by_name("cnn0")
    return ServingSimulator(
        v4i_point_module, spec,
        BatchPolicy(max_batch=16, max_wait_s=0.002),
        Slo(spec.slo_ms / 1e3))


@pytest.fixture(scope="module")
def v4i_point_module():
    from repro.arch import TPUV4I
    from repro.core import DesignPoint

    return DesignPoint(TPUV4I)


class TestServingSimulator:
    def test_latency_exceeds_compute_floor(self, cnn_server):
        reqs = RequestGenerator(1).poisson("cnn0", 200, 2.0)
        stats = cnn_server.simulate(reqs)
        assert stats.p50_s >= cnn_server.batch_latency_s(1) * 0.99
        assert stats.requests == len(reqs)

    def test_higher_load_bigger_batches(self, cnn_server):
        low = cnn_server.simulate(RequestGenerator(2).poisson("c", 50, 2.0))
        high = cnn_server.simulate(RequestGenerator(2).poisson("c", 2000, 2.0))
        assert high.mean_batch > low.mean_batch

    def test_higher_load_worse_latency(self, cnn_server):
        low = cnn_server.simulate(RequestGenerator(3).poisson("c", 50, 2.0))
        high = cnn_server.simulate(RequestGenerator(3).poisson("c", 2500, 2.0))
        assert high.p99_s > low.p99_s

    def test_percentiles_ordered(self, cnn_server):
        stats = cnn_server.simulate(RequestGenerator(4).poisson("c", 300, 2.0))
        assert stats.p50_s <= stats.p95_s <= stats.p99_s

    def test_throughput_tracks_offered_load(self, cnn_server):
        stats = cnn_server.simulate(RequestGenerator(5).poisson("c", 400, 3.0))
        assert stats.throughput_qps == pytest.approx(400, rel=0.15)

    def test_max_slo_batch_is_lesson9(self, cnn_server):
        """The SLO, not the hardware, caps the usable batch."""
        batch = cnn_server.max_slo_batch()
        assert 1 <= batch <= 16

    def test_empty_stream_rejected(self, cnn_server):
        with pytest.raises(ValueError):
            cnn_server.simulate([])

    def test_unsorted_stream_rejected(self, cnn_server):
        from repro.workloads import Request

        with pytest.raises(ValueError):
            cnn_server.simulate([Request(1.0, "c"), Request(0.5, "c")])

    def test_single_request(self, cnn_server):
        """One request: a batch of 1, latency = wait + compute."""
        from repro.workloads import Request

        stats = cnn_server.simulate([Request(0.0, "c")])
        assert stats.requests == 1
        assert stats.mean_batch == 1.0
        expected = (cnn_server.policy.max_wait_s
                    + cnn_server.batch_latency_s(1))
        assert stats.p50_s == pytest.approx(expected)
        assert stats.p50_s == stats.p99_s

    def test_max_batch_one_serializes_everything(self, v4i_point_module):
        """max_batch=1 degenerates to one-request-per-launch serving."""
        from repro.workloads import Request

        spec = app_by_name("cnn0")
        server = ServingSimulator(
            v4i_point_module, spec,
            BatchPolicy(max_batch=1, max_wait_s=0.002),
            Slo(spec.slo_ms / 1e3))
        reqs = [Request(i * 1e-4, "c") for i in range(20)]
        stats = server.simulate(reqs)
        assert stats.requests == 20
        assert stats.mean_batch == 1.0
        # With every core busy, later requests queue behind earlier ones.
        assert stats.p99_s > server.batch_latency_s(1)

    def test_burst_exceeding_max_batch_splits(self, cnn_server):
        """A simultaneous burst larger than max_batch launches in waves."""
        from repro.workloads import Request

        burst = [Request(0.0, "c") for _ in range(40)]  # max_batch=16
        stats = cnn_server.simulate(burst)
        assert stats.requests == 40
        # No batch may exceed the cap, so the burst needs >= 3 launches
        # and the mean stays at or below the cap.
        assert stats.mean_batch <= 16
        # Overflow waves wait for a server, so the tail exceeds the head.
        assert stats.p99_s > stats.p50_s

    def test_zero_duration_throughput_is_zero(self, v4i_point_module):
        """Regression: an instantaneous stream used to report inf qps."""
        import math

        from repro.workloads import Request

        spec = app_by_name("cnn0")
        server = ServingSimulator(
            v4i_point_module, spec,
            BatchPolicy(max_batch=1, max_wait_s=0.0),
            Slo(spec.slo_ms / 1e3))
        server.seed_latencies({1: 0.0})  # zero wait + zero compute
        stats = server.simulate([Request(0.0, "c")])
        assert stats.duration_s == 0.0
        assert stats.throughput_qps == 0.0
        assert math.isfinite(stats.throughput_qps)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_seed_latencies_rejects_non_finite(self, v4i_point_module, bad):
        """Regression: NaN and inf passed ``latency < 0``; a NaN batch-1
        latency gave a finite p99, an inf one p50 = inf."""
        spec = app_by_name("cnn0")
        server = ServingSimulator(
            v4i_point_module, spec,
            BatchPolicy(max_batch=2, max_wait_s=0.001),
            Slo(spec.slo_ms / 1e3))
        with pytest.raises(ValueError, match=r"batch 1 .*finite.*"
                                             + repr(bad)):
            server.seed_latencies({2: 0.001, 1: bad})
        with pytest.raises(ValueError, match="non-negative"):
            server.seed_latencies({1: -0.001})


class TestServingStatsConservation:
    def _stats(self, **overrides):
        from repro.serving import ServingStats
        fields = dict(workload="cnn0", chip="TPUv4i", requests=10,
                      duration_s=1.0, p50_s=0.001, p95_s=0.002,
                      p99_s=0.003, mean_batch=2.0, throughput_qps=10.0,
                      slo_violation_fraction=0.0)
        fields.update(overrides)
        return ServingStats(**fields)

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ValueError, match="conservation violated"):
            self._stats(dropped_requests=2, shed_requests=1,
                        served_requests=8)  # 8 + 2 + 1 != 10

    def test_served_derived_when_unset(self):
        stats = self._stats(dropped_requests=2, shed_requests=1)
        assert stats.served_requests == 7

    def test_explicit_consistent_totals_accepted(self):
        stats = self._stats(dropped_requests=3, served_requests=7)
        assert stats.shed_requests == 0


class TestMultiTenancy:
    def _sim(self, point):
        tenants = [Tenant(app_by_name("cnn0"), 50),
                   Tenant(app_by_name("rnn0"), 50)]
        return MultiTenantSim(point, tenants), tenants

    def test_partition_splits_proportionally(self, v4i_point_module):
        sim, tenants = self._sim(v4i_point_module)
        budgets = partition_cmem(v4i_point_module, tenants)
        total = sum(budgets.values())
        assert total <= v4i_point_module.chip.cmem_bytes
        assert budgets["rnn0"] > budgets["cnn0"]  # bigger weights

    def test_swap_costs_time(self, v4i_point_module):
        sim, _ = self._sim(v4i_point_module)
        reqs = RequestGenerator(7).multi_tenant(["cnn0", "rnn0"], [30, 30], 2.0)
        swap = sim.simulate(reqs, "swap")
        part = sim.simulate(reqs, "partition")
        assert swap.swap_count > 0
        assert part.swap_count == 0
        assert swap.swap_seconds_total > 0

    def test_partition_beats_swap_on_interleaved_traffic(self, v4i_point_module):
        """Lesson 4's quantitative form."""
        sim, _ = self._sim(v4i_point_module)
        reqs = RequestGenerator(8).multi_tenant(["cnn0", "rnn0"], [40, 40], 2.0)
        swap = sim.simulate(reqs, "swap")
        part = sim.simulate(reqs, "partition")
        assert part.mean_latency_s < swap.mean_latency_s

    def test_host_swap_is_catastrophic(self, v4i_point_module):
        """Without provisioned co-residency, PCIe weight reloads dominate."""
        sim, _ = self._sim(v4i_point_module)
        reqs = RequestGenerator(8).multi_tenant(["cnn0", "rnn0"], [40, 40], 2.0)
        host = sim.simulate(reqs, "swap_host")
        swap = sim.simulate(reqs, "swap")
        assert host.p99_s > 3 * swap.p99_s
        assert host.swap_seconds_total > 10 * swap.swap_seconds_total

    def test_duplicate_tenants_rejected(self, v4i_point_module):
        with pytest.raises(ValueError):
            MultiTenantSim(v4i_point_module,
                           [Tenant(app_by_name("cnn0"), 1),
                            Tenant(app_by_name("cnn0"), 1)])

    def test_unknown_policy_rejected(self, v4i_point_module):
        sim, _ = self._sim(v4i_point_module)
        reqs = RequestGenerator(9).multi_tenant(["cnn0", "rnn0"], [10, 10], 1.0)
        with pytest.raises(ValueError):
            sim.simulate(reqs, "magic")

    def test_unknown_tenant_request_rejected(self, v4i_point_module):
        from repro.workloads import Request

        sim, _ = self._sim(v4i_point_module)
        with pytest.raises(KeyError):
            sim.simulate([Request(0.0, "bert0")], "swap")

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            Tenant(app_by_name("cnn0"), 0)

    def test_zero_duration_throughput_is_finite(self, v4i_point_module,
                                                monkeypatch):
        # Regression: a zero-duration run used to report inf qps.
        import math

        from repro.workloads import Request

        sim, _ = self._sim(v4i_point_module)
        monkeypatch.setattr(
            MultiTenantSim, "_latencies",
            lambda self, policy: {t.spec.name: 0.0 for t in self.tenants})
        stats = sim.simulate([Request(0.0, "cnn0")], "resident")
        assert stats.throughput_qps == 0.0
        assert math.isfinite(stats.throughput_qps)

    def test_idle_tenant_reports_zero_not_crash(self, v4i_point_module):
        """Regression: a registered tenant with zero requests in the
        window used to be unrepresentable; its ratios must be 0.0, not a
        ZeroDivisionError."""
        from repro.workloads import Request

        sim, _ = self._sim(v4i_point_module)
        # All traffic goes to cnn0; rnn0 is registered but idle.
        stats = sim.simulate([Request(0.0, "cnn0"), Request(0.1, "cnn0")],
                             "swap")
        per = {t.tenant: t for t in stats.per_tenant}
        assert set(per) == {"cnn0", "rnn0"}
        assert per["cnn0"].requests == 2
        assert per["rnn0"].requests == 0
        assert per["rnn0"].p99_s == 0.0
        assert per["rnn0"].mean_latency_s == 0.0
        assert per["cnn0"].mean_latency_s > 0.0

    def test_per_tenant_requests_conserve(self, v4i_point_module):
        sim, _ = self._sim(v4i_point_module)
        reqs = RequestGenerator(10).multi_tenant(["cnn0", "rnn0"],
                                                 [30, 30], 1.0)
        stats = sim.simulate(reqs, "partition")
        assert sum(t.requests for t in stats.per_tenant) == stats.requests

    def test_empty_window_stats_guarded(self):
        """TenantWindowStats.from_latencies on no samples is all zeros."""
        from repro.serving import TenantWindowStats

        stats = TenantWindowStats.from_latencies("idle", [])
        assert stats.requests == 0
        assert stats.p99_s == 0.0
        assert stats.mean_latency_s == 0.0
