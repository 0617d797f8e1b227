"""Tests for two-tier (interactive + offline filler) serving."""

import pytest

from repro.serving.priority import TwoTierServer
from repro.workloads import RequestGenerator, app_by_name


@pytest.fixture(scope="module")
def server(request):
    from repro.arch import TPUV4I
    from repro.core import DesignPoint

    point = DesignPoint(TPUV4I)
    return TwoTierServer(point, interactive=app_by_name("cnn0"),
                         offline=app_by_name("cnn1"), offline_batch=16)


class TestTwoTier:
    def _traffic(self, seed, rate, duration=2.0):
        return RequestGenerator(seed).poisson("cnn0", rate, duration), duration

    def test_filler_recovers_utilization(self, server):
        requests, duration = self._traffic(1, rate=200)
        idle = server.simulate(requests, duration, fill_idle=False)
        filled = server.simulate(requests, duration, fill_idle=True)
        assert idle.busy_fraction < 0.5
        assert filled.busy_fraction > 0.85
        assert filled.offline_samples_per_s > 0

    def test_filler_costs_bounded_tail(self, server):
        requests, duration = self._traffic(2, rate=200)
        idle = server.simulate(requests, duration, fill_idle=False)
        filled = server.simulate(requests, duration, fill_idle=True)
        # Non-preemptive overrun: at most one offline batch of extra wait.
        overhead = filled.interactive_p99_s - idle.interactive_p99_s
        assert 0 <= overhead <= server._offline_s * 1.5

    def test_no_offline_when_saturated(self, server):
        requests, duration = self._traffic(3, rate=20_000, duration=0.5)
        stats = server.simulate(requests, duration)
        # Saturated interactive load leaves little room for the filler.
        assert stats.offline_samples_per_s < 2000

    def test_interactive_latency_floor(self, server):
        requests, duration = self._traffic(4, rate=50)
        stats = server.simulate(requests, duration, fill_idle=False)
        assert stats.interactive_p50_s >= server._interactive_s * 0.99

    def test_validation(self, server):
        from repro.workloads import Request

        with pytest.raises(ValueError):
            server.simulate([], 0.0)
        with pytest.raises(ValueError):
            server.simulate([Request(1.0, "a"), Request(0.1, "a")], 2.0)

    def test_bad_offline_batch(self):
        from repro.arch import TPUV4I
        from repro.core import DesignPoint

        with pytest.raises(ValueError):
            TwoTierServer(DesignPoint(TPUV4I), app_by_name("cnn0"),
                          app_by_name("cnn1"), offline_batch=0)
