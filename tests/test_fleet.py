"""Tests for fleet sizing."""

import pytest

from repro.serving import Slo, plan_fleet
from repro.workloads import app_by_name


class TestPlanFleet:
    def test_basic_plan(self, v4i_point):
        plan = plan_fleet(v4i_point, app_by_name("cnn0"), 10_000.0)
        assert plan.chips >= 1
        assert plan.slo_batch >= 1
        assert plan.fleet_tco_usd > 0
        assert plan.cost_per_kqps_usd > 0

    def test_chips_scale_with_target(self, v4i_point):
        spec = app_by_name("cnn0")
        small = plan_fleet(v4i_point, spec, 5_000.0)
        large = plan_fleet(v4i_point, spec, 50_000.0)
        assert large.chips > 5 * small.chips

    def test_headroom_adds_chips(self, v4i_point):
        spec = app_by_name("cnn0")
        lean = plan_fleet(v4i_point, spec, 30_000.0, peak_headroom=1.0)
        padded = plan_fleet(v4i_point, spec, 30_000.0, peak_headroom=2.0)
        assert padded.chips > lean.chips

    def test_v4i_cheaper_per_qps_than_v3(self, v4i_point, v3_point):
        spec = app_by_name("bert0")
        v4i = plan_fleet(v4i_point, spec, 20_000.0)
        v3 = plan_fleet(v3_point, spec, 20_000.0)
        assert v4i.cost_per_kqps_usd < v3.cost_per_kqps_usd

    def test_impossible_slo_rejected(self, v4i_point):
        with pytest.raises(ValueError, match="cannot meet"):
            plan_fleet(v4i_point, app_by_name("cnn0"), 1000.0,
                       slo=Slo(1e-6))

    def test_bad_args(self, v4i_point):
        spec = app_by_name("cnn0")
        with pytest.raises(ValueError):
            plan_fleet(v4i_point, spec, 0.0)
        with pytest.raises(ValueError):
            plan_fleet(v4i_point, spec, 100.0, peak_headroom=0.5)


class TestDegenerateRatios:
    """Ratio properties must return finite 0.0, never inf or a crash."""

    def _plan(self, **overrides):
        from repro.serving.fleet import FleetPlan

        fields = dict(workload="cnn0", chip="TPUv4i", target_qps=1000.0,
                      slo_batch=8, per_chip_qps=500.0, chips=2,
                      fleet_tco_usd=1e6, fleet_power_w=500.0, spare_chips=0)
        fields.update(overrides)
        return FleetPlan(**fields)

    def test_zero_target_qps_cost_is_zero(self):
        plan = self._plan(target_qps=0.0)
        assert plan.cost_per_kqps_usd == 0.0


class TestResilientFleet:
    """N+k provisioning: the SLO holds with k chips failed."""

    def test_spares_add_whole_chips(self, v4i_point):
        spec = app_by_name("cnn0")
        base = plan_fleet(v4i_point, spec, 20_000.0)
        resilient = plan_fleet(v4i_point, spec, 20_000.0, spare_chips=2)
        assert resilient.chips == base.chips + 2
        assert resilient.spare_chips == 2
        # With every spare failed, capacity still covers peak load.
        survivors = resilient.chips - resilient.spare_chips
        assert survivors * resilient.per_chip_qps >= 20_000.0 * 1.4

    def test_premium_prices_the_insurance(self, v4i_point):
        spec = app_by_name("cnn0")
        base = plan_fleet(v4i_point, spec, 20_000.0)
        resilient = plan_fleet(v4i_point, spec, 20_000.0, spare_chips=3)
        assert base.spare_chips == 0
        # TCO and power are linear in chips, so k spares cost k/n extra.
        assert resilient.fleet_tco_usd == pytest.approx(
            base.fleet_tco_usd * resilient.chips / base.chips)
        assert resilient.fleet_power_w == pytest.approx(
            base.fleet_power_w * resilient.chips / base.chips)

    def test_negative_spares_rejected(self, v4i_point):
        with pytest.raises(ValueError):
            plan_fleet(v4i_point, app_by_name("cnn0"), 1000.0, spare_chips=-1)
