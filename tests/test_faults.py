"""Fault injection: schedules, serving under failures, bit-identity.

Three contracts under test:

* determinism — a seed fully decides every failure, so schedules and
  faulted ServingStats reproduce exactly (property-tested over seeds);
* zero-fault identity — a FaultModel with no active fault source (or an
  empty schedule) yields ServingStats bit-identical to a faultless run;
* fault semantics — outages delay launches, mid-batch failures destroy
  and retry the in-flight batch under the budget/timeout, permanent
  whole-chip death drops the remaining stream instead of hanging.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import TPUV3, TPUV4I
from repro.core.design_point import shared_design_point
from repro.faults import FaultModel, FaultSchedule, fault_sweep
from repro.serving import BatchPolicy, ServingSimulator, Slo
from repro.workloads import Request, RequestGenerator, app_by_name


def make_simulator(point, max_batch: int = 16,
                   max_wait_s: float = 0.002) -> ServingSimulator:
    spec = app_by_name("cnn0")
    return ServingSimulator(point, spec,
                            BatchPolicy(max_batch, max_wait_s),
                            Slo(spec.slo_ms / 1e3))


@pytest.fixture(scope="module")
def v4i_simulator(v4i_point):
    return make_simulator(v4i_point)


@pytest.fixture(scope="module")
def traffic():
    return RequestGenerator(11).poisson("cnn0", 300, 2.0)


class TestFaultModelValidation:
    def test_defaults_are_zero_fault(self):
        model = FaultModel()
        assert model.zero_fault
        assert model.schedule(2, 10.0).is_empty

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(seed=-1)
        with pytest.raises(ValueError):
            FaultModel(core_mtbf_s=0.0)
        with pytest.raises(ValueError):
            FaultModel(chip_mtbf_s=-1.0)
        with pytest.raises(ValueError):
            FaultModel(core_repair_s=-0.1)
        with pytest.raises(ValueError):
            FaultModel(slowdown_factor=0.5)
        with pytest.raises(ValueError):
            FaultModel(retry_budget=-1)
        with pytest.raises(ValueError):
            FaultModel(retry_timeout_s=0.0)

    def test_nan_rejected_everywhere(self):
        # NaN survives every <= / < comparison, so without an explicit
        # check it would sail into schedule generation and spin the
        # event loop forever. Each rate/duration must refuse it.
        nan = float("nan")
        for field in ("core_mtbf_s", "chip_mtbf_s", "slowdown_mtbf_s",
                      "core_repair_s", "chip_repair_s", "slowdown_s",
                      "slowdown_factor", "retry_timeout_s",
                      "horizon_pad_s"):
            with pytest.raises(ValueError, match="must not be NaN"):
                FaultModel(**{field: nan})

    def test_error_messages_name_the_value(self):
        with pytest.raises(ValueError,
                           match="core_mtbf_s must be positive, got -2.0"):
            FaultModel(core_mtbf_s=-2.0)
        with pytest.raises(ValueError,
                           match="chip_repair_s must be non-negative"):
            FaultModel(chip_repair_s=-0.5)
        with pytest.raises(ValueError, match="got 0.25"):
            FaultModel(slowdown_factor=0.25)
        with pytest.raises(ValueError, match="retry_budget.*got -3"):
            FaultModel(retry_budget=-3)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(0, 1.0)
        with pytest.raises(ValueError):
            FaultSchedule(1, 1.0, down=[(1, 0.0, 0.5)])   # unknown core
        with pytest.raises(ValueError):
            FaultSchedule(1, 1.0, down=[(0, 0.5, 0.1)])   # end < start
        with pytest.raises(ValueError):
            FaultSchedule(1, 1.0, slowdowns=[(0, 0.0, 0.5, 0.9)])
        with pytest.raises(ValueError):
            FaultModel(core_mtbf_s=1.0).schedule(0, 1.0)


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        model = FaultModel(seed=42, core_mtbf_s=0.2, core_repair_s=0.05,
                           slowdown_mtbf_s=0.5)
        assert model.schedule(2, 10.0) == model.schedule(2, 10.0)

    def test_different_seed_different_schedule(self):
        kwargs = dict(core_mtbf_s=0.1, core_repair_s=0.05)
        first = FaultModel(seed=1, **kwargs).schedule(2, 10.0)
        second = FaultModel(seed=2, **kwargs).schedule(2, 10.0)
        assert first != second

    def test_lower_mtbf_more_failures(self):
        frequent = FaultModel(seed=5, core_mtbf_s=0.1).schedule(2, 20.0)
        rare = FaultModel(seed=5, core_mtbf_s=5.0).schedule(2, 20.0)
        assert len(frequent.down) > len(rare.down)

    def test_failures_within_horizon(self):
        schedule = FaultModel(seed=3, core_mtbf_s=0.2).schedule(2, 4.0)
        assert schedule.down
        assert all(start < 4.0 for _, start, _ in schedule.down)

    def test_chip_outage_hits_every_core(self):
        schedule = FaultModel(seed=9, chip_mtbf_s=1.0,
                              chip_repair_s=0.1).schedule(3, 20.0)
        starts = {}
        for core, start, end in schedule.down:
            starts.setdefault((start, end), set()).add(core)
        assert starts
        assert all(cores == {0, 1, 2} for cores in starts.values())

    def test_slowdown_windows_carry_factor(self):
        schedule = FaultModel(seed=4, slowdown_mtbf_s=0.5, slowdown_s=0.1,
                              slowdown_factor=3.0).schedule(1, 20.0)
        assert schedule.slowdowns
        assert all(factor == 3.0 and end - start == pytest.approx(0.1)
                   for _, start, end, factor in schedule.slowdowns)
        start = schedule.slowdowns[0][1]
        assert schedule.slowdown_factor(0, start) == 3.0

    def test_downtime_merges_and_clips(self):
        schedule = FaultSchedule(
            2, 10.0,
            down=[(0, 1.0, 3.0), (0, 2.0, 4.0), (1, 8.0, 20.0)])
        # Core 0: [1, 4) merged; core 1 clipped at the window edge.
        assert schedule.downtime_core_s(0.0, 10.0) == pytest.approx(5.0)
        assert schedule.downtime_core_s(3.5, 9.0) == pytest.approx(1.5)
        assert schedule.downtime_core_s(5.0, 5.0) == 0.0

    def test_outage_queries(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, 2.0), (0, 1.5, 3.0)])
        assert schedule.outage_end(0, 1.6) == 3.0   # latest covering end
        assert schedule.outage_end(0, 0.5) is None
        assert schedule.first_failure_between(0, 0.0, 1.2) == (1.0, 2.0)
        assert schedule.first_failure_between(0, 1.0, 1.4) is None


class TestBoundaryContract:
    """Pin the documented half-open/open semantics at exact timestamps.

    Every interval is half-open ``[start, end)`` for the covering
    queries and strictly open ``(a, b)`` for ``first_failure_between``.
    These regressions exist because the pod layer compiles link
    timelines through exactly these queries — an off-by-one at a window
    edge would silently shift slice outages."""

    def test_outage_covers_exact_start(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, 2.0)])
        assert schedule.outage_end(0, 1.0) == 2.0

    def test_outage_excludes_exact_end(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, 2.0)])
        assert schedule.outage_end(0, 2.0) is None

    def test_abutting_outages_chain_across_the_shared_instant(self):
        # [1, 2) then [2, 3): the shared instant 2.0 belongs to the
        # second interval only, so the core is down continuously.
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, 2.0), (0, 2.0, 3.0)])
        assert schedule.outage_end(0, 2.0) == 3.0
        assert schedule.outage_end(0, 1.999) == 2.0

    def test_slowdown_covers_start_excludes_end(self):
        schedule = FaultSchedule(1, 10.0,
                                 slowdowns=[(0, 1.0, 2.0, 3.0)])
        assert schedule.slowdown_factor(0, 1.0) == 3.0
        assert schedule.slowdown_factor(0, 2.0) == 1.0

    def test_first_failure_between_is_strictly_inside(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, 2.0)])
        # A failure at exactly ``a`` or exactly ``b`` is NOT between.
        assert schedule.first_failure_between(0, 1.0, 5.0) is None
        assert schedule.first_failure_between(0, 0.0, 1.0) is None
        assert schedule.first_failure_between(0, 0.999, 1.001) == (1.0, 2.0)

    def test_next_boundary_is_strictly_after(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, 2.0)])
        assert schedule.next_boundary(0, 0.5) == 1.0
        # An edge exactly at ``t`` is not next; the one after it is.
        assert schedule.next_boundary(0, 1.0) == 2.0
        assert schedule.next_boundary(0, 2.0) == math.inf

    def test_next_boundary_overlapping_windows(self):
        # A core failure inside a chip outage, plus a slowdown that
        # straddles both: every start and stop is an edge.
        schedule = FaultSchedule(
            1, 10.0, down=[(0, 1.0, 5.0), (0, 2.0, 3.0)],
            slowdowns=[(0, 2.5, 6.0, 2.0)])
        assert schedule.next_boundary(0, 0.0) == 1.0
        assert schedule.next_boundary(0, 1.0) == 2.0
        assert schedule.next_boundary(0, 2.0) == 2.5
        assert schedule.next_boundary(0, 2.5) == 3.0
        assert schedule.next_boundary(0, 3.0) == 5.0
        assert schedule.next_boundary(0, 5.0) == 6.0
        assert schedule.next_boundary(0, 6.0) == math.inf

    def test_next_boundary_infinite_stop_is_not_an_edge(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 1.0, math.inf)])
        assert schedule.next_boundary(0, 0.0) == 1.0
        assert schedule.next_boundary(0, 1.0) == math.inf
        assert schedule.next_boundary(0, 1e9) == math.inf

    def test_next_boundary_slowdown_only_and_per_core(self):
        schedule = FaultSchedule(2, 10.0, slowdowns=[(1, 1.0, 2.0, 3.0)])
        assert schedule.next_boundary(0, 0.0) == math.inf
        assert schedule.next_boundary(1, 0.0) == 1.0
        assert schedule.next_boundary(1, 1.5) == 2.0

    def test_queries_constant_up_to_next_boundary(self):
        """The contract the continuous loop's fast-forward relies on,
        checked against a naive edge scan on seeded schedules."""
        for seed in range(5):
            schedule = FaultModel(
                seed=seed, core_mtbf_s=0.3, core_repair_s=0.1,
                chip_mtbf_s=1.0, chip_repair_s=0.2, slowdown_mtbf_s=0.4,
                slowdown_s=0.25).schedule(2, 3.0)
            for core in range(2):
                edges = sorted(
                    {e for c, s, t in schedule.down if c == core
                     for e in (s, t)}
                    | {e for c, s, t, _ in schedule.slowdowns if c == core
                       for e in (s, t)})
                for t in [0.0] + edges + [i * 0.0371 for i in range(90)]:
                    later = [e for e in edges if e > t and math.isfinite(e)]
                    edge = schedule.next_boundary(core, t)
                    assert edge == (later[0] if later else math.inf)
                    for u in (t, (t + min(edge, t + 1.0)) / 2):
                        if u >= edge:
                            continue
                        assert (schedule.outage_end(core, u)
                                == schedule.outage_end(core, t))
                        assert (schedule.slowdown_factor(core, u)
                                == schedule.slowdown_factor(core, t))
                    if math.isfinite(edge):
                        assert schedule.first_failure_between(
                            core, t, edge) is None


class TestPermanentDeath:
    """``permanent_death_s`` drives sequence migration: the continuous
    simulator drains dying cores first and reroutes their queues."""

    def test_repairable_outages_are_not_death(self):
        schedule = FaultSchedule(1, 10.0,
                                 down=[(0, 1.0, 2.0), (0, 5.0, 6.0)])
        assert schedule.permanent_death_s(0) is None

    def test_infinite_end_is_death_at_its_start(self):
        schedule = FaultSchedule(1, 10.0, down=[(0, 3.0, math.inf)])
        assert schedule.permanent_death_s(0) == 3.0

    def test_earliest_permanent_outage_wins(self):
        schedule = FaultSchedule(
            1, 10.0,
            down=[(0, 7.0, math.inf), (0, 1.0, 2.0), (0, 4.0, math.inf)])
        assert schedule.permanent_death_s(0) == 4.0

    def test_deaths_are_per_core(self):
        schedule = FaultSchedule(3, 10.0, down=[(1, 2.0, math.inf)])
        assert schedule.permanent_death_s(0) is None
        assert schedule.permanent_death_s(1) == 2.0
        assert schedule.permanent_death_s(2) is None


class TestZeroFaultIdentity:
    def test_zero_fault_model_bit_identical(self, v4i_simulator, traffic):
        baseline = v4i_simulator.simulate(traffic)
        zero = v4i_simulator.simulate(traffic, faults=FaultModel(seed=123))
        assert zero == baseline  # dataclass equality: every field, exact

    def test_empty_schedule_bit_identical(self, v4i_simulator, traffic):
        baseline = v4i_simulator.simulate(traffic)
        empty = FaultSchedule(v4i_simulator.point.chip.cores, 10.0)
        assert v4i_simulator.simulate(traffic, schedule=empty) == baseline

    def test_faultless_stats_have_default_fault_fields(self, v4i_simulator,
                                                       traffic):
        stats = v4i_simulator.simulate(traffic)
        assert stats.availability == 1.0
        assert stats.retried_requests == 0
        assert stats.dropped_requests == 0
        assert stats.lost_batches == 0
        assert stats.lost_capacity_fraction == 0.0
        assert stats.served_requests == stats.requests


class TestServingUnderFaults:
    def test_outages_stretch_the_tail(self, v4i_simulator, traffic):
        model = FaultModel(seed=3, core_mtbf_s=0.3, core_repair_s=0.05)
        baseline = v4i_simulator.simulate(traffic)
        faulted = v4i_simulator.simulate(traffic, faults=model)
        assert faulted.p99_s > baseline.p99_s
        assert 0.0 < faulted.lost_capacity_fraction < 1.0

    def test_mid_batch_failure_is_retried(self, v4i_simulator):
        # Single request: launch at max_wait, so an outage beginning just
        # inside the flight window destroys exactly that batch.
        wait = v4i_simulator.policy.max_wait_s
        compute = v4i_simulator.batch_latency_s(1)
        fail_at = wait + compute / 2.0
        repair_end = fail_at + 0.05
        schedule = FaultSchedule(1, 10.0, down=[(0, fail_at, repair_end)])
        stats = v4i_simulator.simulate([Request(0.0, "c")], schedule=schedule)
        assert stats.lost_batches == 1
        assert stats.retried_requests == 1
        assert stats.dropped_requests == 0
        assert stats.availability == 1.0
        # The retry relaunches after the repair, so latency spans it.
        assert stats.p50_s == pytest.approx(repair_end + compute)

    def test_retry_budget_exhaustion_drops(self, v4i_simulator):
        wait = v4i_simulator.policy.max_wait_s
        compute = v4i_simulator.batch_latency_s(1)
        # Three consecutive kills: each outage starts mid-flight of the
        # relaunch after the previous repair.
        downs, start = [], wait + compute / 2.0
        for _ in range(3):
            end = start + 0.01
            downs.append((0, start, end))
            start = end + compute / 2.0
        schedule = FaultSchedule(1, 10.0, down=downs)
        model = FaultModel(retry_budget=2)
        stats = v4i_simulator.simulate([Request(0.0, "c")], faults=model,
                                       schedule=schedule)
        assert stats.dropped_requests == 1
        assert stats.availability == 0.0
        assert stats.lost_batches == 3
        assert stats.throughput_qps == 0.0

    def test_retry_timeout_drops(self, v4i_simulator):
        wait = v4i_simulator.policy.max_wait_s
        compute = v4i_simulator.batch_latency_s(1)
        schedule = FaultSchedule(
            1, 10.0, down=[(0, wait + compute / 2.0, 1.0)])
        model = FaultModel(retry_budget=10, retry_timeout_s=wait / 2.0)
        stats = v4i_simulator.simulate([Request(0.0, "c")], faults=model,
                                       schedule=schedule)
        assert stats.dropped_requests == 1
        assert stats.retried_requests == 0

    def test_retry_landing_after_timeout_drops(self, v4i_simulator):
        # Regression: the kill happens *within* the retry timeout (so
        # the request is retried), but the repair ends far beyond it —
        # the relaunch must drop the request instead of serving it
        # arbitrarily late. Before the fix this request was served at
        # t=1.0 against a 100 ms timeout.
        wait = v4i_simulator.policy.max_wait_s
        compute = v4i_simulator.batch_latency_s(1)
        fail_at = wait + compute / 2.0
        schedule = FaultSchedule(1, 10.0, down=[(0, fail_at, 1.0)])
        model = FaultModel(retry_budget=10, retry_timeout_s=0.1)
        assert fail_at < 0.1  # the kill itself is inside the timeout
        stats = v4i_simulator.simulate([Request(0.0, "c")], faults=model,
                                       schedule=schedule)
        assert stats.retried_requests == 1
        assert stats.dropped_requests == 1
        assert stats.served_requests == 0
        assert stats.availability == 0.0
        # Conservation held through the new drop path.
        assert (stats.served_requests + stats.dropped_requests
                + stats.shed_requests) == stats.requests

    def test_permanently_dead_chip_terminates(self, v4i_simulator, traffic):
        schedule = FaultSchedule(1, 10.0, down=[(0, 0.0, math.inf)])
        stats = v4i_simulator.simulate(traffic, schedule=schedule)
        assert stats.availability == 0.0
        assert stats.dropped_requests == stats.requests
        assert stats.throughput_qps == 0.0
        assert stats.p99_s == 0.0
        assert stats.mean_batch == 0.0

    def test_surviving_core_carries_the_load(self, v3_point):
        # TPUv3 has two cores: killing one forever halves capacity but
        # every request is still served.
        simulator = make_simulator(v3_point)
        requests = RequestGenerator(13).poisson("cnn0", 200, 1.0)
        schedule = FaultSchedule(2, 10.0, down=[(0, 0.0, math.inf)])
        stats = simulator.simulate(requests, schedule=schedule)
        assert stats.availability == 1.0
        assert stats.dropped_requests == 0
        assert stats.lost_capacity_fraction == pytest.approx(0.5, abs=0.05)

    def test_slowdown_scales_latency(self, v4i_simulator):
        schedule = FaultSchedule(
            1, 100.0, slowdowns=[(0, 0.0, 100.0, 3.0)])
        wait = v4i_simulator.policy.max_wait_s
        compute = v4i_simulator.batch_latency_s(1)
        stats = v4i_simulator.simulate([Request(0.0, "c")], schedule=schedule)
        assert stats.p50_s == pytest.approx(wait + 3.0 * compute)
        assert stats.availability == 1.0

    def test_core_count_mismatch_rejected(self, v4i_simulator, traffic):
        with pytest.raises(ValueError, match="cores"):
            v4i_simulator.simulate(traffic, schedule=FaultSchedule(2, 1.0))


class TestSeedReproducibility:
    """Satellite: FaultModel(seed=s) is reproducible end to end."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_same_seed_same_schedule_and_stats(self, seed):
        model = FaultModel(seed=seed, core_mtbf_s=0.2, core_repair_s=0.05,
                           slowdown_mtbf_s=0.4)
        assert model.schedule(2, 3.0) == model.schedule(2, 3.0)
        point = shared_design_point(TPUV4I)
        requests = RequestGenerator(seed).poisson("cnn0", 150, 0.5)
        if not requests:
            return
        first = make_simulator(point).simulate(requests, faults=model)
        second = make_simulator(point).simulate(requests, faults=model)
        assert first == second


class TestFaultSweep:
    def test_sweep_covers_all_four_generations(self):
        model = FaultModel(seed=2, core_mtbf_s=0.3, core_repair_s=0.05)
        rows = fault_sweep(model, apps=("cnn0",), duration_s=0.5)
        assert {row.chip for row in rows} == {"TPUv1", "TPUv2", "TPUv3",
                                              "TPUv4i"}
        for row in rows:
            assert 0.0 <= row.faulted.availability <= 1.0
            assert row.baseline.availability == 1.0
            assert row.p99_degradation >= 0.0

    def test_sweep_deterministic(self):
        model = FaultModel(seed=6, core_mtbf_s=0.25, core_repair_s=0.05)
        first = fault_sweep(model, apps=("mlp0",), chips=(TPUV4I, TPUV3),
                            duration_s=0.5)
        second = fault_sweep(model, apps=("mlp0",), chips=(TPUV4I, TPUV3),
                             duration_s=0.5)
        assert first == second

    def test_zero_fault_sweep_matches_baseline(self):
        rows = fault_sweep(FaultModel(seed=1), apps=("mlp0",),
                           chips=(TPUV4I,), duration_s=0.5)
        assert rows
        assert all(row.faulted == row.baseline for row in rows)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            fault_sweep(FaultModel(), duration_s=0.0)
        with pytest.raises(ValueError):
            fault_sweep(FaultModel(), utilization=1.5)
