"""Cluster resilience: identity, routing, admission, hedging, tiers.

The load-bearing contract is *passthrough identity*: a one-replica
cluster under the default policy (and with no faults) must reproduce a
plain ``ServingSimulator.simulate`` run field for field, bit for bit —
with health probing on too, since successful probes may not perturb
serving. On top of that: ejection/failover semantics, token-bucket and
queue-depth shedding (with a monotonicity property), hedge accounting,
the degradation ladder, unique-request conservation, byte-level
and determinism of the chaos sweep.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GENERATIONS, TPUV4I
from repro.cluster import (ChaosScenario, ClusterPolicy, ClusterSimulator,
                           ClusterStats, DegradationTier, chaos_sweep)
from repro.cluster.cluster import _REPLICA_SALT
from repro.core.design_point import shared_design_point
from repro.faults import FaultModel, FaultSchedule
from repro.serving import BatchPolicy, ServingSimulator, Slo
from repro.util.rng import DeterministicRng
from repro.workloads import RequestGenerator, app_by_name

from tests.conftest import reference_paths

#: Synthetic padded-batch latency table: tests exercise router logic,
#: not the compiler, so replicas run on seeded 1 ms batches.
FLAT_TABLE = {step: 0.001 for step in BatchPolicy.batch_steps(8)}


def make_replicas(point, count, *, max_batch=8, max_wait_s=0.002,
                  table=FLAT_TABLE):
    spec = app_by_name("cnn0")
    sims = []
    for _ in range(count):
        sim = ServingSimulator(point, spec,
                               BatchPolicy(max_batch, max_wait_s),
                               Slo(spec.slo_ms / 1e3))
        sim.seed_latencies(table)
        sims.append(sim)
    return sims


def kill_schedule(cores: int, horizon_s: float = 10.0,
                  start_s: float = 0.0, end_s: float = math.inf):
    return FaultSchedule(cores, horizon_s,
                         down=[(core, start_s, end_s)
                               for core in range(cores)])


@pytest.fixture(scope="module")
def traffic():
    return RequestGenerator(7).poisson("cnn0", 2000.0, 0.5)


class TestPassthroughIdentity:
    def test_one_replica_matches_plain_simulator(self, v4i_point, traffic):
        sim, = make_replicas(v4i_point, 1)
        plain = sim.simulate(traffic)
        stats = ClusterSimulator([sim]).simulate(traffic)
        # Dataclass equality is field-for-field and therefore bit-level.
        assert stats.replica_stats[0] == plain
        assert stats.requests == plain.requests
        assert stats.served_requests == plain.served_requests
        assert stats.availability == plain.availability
        assert stats.p99_s == plain.p99_s
        assert stats.duration_s == plain.duration_s
        assert stats.shed_requests == 0

    def test_identity_survives_probing(self, v4i_point, traffic):
        sim, = make_replicas(v4i_point, 1)
        plain = sim.simulate(traffic)
        probed = ClusterSimulator(
            [sim], ClusterPolicy(probe_interval_s=0.01)).simulate(traffic)
        assert probed.replica_stats[0] == plain
        assert probed.probes > 0
        assert probed.probe_failures == 0

    def test_faulted_one_replica_matches_forked_schedule(self, v4i_point,
                                                         traffic):
        sim, = make_replicas(v4i_point, 1)
        model = FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.02)
        forked = replace(model, seed=DeterministicRng(model.seed)
                         .fork(_REPLICA_SALT).seed)
        schedule = forked.schedule(
            sim.point.chip.cores,
            traffic[-1].arrival_s + model.horizon_pad_s)
        plain = sim.simulate(traffic, faults=model, schedule=schedule)
        stats = ClusterSimulator([sim]).simulate(traffic, faults=model)
        assert stats.replica_stats[0] == plain

    def test_zero_fault_model_is_passthrough(self, v4i_point, traffic):
        sim, = make_replicas(v4i_point, 1)
        plain = ClusterSimulator([sim]).simulate(traffic)
        zero = ClusterSimulator([sim]).simulate(
            traffic, faults=FaultModel(seed=3))
        assert zero == plain

    def test_identity_holds_on_reference_loops(self, v4i_point, traffic):
        """The test-only event loops keep the contract too, and agree
        with the replay kernels it is otherwise checked on."""
        model = FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.02)
        sim, = make_replicas(v4i_point, 1)
        fast = ClusterSimulator([sim]).simulate(traffic, faults=model)
        with reference_paths():
            sim, = make_replicas(v4i_point, 1)
            cluster = ClusterSimulator([sim]).simulate(traffic)
            plain = sim.simulate(traffic)
            faulted = ClusterSimulator([sim]).simulate(traffic, faults=model)
        assert cluster.replica_stats[0] == plain
        assert faulted == fast


class TestValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ClusterSimulator([])

    def test_mixed_workloads_rejected(self, v4i_point):
        sim_a, = make_replicas(v4i_point, 1)
        spec_b = app_by_name("bert0")
        sim_b = ServingSimulator(v4i_point, spec_b,
                                 BatchPolicy(8, 0.002),
                                 Slo(spec_b.slo_ms / 1e3))
        with pytest.raises(ValueError, match="one workload"):
            ClusterSimulator([sim_a, sim_b])

    def test_tiers_require_probing(self, v4i_point):
        sims = make_replicas(v4i_point, 2)
        policy = ClusterPolicy(tiers=(DegradationTier("half", max_batch=4),))
        with pytest.raises(ValueError, match="probing"):
            ClusterSimulator(sims, policy)

    def test_schedule_count_must_match_replicas(self, v4i_point, traffic):
        sims = make_replicas(v4i_point, 2)
        cluster = ClusterSimulator(sims)
        with pytest.raises(ValueError, match="schedules for"):
            cluster.simulate(traffic, schedules=[None])

    def test_empty_stream_rejected(self, v4i_point):
        sims = make_replicas(v4i_point, 2)
        with pytest.raises(ValueError, match="empty request stream"):
            ClusterSimulator(sims).simulate([])

    def test_cluster_stats_conservation_enforced(self):
        with pytest.raises(ValueError, match="conservation"):
            ClusterStats(
                workload="cnn0", chip="TPUv4i", replicas=1, requests=10,
                duration_s=1.0, p50_s=0.0, p95_s=0.0, p99_s=0.0,
                mean_batch=1.0, throughput_qps=0.0,
                slo_violation_fraction=0.0, availability=0.9,
                served_requests=9, dropped_requests=0, shed_requests=0)


class TestNonFiniteSettings:
    """Regression: NaN and inf passed every ``<`` / ``<=`` check, so a
    NaN probe interval or hedge delay switched the protection on in name
    and off in fact (``probes``/``hedges`` true, zero probes or hedges
    made), and a NaN admission rate never shed."""

    @pytest.mark.parametrize("field", ["probe_interval_s", "ejection_s",
                                       "admission_rate_qps",
                                       "admission_burst", "hedge_delay_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_policy_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError,
                           match=rf"{field} must be .*finite, got {bad!r}"):
            ClusterPolicy(**{field: bad})

    def test_policy_keeps_range_messages(self):
        with pytest.raises(ValueError, match="probe_interval_s must be "
                                             "positive"):
            ClusterPolicy(probe_interval_s=0.0)
        with pytest.raises(ValueError, match="hedge_delay_s must be "
                                             "non-negative"):
            ClusterPolicy(hedge_delay_s=-1.0)


class TestHealthRouting:
    def test_dead_replica_is_ejected_and_traffic_fails_over(self, v4i_point,
                                                            traffic):
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        policy = ClusterPolicy(probe_interval_s=0.005, unhealthy_after=2,
                               ejection_s=0.05)
        stats = ClusterSimulator(sims, policy).simulate(
            traffic, schedules=[kill_schedule(cores), None])
        assert stats.ejections >= 1
        assert stats.probe_failures >= 2
        assert stats.failed_over_requests > 0
        # Everything the dead replica had queued moves to the healthy
        # peer; only copies lost before anything else existed can drop.
        assert stats.availability >= 0.99
        assert stats.replica_stats[1].served_requests > 0

    def test_transient_outage_readmits(self, v4i_point):
        requests = RequestGenerator(5).poisson("cnn0", 2000.0, 0.6)
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        policy = ClusterPolicy(probe_interval_s=0.005, unhealthy_after=2,
                               ejection_s=0.02)
        stats = ClusterSimulator(sims, policy).simulate(
            requests,
            schedules=[kill_schedule(cores, start_s=0.1, end_s=0.2), None])
        assert stats.ejections >= 1
        assert stats.readmissions >= 1
        # After re-admission the replica serves again.
        assert stats.replica_stats[0].served_requests > 0
        assert stats.availability >= 0.99

    def test_without_probing_dead_replica_drops_its_queue(self, v4i_point,
                                                          traffic):
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        stats = ClusterSimulator(sims).simulate(
            traffic, schedules=[kill_schedule(cores), None])
        # The static router never ejects: whatever was queued on the
        # dead replica at detection is lost, the rest re-routes.
        assert stats.ejections == 0
        assert stats.dropped_requests > 0
        assert stats.replica_stats[1].served_requests > 0
        total = (stats.served_requests + stats.dropped_requests
                 + stats.shed_requests)
        assert total == stats.requests

    def test_whole_cluster_dead_drops_everything(self, v4i_point, traffic):
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        stats = ClusterSimulator(sims).simulate(
            traffic,
            schedules=[kill_schedule(cores), kill_schedule(cores)])
        assert stats.served_requests == 0
        assert stats.dropped_requests == stats.requests
        assert stats.availability == 0.0


class TestRetryTimeoutPurge:
    @pytest.mark.parametrize("policy", [
        ClusterPolicy.static(),
        ClusterPolicy(probe_interval_s=1.0, unhealthy_after=1),
    ], ids=["single-copy", "probing"])
    @pytest.mark.parametrize("timeout, purged", [(0.01, 3), (0.05, 0)])
    def test_purge_is_strictly_past_the_timeout(self, v4i_point, policy,
                                                timeout, purged):
        # The batch launched at 2 ms dies at 2.5 ms; its three survivors
        # wait out the outage until 50 ms, then face the purge. The
        # oldest arrived at 0 s, so it has waited exactly 50 ms: a 50 ms
        # timeout keeps it, a 10 ms one drops all three.
        outage = FaultSchedule(v4i_point.chip.cores, 10.0,
                               down=[(0, 0.0025, 0.05)])
        model = FaultModel(seed=1, retry_budget=5, retry_timeout_s=timeout)
        stats = ClusterSimulator(make_replicas(v4i_point, 1), policy).simulate(
            [0.0, 0.0005, 0.001, 0.06], faults=model, schedules=[outage])
        assert (stats.lost_batches, stats.retried_requests) == (1, 3)
        assert stats.dropped_requests == purged
        assert stats.served_requests == 4 - purged


class TestAdmissionControl:
    def test_token_bucket_sheds_overload(self, v4i_point, traffic):
        sims = make_replicas(v4i_point, 2)
        policy = ClusterPolicy(admission_rate_qps=500.0, admission_burst=8.0)
        stats = ClusterSimulator(sims, policy).simulate(traffic)
        # Offered ~2000 qps against a 500 qps bucket: most is shed.
        assert stats.shed_requests > 0
        assert 0.5 < stats.shed_fraction < 0.9
        # Shed requests never reach a replica.
        offered_to_replicas = sum(r.requests for r in stats.replica_stats)
        assert offered_to_replicas == stats.requests - stats.shed_requests

    def test_queue_depth_backpressure(self, v4i_point):
        # One slow replica (100 ms batches) and a tight depth cap:
        # arrivals beyond the cap are shed instead of queueing forever.
        slow = {step: 0.1 for step in BatchPolicy.batch_steps(8)}
        sims = make_replicas(v4i_point, 1, table=slow)
        requests = RequestGenerator(3).poisson("cnn0", 1000.0, 0.2)
        policy = ClusterPolicy(max_queue_depth=4)
        stats = ClusterSimulator(sims, policy).simulate(requests)
        assert stats.shed_requests > 0
        assert stats.p99_s < 1.0  # the queue never builds past the cap

    def test_conservation_with_shedding(self, v4i_point, traffic):
        sims = make_replicas(v4i_point, 2)
        policy = ClusterPolicy(admission_rate_qps=800.0,
                               max_queue_depth=16)
        stats = ClusterSimulator(sims, policy).simulate(traffic)
        assert (stats.served_requests + stats.dropped_requests
                + stats.shed_requests) == stats.requests

    @settings(max_examples=8, deadline=None)
    @given(low=st.integers(min_value=1, max_value=15),
           high=st.integers(min_value=16, max_value=60))
    def test_shed_fraction_monotone_in_bucket_rate(self, low, high):
        # Property: a faster token bucket never sheds more (queue-depth
        # check off, so the bucket is the only shedding source).
        point = shared_design_point(TPUV4I)
        requests = RequestGenerator(9).poisson("cnn0", 2000.0, 0.25)

        def shed_at(rate_qps: float) -> float:
            sims = make_replicas(point, 2)
            policy = ClusterPolicy(admission_rate_qps=rate_qps,
                                   admission_burst=4.0)
            return ClusterSimulator(sims, policy).simulate(
                requests).shed_fraction

        assert shed_at(100.0 * low) >= shed_at(100.0 * high)


class TestHedging:
    def test_hedge_rescues_requests_stuck_on_slow_replica(self, v4i_point):
        # Replica 0 crawls (50x slowdown for the whole run); hedges
        # re-issue its stragglers on replica 1, which responds first.
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        slow = FaultSchedule(
            cores, 10.0,
            slowdowns=[(core, 0.0, 10.0, 50.0) for core in range(cores)])
        requests = RequestGenerator(3).poisson("cnn0", 1000.0, 0.3)
        policy = ClusterPolicy(hedge_delay_s=0.005)
        stats = ClusterSimulator(sims, policy).simulate(
            requests, schedules=[slow, None])
        assert stats.hedged_requests > 0
        # First response wins; the loser is accounted either way.
        assert stats.cancelled_hedges + stats.wasted_hedges > 0
        assert stats.availability == 1.0
        # Unique accounting: hedge copies never double-count serves.
        assert stats.served_requests == stats.requests
        # ...but the replicas really did serve extra copies.
        assert (sum(r.served_requests for r in stats.replica_stats)
                == stats.served_requests + stats.wasted_hedges)

    def test_no_hedge_without_second_healthy_replica(self, v4i_point,
                                                     traffic):
        sim, = make_replicas(v4i_point, 1)
        policy = ClusterPolicy(hedge_delay_s=0.0)
        stats = ClusterSimulator([sim], policy).simulate(traffic)
        assert stats.hedged_requests == 0

    def test_probe_runs_before_hedge_timer_at_same_instant(self, v4i_point):
        # The probe and the request's hedge timer both fall at 1 ms. The
        # probe goes first: it ejects dead replica 0 and fails the request
        # over to replica 1, so the timer then finds no second healthy
        # replica. Firing the timer first would hedge onto replica 1 and
        # then fail the original over beside its twin.
        policy = ClusterPolicy(probe_interval_s=0.001, unhealthy_after=1,
                               hedge_delay_s=0.001)
        cores = v4i_point.chip.cores
        stats = ClusterSimulator(make_replicas(v4i_point, 2), policy).simulate(
            [0.0], schedules=[kill_schedule(cores), None])
        assert (stats.ejections, stats.failed_over_requests) == (1, 1)
        assert stats.hedged_requests == 0
        assert stats.served_requests == 1
        assert stats.replica_stats[1].served_requests == 1

    def test_hedging_off_by_default(self, v4i_point, traffic):
        sims = make_replicas(v4i_point, 2)
        stats = ClusterSimulator(sims).simulate(traffic)
        assert stats.hedged_requests == 0
        assert stats.cancelled_hedges == 0
        assert stats.wasted_hedges == 0


class TestDegradation:
    def test_ladder_steps_down_when_fleet_shrinks(self, v4i_point):
        sims = make_replicas(v4i_point, 3)
        cores = sims[0].point.chip.cores
        policy = ClusterPolicy(
            probe_interval_s=0.005, unhealthy_after=2, ejection_s=1.0,
            tiers=(DegradationTier("half", max_batch=4),),
            degrade_below_healthy=0.67, degrade_after=2, recover_after=4)
        requests = RequestGenerator(5).poisson("cnn0", 3000.0, 0.4)
        stats = ClusterSimulator(sims, policy).simulate(
            requests, schedules=[kill_schedule(cores),
                                 kill_schedule(cores), None])
        names = [name for name, _ in stats.time_in_tier_s]
        assert names == ["full", "half"]
        assert stats.degraded_s > 0.0
        assert dict(stats.time_in_tier_s)["half"] > 0.0
        # The surviving replica really ran smaller batches while degraded.
        assert max(stats.replica_stats[2].mean_batch, 0.0) <= 8.0

    def test_ladder_recovers_after_outage_clears(self, v4i_point):
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        policy = ClusterPolicy(
            probe_interval_s=0.01, unhealthy_after=1, ejection_s=0.02,
            tiers=(DegradationTier("half", max_batch=4),),
            degrade_below_healthy=0.6, degrade_after=1, recover_after=2)
        requests = RequestGenerator(5).poisson("cnn0", 1500.0, 0.6)
        stats = ClusterSimulator(sims, policy).simulate(
            requests,
            schedules=[kill_schedule(cores, start_s=0.05, end_s=0.2), None])
        timing = dict(stats.time_in_tier_s)
        assert timing["half"] > 0.0
        # Recovery: readmitted replica + good windows step back up, so
        # the run does not end stuck in the degraded tier.
        assert stats.readmissions >= 1
        assert timing["full"] > timing["half"]

    def test_int8_tier_uses_retargeted_latency(self, v4i_point):
        # Real latencies here (not the synthetic table): the int8 tier
        # must pull a retargeted compile, not the bf16 table.
        spec = app_by_name("cnn0")
        sims = [ServingSimulator(v4i_point, spec, BatchPolicy(8, 0.002),
                                 Slo(spec.slo_ms / 1e3)) for _ in range(2)]
        cores = v4i_point.chip.cores
        policy = ClusterPolicy(
            probe_interval_s=0.005, unhealthy_after=1, ejection_s=1.0,
            tiers=(DegradationTier("int8", max_batch=4, dtype="int8"),),
            degrade_below_healthy=0.6, degrade_after=1, recover_after=99)
        requests = RequestGenerator(5).poisson("cnn0", 1000.0, 0.4)
        stats = ClusterSimulator(sims, policy).simulate(
            requests, schedules=[kill_schedule(cores), None])
        assert dict(stats.time_in_tier_s)["int8"] > 0.0
        assert stats.availability > 0.9


class TestDeterminism:
    def test_cluster_stats_identical_across_runs(self, v4i_point, traffic):
        model = FaultModel(seed=11, chip_mtbf_s=0.1, chip_repair_s=0.05)
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)

        def run():
            sims = make_replicas(v4i_point, 3)
            return ClusterSimulator(sims, policy).simulate(
                traffic, faults=model)

        first, second = run(), run()
        assert first == second  # frozen dataclasses: bit-level equality

    def test_replica_fault_streams_are_independent(self, v4i_point,
                                                   traffic):
        # Same model, different replica index -> different failures.
        model = FaultModel(seed=11, core_mtbf_s=0.05)
        sims = make_replicas(v4i_point, 2)
        cluster = ClusterSimulator(sims)
        stats = cluster.simulate(traffic, faults=model)
        a, b = stats.replica_stats
        assert (a.lost_batches, a.retried_requests) != \
            (b.lost_batches, b.retried_requests) or a.p99_s != b.p99_s

    def test_chaos_sweep_deterministic(self):
        kwargs = dict(seed=3, chips=(TPUV4I,), duration_s=0.25)
        assert chaos_sweep(**kwargs) == chaos_sweep(**kwargs)


class TestChaosSweep:
    def test_rows_cover_scenarios_and_policies(self):
        rows = chaos_sweep(seed=3, chips=(TPUV4I,), duration_s=0.25)
        combos = {(r.scenario, r.policy) for r in rows}
        assert len(combos) == 10  # 5 scenarios x 2 policies
        assert all(r.chip == "TPUv4i" and r.app == "cnn0" for r in rows)

    def test_kill_one_of_n_plus_one_holds_availability_per_generation(self):
        # The acceptance bar: killing k <= spares replicas of an N+k
        # cluster keeps availability at the faultless level under the
        # resilient policy, on every generation.
        rows = chaos_sweep(seed=3, duration_s=0.25,
                           scenarios=(ChaosScenario("faultless"),
                                      ChaosScenario("kill-1",
                                                    kill_replicas=1)))
        for chip in GENERATIONS:
            cells = {(r.scenario, r.policy): r.stats for r in rows
                     if r.chip == chip.name}
            faultless = cells[("faultless", "resilient")]
            killed = cells[("kill-1", "resilient")]
            assert killed.availability >= min(faultless.availability, 0.99), \
                f"{chip.name}: kill-1 availability {killed.availability}"

    def test_resilient_beats_static_under_overload(self):
        # Long enough for the static router's queue to actually build.
        rows = chaos_sweep(seed=3, chips=(TPUV4I,), duration_s=0.6,
                           scenarios=(ChaosScenario("overload",
                                                    load_factor=2.5),))
        by_policy = {r.policy: r.stats for r in rows}
        # The static router serves everything late; the resilient one
        # sheds to protect the latency of what it admits.
        assert by_policy["resilient"].shed_fraction > 0.2
        assert (by_policy["resilient"].p99_s
                <= by_policy["static"].p99_s)

    def test_killing_every_replica_rejected(self):
        with pytest.raises(ValueError, match="kills every replica"):
            chaos_sweep(seed=0, replicas=2, chips=(TPUV4I,),
                        scenarios=(ChaosScenario("bad", kill_replicas=2),))


class TestObservability:
    def test_metrics_do_not_perturb_stats(self, v4i_point, traffic):
        from repro.obs import collecting_metrics
        model = FaultModel(seed=11, chip_mtbf_s=0.1, chip_repair_s=0.05)
        policy = ClusterPolicy(probe_interval_s=0.01,
                               admission_rate_qps=1500.0)

        def run():
            sims = make_replicas(v4i_point, 2)
            return ClusterSimulator(sims, policy).simulate(
                traffic, faults=model)

        plain = run()
        with collecting_metrics() as registry:
            observed = run()
            snapshot = registry.snapshot()
        assert observed == plain
        assert "cluster.requests_offered" in snapshot
        assert "cluster.probes" in snapshot

    def test_tracer_records_router_events(self, v4i_point, traffic):
        from repro.obs import SpanTracer
        sims = make_replicas(v4i_point, 2)
        cores = sims[0].point.chip.cores
        policy = ClusterPolicy(probe_interval_s=0.005, unhealthy_after=1,
                               ejection_s=0.05)
        tracer = SpanTracer()
        ClusterSimulator(sims, policy).simulate(
            traffic, schedules=[kill_schedule(cores), None], tracer=tracer)
        names = {span.name for span in tracer.spans}
        assert "batch" in names
        assert "eject" in names
