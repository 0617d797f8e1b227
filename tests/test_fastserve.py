"""Fastserve replay kernels: bit-identity against the event loops.

The contract under test is absolute:
:func:`repro.serving.fastserve.replay_serving` and :func:`replay_cluster`
(the simulators' only production path) must reproduce the test-only
reference event loops' returned stats **byte for byte** — same floats,
same counters, same tracer spans — on every scenario the chaos sweep
exercises: faultless, replica kills, mid-batch kills, transient
slowdowns, overload shedding, hedging, and dtype degradation tiers,
across all four chip generations. The references run inside
``tests.conftest.reference_paths``. Plus the satellites that ride along:
the kernel work counters, the shared-compile regression for identical
replicas, float-typed latency stats, the bare-timestamp request API, and
the vectorized Poisson generator's parity with the scalar loop it
replaced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GENERATIONS, TPUV4I
from repro.cluster import ClusterPolicy, ClusterSimulator, DegradationTier
from repro.cluster.sweep import chaos_sweep
from repro.core.design_point import DesignPoint
from repro.engine.cache import EvalCache, set_cache
from repro.faults import FaultModel, FaultSchedule
from repro.obs.metrics import collecting_metrics
from repro.serving import BatchPolicy, ServingSimulator, Slo
from repro.util.rng import DeterministicRng
from repro.workloads import Request, RequestGenerator, app_by_name

from tests.conftest import deadline, reference_paths

FLAT_TABLE = {step: 0.001 for step in BatchPolicy.batch_steps(8)}


def make_sim(point, *, max_batch=8, max_wait_s=0.002, table=FLAT_TABLE):
    spec = app_by_name("cnn0")
    sim = ServingSimulator(point, spec, BatchPolicy(max_batch, max_wait_s),
                           Slo(spec.slo_ms / 1e3))
    sim.seed_latencies(table)
    return sim


def make_replicas(point, count, **kwargs):
    return [make_sim(point, **kwargs) for _ in range(count)]


def kill_schedule(cores, horizon_s=10.0, start_s=0.0, end_s=math.inf):
    return FaultSchedule(cores, horizon_s,
                         down=[(core, start_s, end_s)
                               for core in range(cores)])


def slowdown_schedule(cores, horizon_s=10.0, factor=20.0):
    return FaultSchedule(cores, horizon_s,
                         slowdowns=[(core, 0.0, horizon_s, factor)
                                    for core in range(cores)])


@pytest.fixture(scope="module")
def traffic():
    return RequestGenerator(7).poisson("cnn0", 2000.0, 0.5)


def serving_both_ways(sim_factory, requests, **kwargs):
    """Run one serving scenario fast and cold on fresh simulators."""
    fast = sim_factory().simulate(requests, **kwargs)
    with reference_paths():
        cold = sim_factory().simulate(requests, **kwargs)
    return fast, cold


def cluster_both_ways(cluster_factory, requests, **kwargs):
    fast = cluster_factory().simulate(requests, **kwargs)
    with reference_paths():
        cold = cluster_factory().simulate(requests, **kwargs)
    return fast, cold


class TestServingIdentity:
    """replay_serving vs the single-simulator event loop."""

    @pytest.mark.parametrize("chip", GENERATIONS, ids=lambda c: c.name)
    def test_faultless_identity_per_generation(self, chip):
        point = DesignPoint(chip)
        requests = RequestGenerator(11).poisson("cnn0", 1500.0, 0.3)
        fast, cold = serving_both_ways(lambda: make_sim(point), requests)
        assert fast == cold  # frozen dataclass: bit-level equality

    def test_mid_batch_kill_identity(self, v4i_point, traffic):
        # Outage opens mid-run with batches in flight: the kernel must
        # cut a segment boundary and carry the survivors across it.
        cores = v4i_point.chip.cores
        schedule = kill_schedule(cores, start_s=0.05, end_s=0.2)
        fast, cold = serving_both_ways(lambda: make_sim(v4i_point),
                                       traffic, schedule=schedule)
        assert fast == cold
        assert fast.lost_batches > 0  # the scenario really bit

    def test_permanent_kill_identity(self, v4i_point, traffic):
        schedule = kill_schedule(v4i_point.chip.cores, start_s=0.1)
        fast, cold = serving_both_ways(lambda: make_sim(v4i_point),
                                       traffic, schedule=schedule)
        assert fast == cold
        assert fast.dropped_requests > 0

    def test_slowdown_identity(self, v4i_point, traffic):
        schedule = slowdown_schedule(v4i_point.chip.cores)
        fast, cold = serving_both_ways(lambda: make_sim(v4i_point),
                                       traffic, schedule=schedule)
        assert fast == cold
        assert fast.p99_s > FLAT_TABLE[1]  # slowdown visible in the tail

    def test_seeded_fault_model_identity(self, v4i_point, traffic):
        model = FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.02)
        fast, cold = serving_both_ways(lambda: make_sim(v4i_point),
                                       traffic, faults=model)
        assert fast == cold

    def test_overload_identity(self, v4i_point):
        # 10x the queue's drain rate: deep queues, constant max batches.
        requests = RequestGenerator(3).poisson("cnn0", 50000.0, 0.1)
        fast, cold = serving_both_ways(lambda: make_sim(v4i_point), requests)
        assert fast == cold
        assert fast.mean_batch > 7.9  # queue really ran deep


    def test_spans_and_counters_under_faults(self, v4i_point, traffic):
        # A mid-batch kill and an outage an idle core walks into: lost
        # and served batch spans and every serving.* metric must match.
        from repro.obs.tracer import SpanTracer
        schedule = FaultSchedule(v4i_point.chip.cores, 10.0,
                                 down=[(0, 0.05, 0.06), (0, 0.2, 0.3)])

        def run():
            tracer = SpanTracer()
            with collecting_metrics() as registry:
                stats = make_sim(v4i_point).simulate(
                    traffic, schedule=schedule, tracer=tracer)
                values = {name: entry
                          for name, entry in registry.snapshot().items()
                          if not name.startswith("serving.fastserve.")}
            return stats, tracer.spans, values

        fast = run()
        with reference_paths():
            cold = run()
        assert fast == cold
        names = {span.name for span in fast[1]}
        assert names == {"batch", "batch.lost"}
        assert fast[2]["serving.outage_wait_s"]["value"] > 0


class TestClusterIdentity:
    """replay_cluster vs the router event loop, scenario by scenario."""

    @pytest.mark.parametrize("chip", GENERATIONS, ids=lambda c: c.name)
    def test_resilient_faultless_identity_per_generation(self, chip):
        point = DesignPoint(chip)
        requests = RequestGenerator(9).poisson("cnn0", 3000.0, 0.3)
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=3000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(point, 3), policy),
            requests)
        assert fast == cold

    def test_kill_one_identity(self, v4i_point, traffic):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 3), policy),
            traffic, schedules=[kill_schedule(cores), None, None])
        assert fast == cold
        assert fast.ejections >= 1

    def test_mid_batch_kill_identity(self, v4i_point, traffic):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 3), policy),
            traffic,
            schedules=[kill_schedule(cores, start_s=0.05, end_s=0.2),
                       None, None])
        assert fast == cold

    def test_slowdown_identity(self, v4i_point, traffic):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 3), policy),
            traffic, schedules=[slowdown_schedule(cores), None, None])
        assert fast == cold

    def test_overload_shedding_identity(self, v4i_point):
        # 2.5x the admitted rate: the token bucket must shed, and the
        # shed set must match the reference request for request.
        requests = RequestGenerator(5).poisson("cnn0", 5000.0, 0.3)
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 3), policy),
            requests)
        assert fast == cold
        assert fast.shed_requests > 0

    def test_hedging_identity(self, v4i_point):
        # One crawling replica so hedges fire, win, and cancel copies.
        cores = v4i_point.chip.cores
        slow = FaultSchedule(
            cores, 10.0,
            slowdowns=[(core, 0.0, 10.0, 50.0) for core in range(cores)])
        requests = RequestGenerator(3).poisson("cnn0", 1000.0, 0.3)
        policy = ClusterPolicy(probe_interval_s=0.01,
                               hedge_delay_s=0.005)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2), policy),
            requests, schedules=[slow, None])
        assert fast == cold
        assert fast.hedged_requests > 0
        assert fast.cancelled_hedges + fast.wasted_hedges > 0

    def test_degradation_tier_identity(self, v4i_point):
        cores = v4i_point.chip.cores
        policy = ClusterPolicy(
            probe_interval_s=0.005, unhealthy_after=2, ejection_s=1.0,
            tiers=(DegradationTier("half", max_batch=4),),
            degrade_below_healthy=0.67, degrade_after=2, recover_after=4)
        requests = RequestGenerator(5).poisson("cnn0", 3000.0, 0.4)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 3), policy),
            requests, schedules=[kill_schedule(cores),
                                 kill_schedule(cores), None])
        assert fast == cold
        assert fast.degraded_s > 0.0

    def test_no_probe_stranded_queue_identity(self, v4i_point, traffic):
        # Without probing a dead replica is discovered lazily and its
        # queue dropped — the lazy-discovery order must match exactly.
        cores = v4i_point.chip.cores
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2)),
            traffic, schedules=[kill_schedule(cores, start_s=0.1), None])
        assert fast == cold
        assert fast.dropped_requests > 0

    def test_probe_before_arrival_at_same_instant(self, v4i_point):
        # The first probe (0.001 s) ejects dead replica 0 before the
        # arrival at that instant is routed, so only the queued request
        # fails over; routing it first would fail over two.
        cores = v4i_point.chip.cores
        policy = ClusterPolicy(probe_interval_s=0.001, unhealthy_after=1,
                               ejection_s=1.0)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2), policy),
            [0.0, 0.0, 0.001], schedules=[kill_schedule(cores), None])
        assert fast == cold
        assert fast.failed_over_requests == 1

    def test_arrival_before_hedge_at_same_instant(self, v4i_point):
        # Hedge timers fire 0.001 s after each arrival. At 0.001 s the
        # second request is routed first (to empty replica 1) and the
        # first one's hedge copy joins it there; at 0.002 s the second
        # one's copy joins replica 0 just before its batch launches. Both
        # requests finish there, and both queued copies are cancelled.
        # Firing the first hedge before the arrival would launch both
        # copies early on replica 1 and waste them instead.
        policy = ClusterPolicy(hedge_delay_s=0.001)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2), policy),
            [0.0, 0.001])
        assert fast == cold
        assert fast.hedged_requests == 2
        assert (fast.cancelled_hedges, fast.wasted_hedges) == (2, 0)

    def test_probe_clock_runs_until_settled_completion(self, v4i_point):
        # The only batch launches at 0.002 s and completes at 0.003 s.
        # It settles at launch, but the event loop holds its completion
        # until 0.003 s, so the probe at 0.0025 s still runs.
        policy = ClusterPolicy(probe_interval_s=0.0005)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 1), policy),
            [0.0])
        assert fast == cold
        assert fast.probes == 5

    @pytest.mark.parametrize("replicas, policy", [
        (1, ClusterPolicy(probe_interval_s=0.0005, unhealthy_after=1)),
        (2, ClusterPolicy(probe_interval_s=0.0005, unhealthy_after=1,
                          hedge_delay_s=0.0005)),
    ], ids=["probes", "probes-and-hedges"])
    def test_ejected_dead_replica_queue_dropped(self, v4i_point, replicas,
                                                policy):
        # Every core is down for good from t=0. The first probe ejects
        # every replica before any launch finds it dead, so later
        # arrivals still route to the ejected (live-looking) replicas.
        # Their launches then find every core gone; no probe will eject
        # them again, so the stranded queues are dropped at discovery
        # instead of keeping the probe clock running forever.
        requests = [0.0, 0.001, 0.002]
        schedules = [kill_schedule(v4i_point.chip.cores)] * replicas
        try:
            with deadline(20.0):
                fast, cold = cluster_both_ways(
                    lambda: ClusterSimulator(
                        make_replicas(v4i_point, replicas), policy),
                    requests, schedules=schedules)
        except TimeoutError as exc:
            # No traceback: the alarm can land in a frame pytest cannot
            # render.
            pytest.fail(f"the replay never returned: {exc}", pytrace=False)
        assert fast == cold
        assert fast.ejections == replicas
        assert fast.served_requests == 0
        assert (fast.served_requests + fast.dropped_requests
                + fast.shed_requests) == fast.requests == len(requests)

    def test_tracer_spans_identical(self, v4i_point, traffic):
        from repro.obs.tracer import SpanTracer
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2000.0, max_batch=8, replicas=2,
            int8_tier=False)

        def run():
            tracer = SpanTracer()
            ClusterSimulator(make_replicas(v4i_point, 2), policy).simulate(
                traffic, tracer=tracer)
            return tracer.spans

        fast = run()
        with reference_paths():
            cold = run()
        assert fast == cold


def spans_and_counters(cluster_factory, requests, **kwargs):
    """Stats, tracer spans and metric values of one cluster run."""
    from repro.obs.tracer import SpanTracer
    tracer = SpanTracer()
    with collecting_metrics() as registry:
        stats = cluster_factory().simulate(requests, tracer=tracer, **kwargs)
        values = {name: entry["value"]
                  for name, entry in registry.snapshot().items()}
    return stats, tracer.spans, values


#: Policies that neither probe nor hedge: one copy per request.
SINGLE_COPY_POLICIES = {
    "static": ClusterPolicy.static(),
    "admission": ClusterPolicy(admission_rate_qps=1500.0,
                               admission_burst=4.0),
    "queue-depth": ClusterPolicy(max_queue_depth=3),
    "both": ClusterPolicy(admission_rate_qps=1500.0, admission_burst=4.0,
                          max_queue_depth=3),
}


class TestSingleCopyIdentity:
    """The cluster loop under policies that neither probe nor hedge (one
    copy per request, no router event) vs the event loop."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           policy=st.sampled_from(sorted(SINGLE_COPY_POLICIES)),
           replicas=st.integers(min_value=1, max_value=4),
           max_batch=st.sampled_from((1, 8)),
           faults=st.sampled_from(("none", "mtbf", "kills", "all-dead")),
           duplicate_every=st.integers(min_value=1, max_value=5))
    def test_identity_property(self, seed, policy, replicas, max_batch,
                               faults, duplicate_every):
        point = DesignPoint(TPUV4I)
        cores = point.chip.cores
        rng = DeterministicRng(seed)
        drawn = rng.poisson_arrivals(3000.0, 0.1)
        # Repeat every k-th timestamp: ties between arrivals.
        requests = sorted(drawn + drawn[::duplicate_every])
        if not requests:
            return
        kwargs = {}
        if faults == "mtbf":
            kwargs["faults"] = FaultModel(
                seed=seed, core_mtbf_s=0.03, core_repair_s=0.01,
                chip_mtbf_s=0.08, chip_repair_s=0.02, slowdown_mtbf_s=0.05,
                retry_budget=seed % 3, retry_timeout_s=0.004)
        elif faults == "kills":
            starts = (0.0, 0.02, 0.05, math.inf)
            kwargs["schedules"] = [
                None if math.isinf(starts[(seed >> i) % 4])
                else kill_schedule(cores, start_s=starts[(seed >> i) % 4])
                for i in range(replicas)]
        elif faults == "all-dead":
            kwargs["schedules"] = [kill_schedule(cores)] * replicas
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(
                make_replicas(point, replicas, max_batch=max_batch),
                SINGLE_COPY_POLICIES[policy]),
            requests, **kwargs)
        assert fast == cold
        if faults == "all-dead":
            assert fast.served_requests == 0

    @pytest.mark.parametrize("requests, replicas, max_batch, order", [
        # Three arrivals at t=0 land on replicas 0, 1, 2, and all three
        # batches fall due at max_wait.
        ([0.0, 0.0, 0.0], 3, 8, [(0, 2000.0), (1, 2000.0), (2, 2000.0)]),
        # Replica 0 launches a full batch at t=0 and takes the arrival at
        # 0.0015; the arrival at 0.002 fills it just as replica 1's batch
        # falls due, so both launch at 0.002.
        ([0.0, 0.0, 0.0, 0.0015, 0.002], 2, 2,
         [(0, 0.0), (0, 2000.0), (1, 2000.0)]),
    ], ids=["three-way", "filled-at-tie"])
    def test_equal_launch_times_lowest_index_first(
            self, v4i_point, requests, replicas, max_batch, order):
        factory = lambda: ClusterSimulator(
            make_replicas(v4i_point, replicas, max_batch=max_batch))
        fast = spans_and_counters(factory, requests)
        with reference_paths():
            cold = spans_and_counters(factory, requests)
        assert fast[:2] == cold[:2]
        launches = [(int(span.track[len("replica")]), span.ts_us)
                    for span in fast[1] if span.name == "batch"]
        assert launches == order

    def test_arrival_at_launch_time_joins_the_batch(self, v4i_point):
        # The head's batch is due at 0.002 s; an arrival at exactly that
        # instant is absorbed before the launch (arrivals win ties).
        requests = [0.0, 0.002, 0.002]
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 1)), requests)
        assert fast == cold
        assert fast.mean_batch == 3.0

    def test_dead_replica_queue_dropped_at_discovery(self, v4i_point):
        # Replica 0's only core dies for good at 0.001 s, after two
        # requests queued on it: with no probes, the router finds it dead
        # at its launch and drops that queue; replica 1 serves the rest.
        requests = [0.0, 0.0, 0.0, 0.0005] + [0.01 + 0.001 * k
                                              for k in range(10)]
        schedules = [kill_schedule(v4i_point.chip.cores, start_s=0.001),
                     None]
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2)),
            requests, schedules=schedules)
        assert fast == cold
        assert fast.replica_stats[0].dropped_requests == 2
        assert fast.dropped_requests == 2
        assert fast.served_requests == len(requests) - 2

    def test_arrival_on_empty_dead_replica_dropped(self, v4i_point):
        # Replica 0's batch launched at 0.002 s dies at 0.0025 s and its
        # core never returns; with no retry budget the queue empties, so
        # the replica is not yet known dead. The arrival at 0.01 s joins
        # it (lowest index on a tie), finds every core gone and is
        # dropped there; the one at 0.02 s goes to replica 1.
        schedules = [kill_schedule(v4i_point.chip.cores, start_s=0.0025),
                     None]
        model = FaultModel(seed=1, retry_budget=0)
        factory = lambda: ClusterSimulator(make_replicas(v4i_point, 2))
        fast = spans_and_counters(factory, [0.0, 0.01, 0.02],
                                  faults=model, schedules=schedules)
        with reference_paths():
            cold = spans_and_counters(factory, [0.0, 0.01, 0.02],
                                      faults=model, schedules=schedules)
        assert fast[:2] == cold[:2]
        assert fast[0].replica_stats[0].dropped_requests == 2
        assert fast[0].served_requests == 1

    def test_idle_core_waits_out_outage(self, v4i_point):
        # The only request arrives inside an outage: its launch waits for
        # the repair, and the wait is counted.
        outage = FaultSchedule(v4i_point.chip.cores, 10.0,
                               down=[(0, 0.01, 0.02)])
        factory = lambda: ClusterSimulator(make_replicas(v4i_point, 1))
        fast = spans_and_counters(factory, [0.012], schedules=[outage])
        with reference_paths():
            cold = spans_and_counters(factory, [0.012], schedules=[outage])
        assert fast[:2] == cold[:2]
        assert (fast[2]["serving.outage_wait_s"]
                == cold[2]["serving.outage_wait_s"] > 0)

    @pytest.mark.parametrize("timeout, purged", [(0.01, 3), (0.05, 0)])
    def test_survivors_purged_by_retry_timeout(self, v4i_point, timeout,
                                               purged):
        # The batch launched at 0.002 s dies at 0.0025 s; its survivors
        # rejoin the queue front and wait out the outage until 0.05 s,
        # where a 0.01 s retry timeout purges them before the launch. At
        # 0.05 s the oldest has waited exactly the timeout: it stays.
        cores = v4i_point.chip.cores
        outage = FaultSchedule(cores, 10.0,
                               down=[(core, 0.0025, 0.05)
                                     for core in range(cores)])
        model = FaultModel(seed=1, retry_budget=5, retry_timeout_s=timeout)
        requests = [0.0, 0.0005, 0.001, 0.06]
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(v4i_point, 1)),
            requests, faults=model, schedules=[outage])
        assert fast == cold
        assert fast.lost_batches == 1
        assert fast.retried_requests == 3
        assert fast.dropped_requests == purged
        assert fast.served_requests == len(requests) - purged

    def test_spans_and_counters_match_reference(self, v4i_point):
        # Overload with admission control and a mid-run outage: shedding,
        # lost batches and outage waits all show in spans and counters.
        cores = v4i_point.chip.cores
        requests = RequestGenerator(4).poisson("cnn0", 6000.0, 0.1)
        schedules = [kill_schedule(cores, start_s=0.03, end_s=0.05), None]
        factory = lambda: ClusterSimulator(make_replicas(v4i_point, 2),
                                           SINGLE_COPY_POLICIES["both"])
        fast = spans_and_counters(factory, requests, schedules=schedules)
        with reference_paths():
            cold = spans_and_counters(factory, requests, schedules=schedules)
        assert fast[0] == cold[0]
        assert fast[1] == cold[1]
        kernel = {name: value for name, value in fast[2].items()
                  if name.startswith("serving.fastserve.")}
        assert {name: value for name, value in fast[2].items()
                if name not in kernel} == cold[2]
        assert cold[2]["cluster.shed_requests"] == fast[0].shed_requests > 0
        batches = sum(1 for span in cold[1] if span.name == "batch")
        lost = sum(1 for span in cold[1] if span.name == "batch.lost")
        assert lost == fast[0].lost_batches > 0
        assert kernel["serving.fastserve.batches"] == batches
        assert kernel["serving.fastserve.cluster_replays"] == 1
        assert (kernel["serving.fastserve.segments"]
                == kernel["serving.fastserve.boundaries"] + 1)
        assert kernel["serving.fastserve.boundaries"] >= lost


def assert_router_matches_reference(cluster_factory, requests, **kwargs):
    """Stats, spans and replay metrics of the kernel equal the event
    loop's (engine metrics differ: the second run hits the caches)."""
    def replay_metrics(values):
        return {name: value for name, value in values.items()
                if name.startswith(("cluster.", "serving."))
                and not name.startswith("serving.fastserve.")}

    fast = spans_and_counters(cluster_factory, requests, **kwargs)
    with reference_paths():
        cold = spans_and_counters(cluster_factory, requests, **kwargs)
    assert fast[0] == cold[0]
    assert fast[1] == cold[1]
    assert replay_metrics(fast[2]) == replay_metrics(cold[2])
    return fast


class TestRouterEdgePaths:
    """The probing/hedging router's rare branches vs the event loop."""

    def test_cluster_down_last_resort(self, v4i_point):
        # The only core is dead from t=0. The launch at 0.002 s finds it
        # gone; probing is on, so its queue waits for the probe at 1 s.
        # Meanwhile the arrival at 0.05 s has no live replica: the last
        # resort assigns it to the dead one, which drops it.
        policy = ClusterPolicy(probe_interval_s=1.0, unhealthy_after=1)
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(make_replicas(v4i_point, 1), policy),
            [0.0, 0.001, 0.05],
            schedules=[kill_schedule(v4i_point.chip.cores)])
        stats = fast[0]
        assert stats.served_requests == 0
        assert stats.dropped_requests == 3
        assert stats.ejections == 1

    def test_dead_replica_discovered_on_arrival(self, v4i_point):
        # The batch launched at 0.002 s dies at 0.0025 s for good and,
        # with no retry budget, its request is dropped mid-batch. The
        # arrival at 0.01 s then finds the emptied replica dead; it waits
        # there until the probe at 1 s ejects replica 0 and fails it
        # over to replica 1, which has served the arrival at 0.02 s.
        policy = ClusterPolicy(probe_interval_s=1.0, unhealthy_after=1)
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2), policy),
            [0.0, 0.01, 0.02], faults=FaultModel(seed=1, retry_budget=0),
            schedules=[kill_schedule(v4i_point.chip.cores, start_s=0.0025),
                       None])
        stats = fast[0]
        assert stats.lost_batches == 1
        assert stats.dropped_requests == 1
        assert (stats.ejections, stats.failed_over_requests) == (1, 1)
        assert stats.served_requests == 2

    @pytest.mark.parametrize("timeout, purged", [(0.01, 3), (0.05, 0)])
    def test_retry_timeout_purge(self, v4i_point, timeout, purged):
        # TestSingleCopyIdentity's purge scenario with probes on: the
        # survivors of the batch killed at 0.0025 s wait out the outage
        # to 0.05 s. At 0.05 s the oldest has waited exactly the 0.05 s
        # timeout, so it stays.
        outage = FaultSchedule(v4i_point.chip.cores, 10.0,
                               down=[(0, 0.0025, 0.05)])
        policy = ClusterPolicy(probe_interval_s=1.0, unhealthy_after=1)
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(make_replicas(v4i_point, 1), policy),
            [0.0, 0.0005, 0.001, 0.06],
            faults=FaultModel(seed=1, retry_budget=5,
                              retry_timeout_s=timeout),
            schedules=[outage])
        stats = fast[0]
        assert stats.retried_requests == 3
        assert stats.dropped_requests == purged
        assert stats.served_requests == 4 - purged

    def test_batch_killed_on_ejected_replica_fails_over(self, v4i_point):
        # Both replicas fail the probe at 0.01 s and are ejected until
        # 0.02 s. The arrival at 0.0185 s goes to live, ejected replica
        # 0. At 0.02 s replica 1 is readmitted; replica 0 is down again
        # and stays ejected. Its batch launched at 0.0205 s dies at
        # 0.021 s, so the survivor fails over to replica 1.
        policy = ClusterPolicy(probe_interval_s=0.01, unhealthy_after=1,
                               ejection_s=0.01)
        schedules = [
            FaultSchedule(1, 10.0, down=[(0, 0.009, 0.011),
                                         (0, 0.0195, 0.0202),
                                         (0, 0.021, 0.03)]),
            FaultSchedule(1, 10.0, down=[(0, 0.009, 0.011)]),
        ]
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2), policy),
            [0.0, 0.0185], schedules=schedules)
        stats = fast[0]
        assert (stats.ejections, stats.readmissions) == (2, 1)
        assert stats.lost_batches == 1
        assert stats.failed_over_requests == 1
        assert stats.served_requests == 2
        assert {span.name for span in fast[1]} == {
            "batch", "batch.lost", "eject", "readmit"}

    def test_batch_settling_at_the_last_hedge_instant(self, v4i_point):
        # Request 1 arrives at 0.002 s and fills replica 1's one-slot
        # batch; request 0's hedge timer fires at that instant and its
        # copy joins replica 1 too. Request 1's batch then launches and,
        # at zero latency, completes at 0.002 s: no later than the hedge
        # just placed, so it settles entry by entry.
        policy = ClusterPolicy(hedge_delay_s=0.002)
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(
                [make_sim(v4i_point),
                 make_sim(v4i_point, max_batch=1, table={1: 0.0})], policy),
            [0.0, 0.002])
        stats = fast[0]
        assert stats.hedged_requests == 1
        assert stats.wasted_hedges == 1
        assert stats.served_requests == 2
        assert stats.p50_s == 0.0

    @pytest.mark.parametrize("retry_budget, failed_over", [(2, 1), (0, 0)],
                             ids=["fails-over", "dropped-mid-batch"])
    def test_hedge_copy_on_dying_replica(self, v4i_point, retry_budget,
                                         failed_over):
        # Replica 0 crawls, so the request's hedge timer at 1 ms sends a
        # copy to replica 1. That copy launches at 2 ms (it keeps the
        # original arrival) and dies with replica 1 at 2.5 ms. With a
        # retry budget it requeues, and the probe at 3 ms ejects replica
        # 1 and fails it over to replica 0. With none it is dropped while
        # the original still runs on replica 0, which serves the request.
        schedules = [
            FaultSchedule(1, 10.0, slowdowns=[(0, 0.0, 10.0, 50.0)]),
            kill_schedule(1, start_s=0.0025),
        ]
        policy = ClusterPolicy(probe_interval_s=0.003, unhealthy_after=1,
                               ejection_s=0.01, hedge_delay_s=0.001)
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(make_replicas(v4i_point, 2), policy),
            [0.0], faults=FaultModel(seed=1, retry_budget=retry_budget),
            schedules=schedules)
        stats = fast[0]
        assert (stats.hedged_requests, stats.lost_batches) == (1, 1)
        assert stats.failed_over_requests == failed_over
        assert stats.served_requests == 1

    @pytest.mark.parametrize("scenario", ["hedging", "degradation",
                                          "int8-tier", "overload",
                                          "queue-depth"])
    def test_spans_and_counters_match_reference(self, v4i_point, scenario):
        cores = v4i_point.chip.cores
        schedules = None
        replicas = 3
        if scenario == "hedging":
            replicas = 2
            policy = ClusterPolicy(probe_interval_s=0.01,
                                   hedge_delay_s=0.005)
            schedules = [slowdown_schedule(cores, factor=50.0), None]
            requests = RequestGenerator(3).poisson("cnn0", 1000.0, 0.2)
        elif scenario in ("degradation", "int8-tier"):
            tier = (DegradationTier("half", max_batch=4)
                    if scenario == "degradation"
                    else DegradationTier("int8", dtype="int8"))
            policy = ClusterPolicy(
                probe_interval_s=0.005, unhealthy_after=2, ejection_s=1.0,
                tiers=(tier,), degrade_below_healthy=0.67, degrade_after=2,
                recover_after=4)
            schedules = [kill_schedule(cores), kill_schedule(cores), None]
            requests = RequestGenerator(5).poisson("cnn0", 3000.0, 0.2)
        elif scenario == "overload":
            policy = ClusterPolicy.resilient(
                slo_limit_s=0.005, offered_qps=2000.0, max_batch=8,
                replicas=3, int8_tier=False)
            requests = RequestGenerator(5).poisson("cnn0", 5000.0, 0.2)
        else:
            policy = ClusterPolicy(probe_interval_s=0.01, max_queue_depth=3)
            requests = RequestGenerator(5).poisson("cnn0", 20000.0, 0.1)
        fast = assert_router_matches_reference(
            lambda: ClusterSimulator(make_replicas(v4i_point, replicas),
                                     policy),
            requests, schedules=schedules)
        stats, spans, values = fast
        if scenario == "hedging":
            assert values["cluster.hedged_requests"] == stats.hedged_requests
            assert stats.hedged_requests > 0
        elif scenario in ("overload", "queue-depth"):
            assert values["cluster.shed_requests"] == stats.shed_requests
            assert stats.shed_requests > 0
        else:
            assert values["cluster.tier_changes"] >= 1
            assert any(span.name == "tier" for span in spans)


class TestChaosSweepIdentity:
    def test_every_scenario_row_identical(self):
        fast = chaos_sweep(seed=3, chips=(TPUV4I,), duration_s=0.25)
        with reference_paths():
            cold = chaos_sweep(seed=3, chips=(TPUV4I,), duration_s=0.25)
        assert len(fast) == len(cold)
        for f, c in zip(fast, cold):
            assert f == c, f"{f.scenario}/{f.policy} diverged"
        # All five scenarios really ran under both policies.
        assert {(r.scenario, r.policy) for r in fast} == {
            (s, p) for s in ("faultless", "kill-1", "chip-outages",
                             "slowdowns", "overload")
            for p in ("static", "resilient")}

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_identity_property_over_seeds(self, seed):
        point = DesignPoint(TPUV4I)
        requests = RequestGenerator(seed).poisson("cnn0", 2500.0, 0.2)
        if not requests:
            return
        model = FaultModel(seed=seed, chip_mtbf_s=0.1, chip_repair_s=0.05,
                           slowdown_mtbf_s=0.15)
        policy = ClusterPolicy.resilient(
            slo_limit_s=0.005, offered_qps=2500.0, max_batch=8, replicas=3,
            int8_tier=False)
        fast, cold = cluster_both_ways(
            lambda: ClusterSimulator(make_replicas(point, 3), policy),
            requests, faults=model)
        assert fast == cold


class TestGating:
    def test_stats_count_fast_path_only(self, v4i_point, traffic):
        with collecting_metrics() as registry:
            def count(name):
                return registry.counter(f"serving.fastserve.{name}").value

            make_sim(v4i_point).simulate(traffic)
            assert count("replays") == 1
            batches = count("batches")
            assert batches == registry.counter("serving.batches").value > 0
            with reference_paths():
                make_sim(v4i_point).simulate(traffic)
            # The reference loop left no kernel marks.
            assert count("replays") == 1 and count("batches") == batches
            ClusterSimulator(make_replicas(v4i_point, 2)).simulate(traffic)
            assert count("cluster_replays") == 1
            assert count("batches") > batches


class TestSharedCompiles:
    def test_one_compile_per_unique_dtype_step(self, monkeypatch, tmp_path):
        # Identical replicas must share one retargeted compile per
        # (chip, app, dtype, step) through the eval cache — never one
        # per replica — and a second cluster build must compile nothing
        # (its fresh point reads the first one's disk records).
        import repro.core.design_point as design_point
        calls = []
        real = design_point.compile_model

        def counting(module, chip, **kwargs):
            calls.append(module.name)
            return real(module, chip, **kwargs)

        monkeypatch.setattr(design_point, "compile_model", counting)
        previous = set_cache(EvalCache(disk_dir=tmp_path))
        try:
            spec = app_by_name("cnn0")
            policy = ClusterPolicy(
                probe_interval_s=0.005, unhealthy_after=1, ejection_s=1.0,
                tiers=(DegradationTier("int8", max_batch=4, dtype="int8"),),
                degrade_below_healthy=0.6, degrade_after=1, recover_after=99)

            def build():
                # A fresh point each time: only the eval cache is shared.
                return ClusterSimulator.homogeneous(
                    DesignPoint(TPUV4I), spec, BatchPolicy(8, 0.002),
                    Slo(spec.slo_ms / 1e3), 3, policy)

            cluster = build()
            tables = cluster._tier_tables()
            steps = BatchPolicy.batch_steps(8)
            assert len(calls) == len(steps)  # one per step, not per replica
            assert all(t == tables[0] for t in tables)
            # Homogeneous replicas share one latency memo object too.
            sims = cluster.replica_sims
            assert all(s._latency_cache is sims[0]._latency_cache
                       for s in sims)
            calls.clear()
            build()._tier_tables()  # hits the disk tier: zero compiles
            assert calls == []
        finally:
            set_cache(previous)


class TestStatsTypes:
    def test_all_latency_stats_are_floats(self, v4i_point, traffic):
        stats = make_sim(v4i_point).simulate(traffic)
        for field in ("duration_s", "p50_s", "p95_s", "p99_s", "mean_batch",
                      "throughput_qps", "slo_violation_fraction",
                      "availability", "lost_capacity_fraction"):
            assert type(getattr(stats, field)) is float, field
        cstats = ClusterSimulator(make_replicas(v4i_point, 2)).simulate(
            traffic)
        for field in ("duration_s", "p50_s", "p95_s", "p99_s",
                      "availability", "slo_violation_fraction"):
            assert type(getattr(cstats, field)) is float, field
        for rep in cstats.replica_stats:
            assert type(rep.p99_s) is float

    def test_percentile_sorted_matches_percentile(self):
        from repro.serving import percentile, percentile_sorted
        values = [0.004, 0.001, 0.009, 0.002, 0.007, 0.003]
        ordered = sorted(values)
        for q in (1, 50, 95, 99, 100):
            assert percentile_sorted(ordered, q) == percentile(values, q)


class TestFloatRequestApi:
    def test_serving_accepts_bare_timestamps(self, v4i_point, traffic):
        arrivals = [r.arrival_s for r in traffic]
        sim_objects = make_sim(v4i_point).simulate(traffic)
        sim_floats = make_sim(v4i_point).simulate(arrivals)
        assert sim_objects == sim_floats

    def test_cluster_accepts_bare_timestamps(self, v4i_point, traffic):
        arrivals = [r.arrival_s for r in traffic]
        a = ClusterSimulator(make_replicas(v4i_point, 2)).simulate(traffic)
        b = ClusterSimulator(make_replicas(v4i_point, 2)).simulate(arrivals)
        assert a == b

    def test_unsorted_timestamps_rejected(self, v4i_point):
        with pytest.raises(ValueError, match="sorted"):
            make_sim(v4i_point).simulate([0.2, 0.1])

    def test_generator_objects_carry_bulk_arrivals(self):
        requests = RequestGenerator(7).poisson("cnn0", 2000.0, 0.1)
        assert all(isinstance(r, Request) for r in requests)
        assert all(r.tenant == "cnn0" for r in requests)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)


class TestPoissonParity:
    """Vectorized poisson_arrivals vs the scalar loop it replaced."""

    @pytest.mark.parametrize("rate,duration", [
        (2000.0, 0.5),      # well inside one chunk
        (100.0, 0.001),     # empty stream
        (5000.0, 2.0),      # crosses chunk boundaries (4096-gap chunks)
    ])
    def test_values_and_state_match_scalar_loop(self, rate, duration):
        rng = DeterministicRng(17)
        fast = rng.poisson_arrivals(rate, duration)
        ref = DeterministicRng(17)
        mean = 1.0 / rate
        arrivals, now = [], 0.0
        while True:
            now += ref.exponential(mean)
            if now >= duration:
                break
            arrivals.append(now)
        assert fast == arrivals  # same floats, bit for bit
        # ...and the generator stream continues from the same point, so
        # later draws (the next sweep scenario) are unchanged too.
        assert rng.exponential(1.0) == ref.exponential(1.0)

    def test_consecutive_streams_unchanged(self):
        # Two scenarios drawn back-to-back from one generator must see
        # the same stream split as two scalar-loop scenarios would.
        fast = DeterministicRng(23)
        a = fast.poisson_arrivals(3000.0, 0.3)
        b = fast.poisson_arrivals(7500.0, 0.3)  # 2.5x overload scenario
        ref = DeterministicRng(23)
        for expected, (rate, duration) in ((a, (3000.0, 0.3)),
                                           (b, (7500.0, 0.3))):
            mean = 1.0 / rate
            arrivals, now = [], 0.0
            while True:
                now += ref.exponential(mean)
                if now >= duration:
                    break
                arrivals.append(now)
            assert expected == arrivals

    def test_numpy_stream_element_order(self):
        # The vectorized fill consumes the bit stream element-wise in
        # order — the property the rewind logic depends on.
        gen = np.random.default_rng(5)
        block = gen.exponential(1.0, 8)
        gen2 = np.random.default_rng(5)
        singles = [gen2.exponential(1.0) for _ in range(8)]
        assert block.tolist() == singles
