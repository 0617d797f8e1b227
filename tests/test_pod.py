"""Pod-scale sharding: topology, link faults, slice identity, chaos.

The contracts under test:

* topology — deterministic dimension-order routing, reroute around dead
  links, honest partition reporting, OCS dead-link transparency, and
  collective costs that follow the ring formulas exactly;
* link faults — seeded, forked, boundary-exact link timelines that
  reuse the pinned FaultSchedule contract with link indices in the core
  slot;
* IR pricing — ICI hops become DMA rows on an appended ``"ici"`` pool,
  visible in the replay byte ledger, never mutating the input program;
* identity — a 1-chip slice with zero link faults is bit-identical to
  the plain ServingSimulator (the foundation the whole layer stands
  on), and the pod chaos sweep reproduces itself byte for byte;
* integration — a dead link degrades a slice's served latency, a
  partitioned slice fails health probes and is ejected by the resilient
  router, and the slice-aware fleet planner prices link-induced slice
  loss into its spare walk.
"""

from __future__ import annotations

import math

import pytest

from repro.arch.chip import TPUV4I
from repro.arch.ici import IciLink
from repro.cluster.cluster import ClusterSimulator
from repro.cluster.planner import plan_resilient_fleet
from repro.cluster.policy import ClusterPolicy
from repro.core.design_point import shared_design_point
from repro.faults.model import FaultModel, FaultSchedule
from repro.pod import (
    PodFaultModel,
    PodTopology,
    ShardedProgram,
    SliceSimulator,
    attach_ici_rows,
    pod_chaos_sweep,
    slice_topology,
)
from repro.pod.sharding import ICI_LEVEL
from repro.serving import server
from repro.serving.batching import BatchPolicy
from repro.serving.server import ServingSimulator
from repro.serving.slo import Slo
from repro.sim.gridkernel import DMA_OVERHEAD_CYCLES
from repro.sim.lowered import FastReplay, lower_program
from repro.workloads.generator import RequestGenerator
from repro.workloads.models import app_by_name

from tests.conftest import reference_paths

GB = 1e9


def make_ring(n: int = 4, kind: str = "torus") -> PodTopology:
    return PodTopology((n,), IciLink(100 * GB, latency_s=1e-6), kind=kind)


def make_slice_sim(topology=None, members=None, max_batch: int = 8,
                   parallelism: str = "pipeline",
                   pod_faults=None) -> SliceSimulator:
    spec = app_by_name("cnn0")
    slo = Slo(spec.slo_ms / 1e3)
    point = shared_design_point(TPUV4I)
    return SliceSimulator(
        point, spec, BatchPolicy(max_batch, slo.limit_s / 4.0), slo,
        topology=topology if topology is not None else make_ring(),
        members=members, parallelism=parallelism, pod_faults=pod_faults)


class TestSliceSeedLatencies:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_inherits_the_non_finite_check(self, bad):
        with pytest.raises(ValueError, match="batch 4 .*finite"):
            make_slice_sim().seed_latencies({4: bad})


class TestTopology:
    def test_coords_roundtrip(self):
        topo = PodTopology((2, 3), IciLink(1 * GB))
        for node in range(topo.num_chips):
            assert topo.node_at(topo.coords(node)) == node

    def test_link_ids_are_dense(self):
        topo = PodTopology((2, 2), IciLink(1 * GB))
        assert topo.num_links == 8  # node * ndims + axis, every node
        assert topo.link_id(3, 1) == 7

    def test_ring_routes_take_the_short_way(self):
        topo = make_ring(4)
        # 0 -> 1 is one forward hop over link 0.
        assert topo.route(0, 1) == (0,)
        # 0 -> 3 is one backward hop over node 3's own link.
        assert topo.route(0, 3) == (3,)

    def test_reroute_around_dead_link(self):
        topo = make_ring(4)
        # 0 -> 1 with link 0 dead: go the long way round (3 hops).
        route = topo.route(0, 1, dead=frozenset({0}))
        assert route == (3, 2, 1)

    def test_partition_reported_as_none(self):
        topo = make_ring(4)
        # Links 0 and 3 both touch node 0: node 0 is isolated.
        assert topo.route(0, 1, dead=frozenset({0, 3})) is None

    def test_ocs_ignores_dead_links(self):
        topo = make_ring(4, kind="ocs")
        assert topo.route(0, 1, dead=frozenset({0, 3})) == (0,)

    def test_all_reduce_matches_ring_formula(self):
        topo = make_ring(4)
        payload = 4096.0
        # 2(p-1) steps of bytes/p chunks over the bottleneck (uniform
        # ring: every pair is one hop).
        expected = 6 * topo.link.transfer_seconds(payload / 4)
        assert topo.all_reduce_seconds(payload) == pytest.approx(expected)

    def test_all_gather_matches_ring_formula(self):
        topo = make_ring(4)
        expected = 3 * topo.link.transfer_seconds(1024.0)
        assert topo.all_gather_seconds(1024.0) == pytest.approx(expected)

    def test_slow_link_raises_collective_cost(self):
        topo = make_ring(4)
        base = topo.all_reduce_seconds(4096.0)
        slow = topo.all_reduce_seconds(4096.0, slow={0: 4.0})
        assert slow > base

    def test_slice_topology_shapes(self):
        ring = slice_topology(TPUV4I, 4)
        assert ring.dims == (4,)  # 2 ICI ports -> 1D ring
        single = slice_topology(TPUV4I, 1)
        assert single.dims == (1,) and single.num_links == 0
        wide = TPUV4I.variant("wide", ici_links=4)
        assert slice_topology(wide, 4).dims == (2, 2)

    def test_chip_port_validation(self):
        topo = PodTopology((2, 2), IciLink(1 * GB))  # needs 4 ports
        with pytest.raises(ValueError):
            topo.validate_chip(TPUV4I)  # TPUv4i has 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            PodTopology((1, 4), IciLink(1 * GB))  # extent-1 axis
        with pytest.raises(ValueError):
            PodTopology((4,), IciLink(1 * GB), kind="mesh")
        with pytest.raises(ValueError):
            PodTopology((4,), IciLink(1 * GB),
                        ocs_reconfig_s=float("nan"))

    def test_routing_is_deterministic(self):
        topo = PodTopology((3, 3), IciLink(1 * GB))
        dead = frozenset({1, 4})
        for src in range(9):
            for dst in range(9):
                assert topo.route(src, dst, dead) == topo.route(src, dst,
                                                                dead)


class TestPodFaultModel:
    def test_defaults_are_zero_fault(self):
        assert PodFaultModel().zero_fault
        assert PodFaultModel().link_schedule(4, 1.0).is_empty

    def test_bad_parameters_name_the_field(self):
        with pytest.raises(ValueError, match="link_mtbf_s"):
            PodFaultModel(link_mtbf_s=0.0)
        with pytest.raises(ValueError, match="link_repair_s"):
            PodFaultModel(link_repair_s=-1.0)
        with pytest.raises(ValueError, match="link_slowdown_factor"):
            PodFaultModel(link_slowdown_factor=0.5)
        with pytest.raises(ValueError, match="must not be NaN"):
            PodFaultModel(link_slowdown_s=float("nan"))

    def test_infinite_slowdown_factor_rejected(self):
        with pytest.raises(ValueError,
                           match="link_slowdown_factor .* got inf"):
            PodFaultModel(link_slowdown_factor=math.inf)

    def test_infinite_slow_link_is_a_value_error(self):
        """A dead-slow link is rejected by name, not an OverflowError."""
        shard = ShardedProgram.build(shared_design_point(TPUV4I),
                                     app_by_name("cnn0"), 8,
                                     slice_topology(TPUV4I, 2))
        with pytest.raises(ValueError, match="hop factor .* got inf"):
            shard.latency_s(TPUV4I, slow={0: math.inf})

    def test_schedule_deterministic(self):
        model = PodFaultModel(seed=3, link_mtbf_s=0.2,
                              link_slowdown_mtbf_s=0.3)
        assert model.link_schedule(4, 2.0) == model.link_schedule(4, 2.0)

    def test_link_streams_independent(self):
        """Adding a link never perturbs an existing link's draws."""
        model = PodFaultModel(seed=3, link_mtbf_s=0.2)
        small = model.link_schedule(2, 2.0)
        large = model.link_schedule(4, 2.0)
        for link in range(2):
            assert ([e for e in small.down if e[0] == link]
                    == [e for e in large.down if e[0] == link])

    def test_fork_for_slice_is_independent(self):
        model = PodFaultModel(seed=3, link_mtbf_s=0.2)
        a = model.fork_for_slice(0).link_schedule(4, 2.0)
        b = model.fork_for_slice(1).link_schedule(4, 2.0)
        assert a != b
        # And reproducible: the fork is a pure function of (seed, index).
        assert a == model.fork_for_slice(0).link_schedule(4, 2.0)


class TestAttachIciRows:
    def _lowered(self):
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        program = point.compiled(spec, 1).program
        return lower_program(program, TPUV4I)

    def test_rows_appended_pre(self):
        """An inbound hop gates the whole program: it shifts by exactly
        the hop's duration, stalled at the hop's wait."""
        lowered = self._lowered()
        replayer = FastReplay(TPUV4I)
        base = replayer.run(lowered)
        link = IciLink(100 * GB, latency_s=1e-6)
        out = attach_ici_rows(lowered, link, [(4096, 1.0)])
        assert out.pools.pool_levels[-1] == ICI_LEVEL
        assert out.pools.level_names[-1] == ICI_LEVEL
        result = replayer.run(out)
        clock = TPUV4I.clock_hz
        hop = (DMA_OVERHEAD_CYCLES + math.ceil(link.latency_s * clock)
               + math.ceil(4096 / link.bandwidth * clock))
        assert result.cycles == base.cycles + hop
        assert (result.counters.sync_stall_cycles
                == base.counters.sync_stall_cycles + hop)
        assert (result.counters.dma_busy_cycles
                == base.counters.dma_busy_cycles + hop)
        assert result.counters.bundles == base.counters.bundles + 1
        assert result.counters.bytes_by_level[ICI_LEVEL] == 4096
        for level, moved in base.counters.bytes_by_level.items():
            assert result.counters.bytes_by_level[level] == moved

    def test_input_not_mutated(self):
        lowered = self._lowered()
        before = FastReplay(TPUV4I).run(lowered)
        attach_ici_rows(lowered, IciLink(100 * GB), [(4096, 1.0)])
        assert ICI_LEVEL not in lowered.pools.pool_levels
        after = FastReplay(TPUV4I).run(lowered)
        assert after == before
        assert ICI_LEVEL not in after.counters.bytes_by_level

    def test_ici_bytes_land_in_the_ledger(self):
        lowered = self._lowered()
        out = attach_ici_rows(lowered, IciLink(100 * GB),
                              [(4096, 1.0), (4096, 2.0)])
        result = FastReplay(TPUV4I).run(out)
        assert result.counters.bytes_by_level[ICI_LEVEL] == 4096 + 8192

    def test_slowdown_factor_scales_duration(self):
        lowered = self._lowered()
        replayer = FastReplay(TPUV4I)
        base = replayer.run(
            attach_ici_rows(lowered, IciLink(1 * GB), [(1 << 20, 1.0)]))
        slow = replayer.run(
            attach_ici_rows(lowered, IciLink(1 * GB), [(1 << 20, 4.0)]))
        assert slow.seconds > base.seconds

    def test_bad_arguments_rejected(self):
        lowered = self._lowered()
        with pytest.raises(ValueError):
            attach_ici_rows(lowered, IciLink(1 * GB), [(1, 1.0)],
                            where="mid")
        with pytest.raises(ValueError):
            attach_ici_rows(lowered, IciLink(1 * GB), [(-1, 1.0)])
        with pytest.raises(ValueError):
            attach_ici_rows(lowered, IciLink(1 * GB), [(1, 0.5)])

    @pytest.mark.parametrize("hops, link, match", [
        ([(1, math.inf)], IciLink(1 * GB), "hop factor .* got inf"),
        ([(1, math.nan)], IciLink(1 * GB), "hop factor .* got nan"),
        ([(math.inf, 1.0)], IciLink(1 * GB), "hop bytes .* got inf"),
        ([(math.nan, 1.0)], IciLink(1 * GB), "hop bytes .* got nan"),
        ([(1, 1.0)], IciLink(1 * GB, latency_s=math.inf),
         "latency_s must be finite, got inf"),
    ], ids=["inf-factor", "nan-factor", "inf-bytes", "nan-bytes",
            "inf-latency"])
    def test_non_finite_inputs_rejected(self, hops, link, match):
        with pytest.raises(ValueError, match=match):
            attach_ici_rows(self._lowered(), link, hops)


class TestShardedProgram:
    def test_pipeline_build(self):
        point = shared_design_point(TPUV4I)
        shard = ShardedProgram.build(point, app_by_name("cnn0"), 4,
                                     make_ring(4))
        assert shard.parallelism == "pipeline"
        assert 1 < len(shard.stage_lowereds) <= 4
        assert shard.inbound_bytes[0] == 0
        assert all(b > 0 for b in shard.inbound_bytes[1:])

    def test_degraded_latency_exceeds_healthy(self):
        point = shared_design_point(TPUV4I)
        shard = ShardedProgram.build(point, app_by_name("cnn0"), 4,
                                     make_ring(4))
        healthy = shard.latency_s(TPUV4I)
        rerouted = shard.latency_s(TPUV4I, dead=frozenset({0}))
        assert healthy is not None and rerouted is not None
        assert rerouted > healthy

    def test_partitioned_latency_is_none(self):
        point = shared_design_point(TPUV4I)
        shard = ShardedProgram.build(point, app_by_name("cnn0"), 4,
                                     make_ring(4))
        assert shard.latency_s(TPUV4I, dead=frozenset({0, 3})) is None

    def test_tensor_mode_all_gathers_the_root(self):
        point = shared_design_point(TPUV4I)
        shard = ShardedProgram.build(point, app_by_name("cnn0"), 8,
                                     make_ring(4), parallelism="tensor")
        assert len(shard.stage_lowereds) == 1
        assert shard.shard_output_bytes > 0
        assert shard.latency_s(TPUV4I) is not None

    def test_single_member_has_no_ici_rows(self):
        point = shared_design_point(TPUV4I)
        shard = ShardedProgram.build(point, app_by_name("cnn0"), 4,
                                     slice_topology(TPUV4I, 1))
        stages = shard.realized_stages()
        assert len(stages) == 1
        assert ICI_LEVEL not in stages[0].pools.pool_levels

    def test_bad_arguments_rejected(self):
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        with pytest.raises(ValueError):
            ShardedProgram.build(point, spec, 4, make_ring(4),
                                 parallelism="expert")
        with pytest.raises(ValueError):
            ShardedProgram.build(point, spec, 0, make_ring(4))
        with pytest.raises(ValueError):
            ShardedProgram.build(point, spec, 4, make_ring(4),
                                 members=(0, 0))
        with pytest.raises(ValueError):
            ShardedProgram.build(point, spec, 4, make_ring(4),
                                 members=(0, 9))


class TestSliceIdentity:
    """The identity contract: 1 chip + zero link faults == plain sim."""

    def _pair(self):
        spec = app_by_name("cnn0")
        slo = Slo(spec.slo_ms / 1e3)
        point = shared_design_point(TPUV4I)
        policy = BatchPolicy(8, slo.limit_s / 4.0)
        plain = ServingSimulator(point, spec, policy, slo)
        sliced = SliceSimulator(point, spec, policy, slo,
                                topology=slice_topology(TPUV4I, 1))
        return plain, sliced

    def test_single_chip_latencies_identical(self):
        plain, sliced = self._pair()
        for batch in (1, 2, 4, 8):
            assert sliced.batch_latency_s(batch) \
                == plain.batch_latency_s(batch)

    def test_single_chip_stats_bit_identical(self):
        plain, sliced = self._pair()
        requests = RequestGenerator(17).poisson("cnn0", 400, 0.5)
        assert sliced.simulate(requests) == plain.simulate(requests)

    def test_single_chip_identity_on_reference_paths(self):
        plain, sliced = self._pair()
        requests = RequestGenerator(17).poisson("cnn0", 400, 0.5)
        fast = plain.simulate(requests)
        with reference_paths():
            assert sliced.simulate(requests) == plain.simulate(requests) \
                == fast

    def test_zero_fault_pod_model_bit_identical(self):
        plain, sliced = self._pair()
        sliced.pod_faults = PodFaultModel(seed=5)
        requests = RequestGenerator(17).poisson("cnn0", 400, 0.5)
        assert sliced.simulate(requests) == plain.simulate(requests)

    def test_multi_chip_zero_fault_simulate_matches_plain_call(self):
        """With no pod faults, SliceSimulator.simulate IS the parent
        call — multi-chip latencies differ, but the path is shared."""
        sim = make_slice_sim(pod_faults=PodFaultModel(seed=5))
        requests = RequestGenerator(17).poisson("cnn0", 400, 0.5)
        bare = make_slice_sim()
        assert sim.simulate(requests) == bare.simulate(requests)


class TestLinkFaultTranslation:
    def test_dead_link_becomes_slice_slowdown(self):
        sim = make_slice_sim()
        links = sim.topology.num_links
        schedule = FaultSchedule(links, 2.0, down=[(0, 0.5, 1.0)])
        induced = sim.induced_schedule(schedule, 2.0)
        assert induced is not None and not induced.down
        cores = sim.point.chip.cores
        assert len(induced.slowdowns) == cores
        core, start, end, factor = induced.slowdowns[0]
        assert (start, end) == (0.5, 1.0)
        assert factor > 1.0

    def test_partition_becomes_slice_outage(self):
        sim = make_slice_sim()
        links = sim.topology.num_links
        schedule = FaultSchedule(links, 2.0,
                                 down=[(0, 0.5, 1.0), (3, 0.5, 1.0)])
        induced = sim.induced_schedule(schedule, 2.0)
        cores = sim.point.chip.cores
        assert len(induced.down) == cores
        assert induced.down[0][1:] == (0.5, 1.0)

    def test_ocs_dead_link_becomes_reconfig_outage(self):
        sim = make_slice_sim(topology=make_ring(4, kind="ocs"))
        links = sim.topology.num_links
        schedule = FaultSchedule(links, 2.0, down=[(0, 0.5, 1.5)])
        induced = sim.induced_schedule(schedule, 2.0)
        cores = sim.point.chip.cores
        assert len(induced.down) == cores
        core, start, end = induced.down[0]
        assert start == 0.5
        assert end == pytest.approx(0.5 + sim.topology.ocs_reconfig_s)

    def test_chip_schedule_merged_unchanged(self):
        sim = make_slice_sim()
        cores = sim.point.chip.cores
        chip = FaultSchedule(cores, 2.0, down=[(0, 0.1, 0.2)])
        links = sim.topology.num_links
        link = FaultSchedule(links, 2.0, down=[(0, 0.5, 1.0)])
        induced = sim.induced_schedule(link, 2.0, chip_schedule=chip)
        assert (0, 0.1, 0.2) in induced.down
        assert len(induced.slowdowns) == cores

    def test_wrong_link_count_rejected(self):
        sim = make_slice_sim()
        with pytest.raises(ValueError):
            sim.induced_schedule(FaultSchedule(2, 1.0,
                                               down=[(0, 0.0, 0.5)]), 1.0)


class TestSliceFaultHorizon:
    def test_passed_model_pad_sets_the_horizon(self, monkeypatch):
        """An explicit ``faults`` model's own pad, not the pod model's
        (1 s with no nested chip model), extends the drawn schedule."""
        seen = []
        replay = server.replay_serving

        def spy(sim, arrivals, schedule, *rest):
            seen.append(schedule)
            return replay(sim, arrivals, schedule, *rest)

        monkeypatch.setattr(server, "replay_serving", spy)
        sim = make_slice_sim(pod_faults=PodFaultModel(seed=5))
        faults = FaultModel(seed=3, core_mtbf_s=0.5, horizon_pad_s=5.0)
        sim.simulate([0.0, 0.005, 0.01], faults)
        assert len(seen) == 1 and seen[0] is not None
        assert seen[0].horizon_s == 5.01


class TestClusterIntegration:
    def _cluster(self, schedules_for):
        spec = app_by_name("cnn0")
        slo = Slo(spec.slo_ms / 1e3)
        sims = [make_slice_sim() for _ in range(3)]
        for sim in sims[1:]:
            sim._latency_cache = sims[0]._latency_cache
            sim._shards = sims[0]._shards
            sim._state_latency = sims[0]._state_latency
        requests = RequestGenerator(23).rng.poisson_arrivals(3000.0, 0.5)
        horizon = requests[-1] + 1.0
        schedules = schedules_for(sims, horizon)
        policy = ClusterPolicy.resilient(
            slo_limit_s=slo.limit_s, offered_qps=3000.0, max_batch=8,
            replicas=3, int8_tier=True)
        return ClusterSimulator(sims, policy).simulate(
            requests, schedules=schedules)

    def test_partitioned_slice_is_ejected(self):
        def schedules_for(sims, horizon):
            links = sims[0].topology.num_links
            link = FaultSchedule(links, horizon,
                                 down=[(0, 0.0, math.inf),
                                       (3, 0.0, math.inf)])
            return [sims[0].induced_schedule(link, horizon), None, None]
        stats = self._cluster(schedules_for)
        assert stats.ejections >= 1
        assert stats.availability >= 0.97

    def test_degraded_slice_keeps_serving(self):
        def schedules_for(sims, horizon):
            links = sims[0].topology.num_links
            link = FaultSchedule(links, horizon,
                                 down=[(0, 0.0, math.inf)])
            return [sims[0].induced_schedule(link, horizon), None, None]
        stats = self._cluster(schedules_for)
        assert stats.availability >= 0.97
        assert stats.served_requests > 0


class TestPodChaosSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return pod_chaos_sweep(seed=2, duration_s=0.3)

    def test_deterministic(self, rows):
        assert rows == pod_chaos_sweep(seed=2, duration_s=0.3)

    def test_covers_the_grid(self, rows):
        kinds = {(r.topology, r.scenario, r.policy) for r in rows}
        assert len(kinds) == 2 * 5 * 2  # {torus, ocs} x scenarios x policies

    def test_kill_one_link_resilient_availability(self, rows):
        cells = [r.stats.availability for r in rows
                 if r.scenario == "kill-1-link" and r.policy == "resilient"]
        assert cells and min(cells) >= 0.97

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            pod_chaos_sweep(duration_s=0.0)
        with pytest.raises(ValueError):
            pod_chaos_sweep(slices=1)
        with pytest.raises(ValueError):
            pod_chaos_sweep(slice_chips=1)
        with pytest.raises(ValueError):
            pod_chaos_sweep(utilization=1.5)


class TestSliceAwarePlanner:
    def test_trail_reports_slice_chips_and_slice_spares(self):
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        plan, trail = plan_resilient_fleet(point, spec, 20000.0,
                                           slice_chips=4, duration_s=0.5)
        assert trail.slice_chips == 4
        assert plan.spare_chips % 4 == 0
        assert len(trail.points) >= 1

    def test_slice_walk_deterministic(self):
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        first = plan_resilient_fleet(point, spec, 20000.0,
                                     slice_chips=4, duration_s=0.5)
        second = plan_resilient_fleet(point, spec, 20000.0,
                                      slice_chips=4, duration_s=0.5)
        assert first == second

    def test_link_faults_cost_availability(self):
        """The same fleet needs at least as many spares once the fabric
        can partition slices (k=0 availability drops)."""
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        _, chips_only = plan_resilient_fleet(point, spec, 20000.0,
                                             duration_s=0.5)
        _, sliced = plan_resilient_fleet(point, spec, 20000.0,
                                         slice_chips=4, duration_s=0.5)
        assert sliced.points[0][1] <= chips_only.points[0][1]

    def test_default_path_unchanged(self):
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        implicit = plan_resilient_fleet(point, spec, 20000.0,
                                        duration_s=0.5)
        explicit = plan_resilient_fleet(point, spec, 20000.0,
                                        slice_chips=1, duration_s=0.5)
        assert implicit == explicit
