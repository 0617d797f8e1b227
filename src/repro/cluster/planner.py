"""Policy-aware N+k sizing: pick spares by simulated availability.

``plan_fleet(spare_chips=k)`` prices an N+k fleet but takes ``k`` on
faith. :func:`plan_resilient_fleet` closes the loop: it simulates the
actual cluster — router policy, health checks, failover and all — under
a fault model for k = 0, 1, ... and returns the *cheapest* plan whose
simulated availability clears the target. The k it lands on is the
paper's availability engineering done quantitatively instead of by the
rule of thumb "add one spare".

Large fleets are simulated as a proportional slice (default at most
``max_simulated_replicas`` serving replicas with traffic scaled to
match) so the decision stays cheap while preserving the N:k ratio that
drives availability.

With ``slice_chips > 1`` a "replica" is a multi-chip sharded slice
(:class:`~repro.pod.slicesim.SliceSimulator`): k walks over *slices*,
every spare costs ``slice_chips`` chips, and the availability each k is
judged on includes link-failure-induced slice loss — a partitioned
slice fails its health probes and drops out exactly like a dead chip,
so the planner prices ICI fragility instead of assuming the fabric is
perfect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.cluster import ClusterSimulator
from repro.cluster.policy import ClusterPolicy
from repro.core.design_point import DesignPoint
from repro.engine import grid
from repro.faults.model import FaultModel
from repro.serving.batching import BatchPolicy
from repro.serving.fleet import FleetPlan, plan_fleet
from repro.serving.server import ServingSimulator
from repro.serving.slo import Slo
from repro.workloads.generator import RequestGenerator
from repro.workloads.models import WorkloadSpec

#: Default fault pressure for sizing: a couple of chip-scale outages
#: per simulated second of traffic — harsh enough that k=0 usually
#: fails the target and the spare count actually matters.
DEFAULT_SIZING_FAULTS = FaultModel(seed=0, chip_mtbf_s=0.5,
                                   chip_repair_s=0.25)


def default_sizing_pod_faults() -> "object":
    """Link-fault pressure matching :data:`DEFAULT_SIZING_FAULTS`:
    a couple of link outages per simulated second, so slice loss from
    the fabric is visible in the k walk (imported lazily to keep the
    planner import-light for slice_chips == 1 callers)."""
    from repro.pod.faults import PodFaultModel
    return PodFaultModel(seed=0, link_mtbf_s=0.5, link_repair_s=0.25)


@dataclass(frozen=True)
class ResilientPlanTrail:
    """The k -> availability curve the planner walked (for reporting)."""

    workload: str
    chip: str
    availability_target: float
    points: tuple  # ((k, simulated availability), ...)
    slice_chips: int = 1  # >1: each replica is a sharded slice


def plan_resilient_fleet(point: DesignPoint, spec: WorkloadSpec,
                         target_qps: float, *,
                         slo: Optional[Slo] = None,
                         availability_target: float = 0.99,
                         max_spares: int = 3,
                         faults: Optional[FaultModel] = None,
                         policy: Optional[ClusterPolicy] = None,
                         duration_s: float = 1.0,
                         seed: int = 0,
                         peak_headroom: float = 1.4,
                         max_simulated_replicas: int = 4,
                         slice_chips: int = 1,
                         pod_faults=None,
                         ) -> tuple[FleetPlan, ResilientPlanTrail]:
    """Size N+k by simulating the cluster until availability clears.

    Returns the plan for the smallest k in ``0..max_spares`` whose
    cluster-simulated availability under ``faults`` reaches
    ``availability_target`` — or the ``max_spares`` plan (with its
    measured availability attached) when none does, so the caller can
    see exactly how far short the fleet falls. Deterministic: the same
    arguments always walk the same trail.

    ``slice_chips > 1`` makes every replica a sharded
    :class:`~repro.pod.slicesim.SliceSimulator` slice: k counts spare
    *slices* (``k * slice_chips`` spare chips in the returned plan) and
    each slice additionally suffers ``pod_faults`` link failures
    (default :func:`default_sizing_pod_faults`), forked per slice —
    so a link-partitioned slice costs availability exactly like a dead
    replica and the walk prices the fabric, not just the chips.
    """
    if not 0.0 < availability_target <= 1.0:
        raise ValueError("availability_target must be in (0, 1]")
    if max_spares < 0:
        raise ValueError("max_spares must be non-negative")
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ValueError(
            f"duration must be positive and finite, got {duration_s!r}")
    if slice_chips < 1:
        raise ValueError("slice_chips must be >= 1")
    limit = slo if slo is not None else Slo(spec.slo_ms / 1e3)
    model = faults if faults is not None else DEFAULT_SIZING_FAULTS

    # One batched grid evaluation warms every (batch -> latency, qps,
    # power) record the sizing below consults: plan_fleet's SLO ladder
    # walk and its chosen-batch evaluation, plus every plan_fleet call
    # in the k loop, all become cache hits.
    grid.evaluate_jobs([grid.GridJob(point, spec, batch)
                        for batch in (1, 2, 4, 8, 16, 32, 64, 128, 256)])

    base = plan_fleet(point, spec, target_qps, slo=limit,
                      peak_headroom=peak_headroom)
    serving = base.serving_chips
    # Simulate a proportional slice of big fleets: same N:k pressure,
    # bounded cost. Traffic scales with the slice.
    sim_serving = min(serving, max_simulated_replicas)
    sim_qps = target_qps * sim_serving / serving
    batch_policy = BatchPolicy(max_batch=base.slo_batch,
                               max_wait_s=limit.limit_s / 4.0)
    traffic = RequestGenerator(seed * 104_729 + 1)
    requests = traffic.poisson(spec.name, max(sim_qps, 1.0), duration_s)

    sliced = slice_chips > 1
    if sliced:
        from repro.pod.faults import PodFaultModel
        from repro.pod.slicesim import SliceSimulator
        from repro.pod.topology import slice_topology
        from repro.util.rng import DeterministicRng
        topo = slice_topology(point.chip, slice_chips)
        pod_model: PodFaultModel = (
            pod_faults if pod_faults is not None
            else default_sizing_pod_faults())
        horizon = requests[-1].arrival_s + model.horizon_pad_s
        chip_root = DeterministicRng(model.seed)

        def sliced_cluster(n: int, cluster_policy):
            """n slice replicas sharing memos + per-slice schedules.

            Chip faults fork per replica with the cluster's own salt
            (the timelines replica i would have drawn anyway) and each
            slice's link faults fork independently; both compile into
            one core schedule per slice.
            """
            from repro.cluster.cluster import _REPLICA_SALT
            sims = [SliceSimulator(point, spec, batch_policy, limit,
                                   topology=topo) for _ in range(n)]
            for sim in sims[1:]:
                sim._latency_cache = sims[0]._latency_cache
                sim._shards = sims[0]._shards
                sim._state_latency = sims[0]._state_latency
            schedules = []
            for i, sim in enumerate(sims):
                chip_schedule = None
                if not model.zero_fault:
                    forked = replace(
                        model, seed=chip_root.fork(_REPLICA_SALT + i).seed)
                    chip_schedule = forked.schedule(
                        point.chip.cores, horizon)
                    if chip_schedule.is_empty:
                        chip_schedule = None
                link_schedule = pod_model.fork_for_slice(i).link_schedule(
                    topo.num_links, horizon)
                schedules.append(sim.induced_schedule(
                    link_schedule, horizon, chip_schedule))
            return ClusterSimulator(sims, cluster_policy), schedules

    trail: list[tuple[int, float]] = []
    chosen: Optional[FleetPlan] = None
    for k in range(max_spares + 1):
        n = sim_serving + k
        cluster_policy = (policy if policy is not None
                          else ClusterPolicy.resilient(
                              slo_limit_s=limit.limit_s,
                              offered_qps=max(sim_qps, 1.0),
                              max_batch=base.slo_batch,
                              replicas=n,
                              int8_tier=point.chip.supports_dtype("int8")))
        if sliced:
            cluster, schedules = sliced_cluster(n, cluster_policy)
            stats = cluster.simulate(requests, faults=model,
                                     schedules=schedules)
        else:
            cluster = ClusterSimulator.homogeneous(
                point, spec, batch_policy, limit, n,
                cluster_policy=cluster_policy)
            stats = cluster.simulate(requests, faults=model)
        trail.append((k, stats.availability))
        if stats.availability >= availability_target:
            chosen = replace(
                plan_fleet(point, spec, target_qps, slo=limit,
                           peak_headroom=peak_headroom,
                           spare_chips=k * slice_chips),
                simulated_availability=stats.availability)
            break
    if chosen is None:
        chosen = replace(
            plan_fleet(point, spec, target_qps, slo=limit,
                       peak_headroom=peak_headroom,
                       spare_chips=max_spares * slice_chips),
            simulated_availability=trail[-1][1])
    return chosen, ResilientPlanTrail(
        workload=spec.name, chip=point.chip.name,
        availability_target=availability_target, points=tuple(trail),
        slice_chips=slice_chips)
