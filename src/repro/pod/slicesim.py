"""Serve requests through a sharded slice on the shared simulated clock.

:class:`SliceSimulator` is a :class:`~repro.serving.server.
ServingSimulator` whose "chip" is a multi-chip slice: batch latencies
come from replaying the :class:`~repro.pod.sharding.ShardedProgram`
stage graph (compute plus ICI rows) instead of the single-chip program.
Everything else — the event loop, the fastserve replay kernels, the
cluster router — is inherited unchanged, which is what makes the
identity contract cheap to state and strong to hold:

**Identity contract.** A 1-chip slice never builds a shard graph and
never overrides a latency: with zero link faults it runs the exact
code path of the plain simulator and produces bit-identical
:class:`~repro.serving.server.ServingStats` (asserted in
``tests/test_pod.py::TestSliceIdentity``, on both the replay kernels and
the test-only reference event loops).

**Link-fault state machine.** Link timelines (a
:class:`~repro.faults.model.FaultSchedule` with link indices in the
core slot) are *compiled into* an ordinary core-level schedule the
event loop already understands, via a deterministic sweep over the
link-state boundaries:

* torus, dead link, reroute exists -> the degraded shard latency is
  re-priced under the new routes and the window becomes a slowdown on
  every serving lane (factor = degraded / healthy latency);
* torus, slice partitioned -> the window becomes an outage on every
  lane: the slice serves nothing, fails its health probes, and a
  cluster router ejects it;
* OCS -> a dead link costs one slice-wide outage of
  ``topology.ocs_reconfig_s`` while the switch patches a spare
  lightpath (overlapping failures extend the outage: the reconfig
  race), after which routing is whole again; slow links degrade the
  same way as on the torus — the OCS replaces fibers, not bandwidth.

Because the translation happens *before* the event loop runs, the
fastserve kernels, the cluster router's probe/ejection logic, and every
determinism guarantee apply to slices with zero new event-loop code.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.core.design_point import DesignPoint
from repro.faults.model import FaultModel, FaultSchedule
from repro.pod.faults import PodFaultModel
from repro.pod.sharding import ShardedProgram
from repro.pod.topology import PodTopology
from repro.serving.batching import BatchPolicy
from repro.serving import server
from repro.serving.server import (ServingSimulator, ServingStats,
                                  arrival_times, resolve_schedule,
                                  retry_policy)
from repro.serving.slo import Slo
from repro.workloads.generator import Request
from repro.workloads.models import WorkloadSpec


class SliceSimulator(ServingSimulator):
    """One multi-chip slice serving one workload behind one batcher.

    The slice keeps the chip's ``cores`` independent serving lanes —
    each lane runs whole batches through the shard graph, which is the
    conservative reading of a pipeline slice (lanes overlap across
    batches, stages do not overlap within one batch).
    """

    _MEMOS = ServingSimulator._MEMOS + ("_shards", "_state_latency")

    def __init__(self, point: DesignPoint, spec: WorkloadSpec,
                 policy: BatchPolicy, slo: Slo, *,
                 topology: PodTopology,
                 members: Optional[Sequence[int]] = None,
                 parallelism: str = "pipeline",
                 pod_faults: Optional[PodFaultModel] = None) -> None:
        super().__init__(point, spec, policy, slo)
        topology.validate_chip(point.chip)
        self.topology = topology
        self.members = tuple(sorted(members)) if members is not None \
            else tuple(range(topology.num_chips))
        if not self.members:
            raise ValueError("a slice needs at least one member")
        self.parallelism = parallelism
        self.pod_faults = pod_faults
        self._shards: dict[int, ShardedProgram] = {}
        self._state_latency: dict[tuple, Optional[float]] = {}

    # -------------------------------------------------------------- latencies

    @property
    def is_single_chip(self) -> bool:
        return len(self.members) == 1

    def shard(self, padded_batch: int) -> ShardedProgram:
        """The (memoized) shard graph for one padded batch size."""
        shard = self._shards.get(padded_batch)
        if shard is None:
            shard = ShardedProgram.build(
                self.point, self.spec, padded_batch, self.topology,
                members=self.members, parallelism=self.parallelism)
            self._shards[padded_batch] = shard
        return shard

    def shard_latency_s(self, batch: int, dead: frozenset = frozenset(),
                        slow: Optional[Mapping[int, float]] = None,
                        ) -> Optional[float]:
        """Slice batch latency under a link state (memoized; None =
        partitioned). The healthy state is the serving latency table."""
        padded = self.policy.padded_size(batch)
        slow_key = tuple(sorted((slow or {}).items()))
        key = (padded, dead, slow_key)
        if key not in self._state_latency:
            self._state_latency[key] = self.shard(padded).latency_s(
                self.point.chip, dead, slow)
        return self._state_latency[key]

    def batch_latency_s(self, batch: int) -> float:
        """Healthy-links slice latency (single-chip: the plain path).

        Single-chip slices defer to :class:`ServingSimulator` unchanged
        — same memo, same design-point lookups, bit for bit — which is
        the identity contract's foundation. Multi-chip slices replay
        the shard graph once per padded size and share the same memo,
        so ``seed_latencies`` and the fastserve kernels work unchanged.
        """
        if self.is_single_chip:
            return super().batch_latency_s(batch)
        padded = self.policy.padded_size(batch)
        if padded not in self._latency_cache:
            latency = self.shard_latency_s(padded)
            assert latency is not None  # healthy links cannot partition
            self._latency_cache[padded] = latency
        return self._latency_cache[padded]

    def _reference_batch(self) -> int:
        """The padded batch whose latency ratio prices degraded windows."""
        return self.policy.padded_size(self.policy.max_batch)

    # -------------------------------------------------- link-fault translation

    def induced_schedule(self, link_schedule: Optional[FaultSchedule],
                         horizon_s: float,
                         chip_schedule: Optional[FaultSchedule] = None,
                         ) -> Optional[FaultSchedule]:
        """Compile a link timeline into a core-level fault schedule.

        Sweeps the link-state boundary instants (every outage/slowdown
        start and finite end — between boundaries the link state is
        constant, because link intervals are half-open), prices the
        slice latency in each window, and emits slice-wide slowdown or
        outage windows per the state machine in the module docstring.
        ``chip_schedule`` (core/chip faults from a plain
        :class:`FaultModel`) is merged in unchanged. Deterministic: a
        pure function of (link timeline, topology, shard graph).
        """
        if link_schedule is None or link_schedule.is_empty:
            return chip_schedule
        chip_cores = self.point.chip.cores
        num_links = self.topology.num_links
        if link_schedule.cores != num_links:
            raise ValueError(
                f"link schedule built for {link_schedule.cores} links, "
                f"topology has {num_links}")

        down: list = []
        slowdowns: list = []
        ref = self._reference_batch()
        healthy = self.batch_latency_s(ref)
        ocs = self.topology.kind == "ocs"

        if ocs:
            # Dead fiber -> one reconfiguration outage per failure while
            # the switch patches a spare lightpath; overlapping windows
            # (two failures racing one reconfig) extend the outage via
            # outage_end's latest-covering-end rule.
            reconfig = self.topology.ocs_reconfig_s
            if reconfig > 0:
                for _link, start, _end in link_schedule.down:
                    for core in range(chip_cores):
                        down.append((core, start, start + reconfig))
            events = link_schedule.slowdowns
            boundary_set = set()
            for _link, start, end, _factor in events:
                boundary_set.add(start)
                if not math.isinf(end):
                    boundary_set.add(end)
        else:
            boundary_set = set()
            for _link, start, end in link_schedule.down:
                boundary_set.add(start)
                if not math.isinf(end):
                    boundary_set.add(end)
            for _link, start, end, _factor in link_schedule.slowdowns:
                boundary_set.add(start)
                if not math.isinf(end):
                    boundary_set.add(end)

        boundaries = sorted(boundary_set)
        for index, t0 in enumerate(boundaries):
            t1 = boundaries[index + 1] if index + 1 < len(boundaries) \
                else math.inf
            if t1 <= t0:
                continue
            if ocs:
                dead: frozenset = frozenset()
            else:
                dead = frozenset(
                    link for link in range(num_links)
                    if link_schedule.outage_end(link, t0) is not None)
            slow = {}
            for link in range(num_links):
                factor = link_schedule.slowdown_factor(link, t0)
                if factor != 1.0:
                    slow[link] = factor
            if not dead and not slow:
                continue
            latency = self.shard_latency_s(ref, dead, slow)
            if latency is None:
                # Partitioned: the slice serves nothing in this window
                # and fails every health probe inside it.
                for core in range(chip_cores):
                    down.append((core, t0, t1))
            else:
                factor = latency / healthy
                if factor > 1.0:
                    for core in range(chip_cores):
                        slowdowns.append((core, t0, t1, factor))

        if not down and not slowdowns:
            return chip_schedule
        if chip_schedule is not None:
            if chip_schedule.cores != chip_cores:
                raise ValueError(
                    f"chip schedule built for {chip_schedule.cores} cores, "
                    f"chip has {chip_cores}")
            down.extend(chip_schedule.down)
            slowdowns.extend(chip_schedule.slowdowns)
            horizon_s = max(horizon_s, chip_schedule.horizon_s)
        return FaultSchedule(chip_cores, horizon_s, down, slowdowns)

    def realize_schedule(self, horizon_s: float,
                         chip_schedule: Optional[FaultSchedule] = None,
                         ) -> Optional[FaultSchedule]:
        """Realize this slice's pod fault model into a core schedule.

        Draws the model's link timeline over ``horizon_s`` and hands it to
        :meth:`induced_schedule`, merging ``chip_schedule``; with no pod
        fault model, ``chip_schedule`` comes back unchanged.
        :meth:`simulate` calls this. The pod sweep builds its link
        timelines itself and calls :meth:`induced_schedule` directly.
        """
        if self.pod_faults is None:
            return chip_schedule
        link_schedule = self.pod_faults.link_schedule(
            self.topology.num_links, horizon_s)
        return self.induced_schedule(link_schedule, horizon_s, chip_schedule)

    # --------------------------------------------------------------- simulate

    def simulate(self, requests: Sequence[Request],
                 faults: Optional[FaultModel] = None,
                 schedule: Optional[FaultSchedule] = None,
                 tracer=None) -> ServingStats:
        """Serve a request stream through the slice.

        With no pod fault model this *is* ``ServingSimulator.simulate``
        (same call, same bits). With one, the link timeline is realized
        and compiled into the core schedule first; ``faults`` (or the
        model nested in ``pod_faults``) still governs chip-level faults,
        the retry budget and the horizon pad past the last arrival, and
        an explicitly passed ``schedule`` is merged rather than replaced.
        """
        pod = self.pod_faults
        if pod is None:
            return super().simulate(requests, faults, schedule, tracer)
        arrivals = arrival_times(requests)
        if faults is not None:
            chip_model, pad = faults, faults.horizon_pad_s
        else:
            chip_model, pad = pod.chip_faults, pod.horizon_pad_s
        horizon = arrivals[-1] + pad
        chip_schedule = resolve_schedule(schedule, chip_model,
                                         self.point.chip.cores, horizon)
        # The merged schedule is already checked: None, the resolved
        # chip schedule, or a non-empty one built for this chip.
        merged = self.realize_schedule(horizon, chip_schedule)
        return server.replay_serving(self, arrivals, merged,
                                     *retry_policy(chip_model), tracer)
