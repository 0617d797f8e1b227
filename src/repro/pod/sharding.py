"""Shard a compiled program across a slice, priced by the timing engine.

A :class:`ShardedProgram` partitions one workload over the members of a
:class:`~repro.pod.topology.PodTopology` slice and prices the resulting
inter-chip traffic **inside the timing engine** — ICI transfers become a
DMA chain on a synthetic ``"ici"`` pool appended to the lowered program,
so :class:`~repro.sim.lowered.FastReplay` (and anything built on it)
prices compute and interconnect together, deterministically, with the
ICI bytes landing in the same per-level traffic ledger as HBM and CMEM.

Two parallelism modes:

* ``"pipeline"`` — :func:`~repro.core.multichip.partition_module`
  splits the HLO module into FLOPs-balanced stages, one per member;
  each stage's inbound boundary activations become a store-and-forward
  hop chain (one DMA per link hop) prepended to the stage program.
  When the module has fewer layers than the slice has members, the
  partitioner falls back to the largest stage count that works — the
  remaining members simply hold no stage.
* ``"tensor"`` — batch-axis sharding: every member compiles the model
  at ``ceil(batch / p)`` and the root output shards are ring
  all-gathered at the end, priced as ``p - 1`` synchronous steps of the
  slowest neighbor route. (A width-wise Megatron-style weight split
  would need per-op shape rewrites across layer boundaries; the batch
  axis gives the same traffic/compute tradeoff shape with the compiler
  this repo actually has, and is labelled honestly here.)

The latency model is conservative: a batch's latency is the *sum* of
stage replays (no inter-stage pipelining within one batch) — successive
batches still overlap across a slice's serving lanes exactly as they do
on one chip. Dead and slow links enter through ``dead``/``slow``
arguments at realization time: routes re-resolve around dead links
(torus) and per-hop bytes scale by the slowdown factor, so a degraded
slice's latency is a pure deterministic function of its link state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.arch.chip import ChipConfig
from repro.arch.ici import IciLink
from repro.compiler.pipeline import compile_model
from repro.core.design_point import DesignPoint
from repro.core.multichip import partition_module
from repro.engine.modules import built_module
from repro.pod.topology import PodTopology
from repro.sim.lowered import FastReplay, LoweredProgram, lower_program
from repro.workloads.models import WorkloadSpec

#: Name of the synthetic DMA pool ICI transfers are priced on.
ICI_LEVEL = "ici"

_PARALLELISMS = ("pipeline", "tensor")


def attach_ici_rows(lowered: LoweredProgram, link: IciLink,
                    hop_transfers: Sequence[tuple],
                    where: str = "pre",
                    level: str = ICI_LEVEL) -> LoweredProgram:
    """Price hop transfers as a serialized DMA chain on a link pool.

    ``hop_transfers`` is a sequence of ``(num_bytes, factor)`` pairs —
    one store-and-forward link hop each, ``factor`` the link's slowdown
    multiplier (1.0 when healthy). Each hop becomes one DMA (bytes
    scaled by the factor) that the next hop waits for, so hops serialize
    exactly like the analytic store-and-forward model. ``where="pre"``
    puts the chain before the program (inbound activations gate the
    first bundle); ``"post"`` after its last instruction (a closing
    collective).

    ``level`` names the pool the bytes are ledgered under:
    :data:`ICI_LEVEL` for inter-chip hops (the default), or another
    level such as the KV-recovery subsystem's ``"host"`` pool
    (:data:`repro.serving.recovery.HOST_LEVEL`) for chip↔host offload
    traffic priced over a PCIe-class link. A level the program has no
    pool for is added with the link's bandwidth and latency.

    The returned program is a new :class:`LoweredProgram`; the input is
    never mutated.
    """
    if where not in ("pre", "post"):
        raise ValueError(f"where must be 'pre' or 'post', got {where!r}")
    if not hop_transfers:
        return lowered
    if not math.isfinite(link.latency_s):
        raise ValueError(
            f"link latency_s must be finite, got {link.latency_s}")
    for num_bytes, factor in hop_transfers:
        if not (math.isfinite(num_bytes) and num_bytes >= 0):
            raise ValueError(f"hop bytes must be finite and non-negative, "
                             f"got {num_bytes}")
        if not (math.isfinite(factor) and factor >= 1.0):
            raise ValueError(f"hop factor must be finite and >= 1, "
                             f"got {factor}")
    return lowered.with_dma_chain(
        level, [int(math.ceil(num_bytes * factor))
                for num_bytes, factor in hop_transfers],
        where=where, bandwidth=link.bandwidth, latency_s=link.latency_s)


def _feasible_stages(module, limit: int) -> tuple:
    """Partition into at most ``limit`` stages, backing off when the
    module is too small (the partitioner raises on an empty stage)."""
    for count in range(limit, 0, -1):
        try:
            return partition_module(module, count)
        except ValueError:
            if count == 1:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class ShardedProgram:
    """One workload batch partitioned across a slice (immutable).

    Built by :meth:`build`; holds the per-stage lowered programs
    *without* ICI transfers plus the transfer metadata needed to realize them
    under any link state. ``stage_nodes[i]`` is the topology node
    hosting stage ``i``; ``inbound_bytes[i]`` the boundary activation
    traffic entering it (pipeline mode; always 0 for stage 0).
    """

    spec_name: str
    batch: int
    parallelism: str
    members: tuple
    topology: PodTopology
    stage_lowereds: tuple
    stage_nodes: tuple
    inbound_bytes: tuple
    shard_output_bytes: int = 0  # tensor mode: per-member root shard

    @classmethod
    def build(cls, point: DesignPoint, spec: WorkloadSpec, batch: int,
              topology: PodTopology,
              members: Optional[Sequence[int]] = None,
              parallelism: str = "pipeline") -> "ShardedProgram":
        """Partition ``spec`` at ``batch`` across ``members`` (default:
        every chip in the topology) and lower each shard for the chip.
        """
        if parallelism not in _PARALLELISMS:
            raise ValueError(
                f"parallelism must be one of {_PARALLELISMS}, "
                f"got {parallelism!r}")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        group = tuple(sorted(members)) if members is not None \
            else tuple(range(topology.num_chips))
        if not group:
            raise ValueError("a slice needs at least one member")
        if len(set(group)) != len(group):
            raise ValueError("slice members must be distinct")
        for member in group:
            if not 0 <= member < topology.num_chips:
                raise ValueError(
                    f"member {member} outside 0..{topology.num_chips - 1}")
        topology.validate_chip(point.chip)
        chip = point.chip
        p = len(group)

        if p == 1:
            compiled = point.compiled(spec, batch)
            lowered = lower_program(compiled.program, chip)
            return cls(spec_name=spec.name, batch=batch,
                       parallelism=parallelism, members=group,
                       topology=topology, stage_lowereds=(lowered,),
                       stage_nodes=(group[0],), inbound_bytes=(0,))

        if parallelism == "tensor":
            sub_batch = math.ceil(batch / p)
            compiled = point.compiled(spec, sub_batch)
            lowered = lower_program(compiled.program, chip)
            shard_bytes = compiled.module.root.shape.byte_size
            return cls(spec_name=spec.name, batch=batch,
                       parallelism=parallelism, members=group,
                       topology=topology, stage_lowereds=(lowered,),
                       stage_nodes=(group[0],), inbound_bytes=(0,),
                       shard_output_bytes=shard_bytes)

        module = built_module(spec, batch)
        stages, boundaries = _feasible_stages(module, p)
        lowereds = []
        for stage in stages:
            compiled = compile_model(stage, chip, version=point.version)
            lowereds.append(lower_program(compiled.program, chip))
        return cls(spec_name=spec.name, batch=batch,
                   parallelism=parallelism, members=group,
                   topology=topology, stage_lowereds=tuple(lowereds),
                   stage_nodes=group[:len(stages)],
                   inbound_bytes=tuple(boundaries))

    # ----------------------------------------------------------- realization

    def ring_pairs(self) -> tuple:
        """Consecutive neighbor pairs of the member ring (sorted order)."""
        return tuple(self.topology._ring_pairs(self.members))

    def realized_stages(self, dead: frozenset = frozenset(),
                        slow: Optional[Mapping[int, float]] = None,
                        ) -> Optional[tuple]:
        """The stage programs with ICI transfers for the given link state.

        Routes re-resolve under ``dead`` (the OCS variant ignores dead
        links — its switch patched them); per-hop bytes scale by the
        link's ``slow`` factor. Returns ``None`` when any required route
        is cut: the slice is partitioned and cannot serve at all.
        """
        topo = self.topology
        link = topo.link
        slow = slow or {}

        if self.parallelism == "tensor" and len(self.members) > 1:
            p = len(self.members)
            best_route: Optional[tuple] = None
            best_cost = -1.0
            for src, dst in self.ring_pairs():
                route = topo.route(src, dst, dead)
                if route is None:
                    return None
                cost = topo.path_seconds(route, self.shard_output_bytes, slow)
                if cost > best_cost:
                    best_cost, best_route = cost, route
            hops = [(self.shard_output_bytes, float(slow.get(lid, 1.0)))
                    for lid in best_route] * (p - 1)
            return (attach_ici_rows(self.stage_lowereds[0], link, hops,
                                    where="post"),)

        realized = []
        for index, lowered in enumerate(self.stage_lowereds):
            if index > 0:
                route = topo.route(self.stage_nodes[index - 1],
                                   self.stage_nodes[index], dead)
                if route is None:
                    return None
                hops = [(self.inbound_bytes[index],
                         float(slow.get(lid, 1.0))) for lid in route]
                lowered = attach_ici_rows(lowered, link, hops, where="pre")
            realized.append(lowered)
        return tuple(realized)

    def latency_s(self, chip: ChipConfig, dead: frozenset = frozenset(),
                  slow: Optional[Mapping[int, float]] = None,
                  ) -> Optional[float]:
        """Batch latency through the shard graph under a link state.

        Sum of per-stage replay seconds (conservative: one batch does
        not pipeline across its own stages). ``None`` means partitioned.
        """
        stages = self.realized_stages(dead, slow)
        if stages is None:
            return None
        replayer = FastReplay(chip)
        return sum(replayer.run(stage).seconds for stage in stages)

    def describe(self) -> str:
        return (f"{self.spec_name}@{self.batch} {self.parallelism} over "
                f"{len(self.members)} members of {self.topology.describe()}"
                f" ({len(self.stage_lowereds)} stage programs)")
