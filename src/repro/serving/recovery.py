"""KV-cache checkpointing for continuous batching, priced in the IR.

PR 9 made generative fault semantics deliberately lossy: KV caches are
core-resident, so a mid-step kill destroys the generated prefix of
every active sequence on the core and survivors re-prefill from
scratch, while a permanent outage drops its whole round-robin
substream. The training-supercomputer retrospective (PAPERS.md) makes
checkpoint-based recovery and *goodput* — useful work over total work —
the centerpiece of resilience at scale; this module gives the
generative layer the same tools the rest of the stack already has
(PR 5 fleet failover, PR 8 slice reroute).

:class:`RecoveryPolicy` configures three mechanisms the continuous
batching simulator (:mod:`repro.serving.continuous`) executes:

* **Every-k-token snapshots** — after each ``checkpoint_every`` decode
  tokens a sequence's KV cache is copied HBM → host. The copy is *real
  phase-program work*: :func:`snapshot_lowered` builds a
  :class:`~repro.sim.lowered.LoweredProgram` from two serialized DMA
  chains — one HBM read per cached K/V tensor per layer (exactly how
  the decode graph's cache parameters stream), then a host write
  attached via ``attach_ici_rows`` on a synthetic :data:`HOST_LEVEL`
  pool. :class:`~repro.sim.lowered.FastReplay` prices it through the
  timing engine, so snapshot bytes land in the same
  ``bytes_by_level`` traffic ledger as HBM and ICI traffic and the
  checkpoint interval becomes a measurable latency-vs-recovery knob,
  not a magic constant.
* **Delta re-prefill** — a killed sequence with a snapshot resumes by
  reloading the snapshot (host → HBM, priced with the same program:
  the transfer is byte-symmetric) and re-prefilling only the generated
  suffix the snapshot missed, at the suffix's prompt bucket, instead
  of re-running its whole prompt and regenerating every token.
* **Migration** — on a permanent core death, pending and
  retry-admissible active sequences rebalance round-robin to surviving
  cores instead of being dropped wholesale.

A ``checkpoint_every=0`` policy snapshots nothing, and under zero
faults the simulator's float operations are bit-identical to running
with no policy (asserted in
``tests/test_recovery.py::TestZeroCheckpointIdentity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.chip import ChipConfig
from repro.arch.ici import IciLink
from repro.core.design_point import DesignPoint
from repro.isa.program import Program
from repro.pod.sharding import attach_ici_rows
from repro.serving.batching import BatchPolicy
from repro.sim.lowered import FastReplay, LoweredProgram, lower_program
from repro.workloads.generative import GenerativeSpec

__all__ = [
    "DEFAULT_HOST_LINK",
    "HOST_LEVEL",
    "RecoveryPolicy",
    "snapshot_lowered",
    "snapshot_replay",
    "snapshot_seconds",
    "snapshot_latency_table",
]

#: Ledger name of the synthetic chip↔host DMA pool snapshots write to.
HOST_LEVEL = "host"

#: Host attach for KV offload: PCIe gen3 x16-class bandwidth with a
#: microsecond-scale doorbell, deliberately far below any generation's
#: HBM bandwidth so the host hop — not the HBM read — dominates
#: snapshot cost, as it does in real disaggregated KV serving.
DEFAULT_HOST_LINK = IciLink(bandwidth=16e9, latency_s=5e-6)


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a continuous-batching engine checkpoints and recovers.

    ``checkpoint_every=0`` (the default) disables snapshots entirely —
    combined with an empty fault schedule this is the configuration
    contractually bit-identical to the plain simulator. ``migrate``
    governs only permanent core deaths; temporary kills always retry on
    the owning core. ``host_link`` prices the HBM↔host hop.
    """

    checkpoint_every: int = 0
    migrate: bool = True
    host_link: IciLink = DEFAULT_HOST_LINK

    def __post_init__(self) -> None:
        every = self.checkpoint_every
        if not isinstance(every, int) or isinstance(every, bool):
            raise ValueError(
                f"checkpoint_every must be an int, got {every!r}")
        if every < 0:
            raise ValueError(
                f"checkpoint_every must be non-negative, got {every}")

    @property
    def checkpointing(self) -> bool:
        """True when the policy takes snapshots at all."""
        return self.checkpoint_every > 0

    def describe(self) -> str:
        every = (f"every {self.checkpoint_every} tokens"
                 if self.checkpointing else "never")
        return (f"RecoveryPolicy: snapshot {every}, "
                f"migration {'on' if self.migrate else 'off'}, host link "
                f"{self.host_link.bandwidth / 1e9:.3g} GB/s")


# ------------------------------------------------------------- snapshot cost

def snapshot_lowered(chip: ChipConfig, spec: GenerativeSpec, kv_bucket: int,
                     batch: int, *,
                     host_link: IciLink = DEFAULT_HOST_LINK,
                     dtype_bytes: int = 2) -> LoweredProgram:
    """The lowered program of one KV snapshot step (HBM read + host write).

    Two serialized DMA chains on an empty program: first one HBM read
    per cached K/V tensor per layer — the same ``(batch, kv, hidden)``
    parameter tensors the decode graph streams every step — each waited
    for in order (the host transfer consumes them in order), then the
    total payload crossing the host link as a single hop on the
    :data:`HOST_LEVEL` pool. Restore is the same program read backward
    (host → HBM): the byte counts are symmetric, so one pricing serves
    both directions.
    """
    if not 1 <= kv_bucket < math.inf:
        raise ValueError(
            f"kv_bucket must be a finite number >= 1, got {kv_bucket!r}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if dtype_bytes < 1:
        raise ValueError(f"dtype_bytes must be >= 1, got {dtype_bytes}")
    per_tensor = batch * kv_bucket * spec.hidden * dtype_bytes
    empty = Program(f"{spec.name}.kv_snapshot@{kv_bucket}x{batch}",
                    generation=chip.generation)
    # The chip's real HBM pool, so the reads price like compiled DMAs.
    lowered = lower_program(empty, chip).with_dma_chain(
        "hbm", [per_tensor] * (2 * spec.layers))  # K and V, every layer
    total = 2 * spec.layers * per_tensor
    return attach_ici_rows(lowered, host_link, [(total, 1.0)],
                           where="post", level=HOST_LEVEL)


def snapshot_replay(point: DesignPoint, spec: GenerativeSpec, kv_bucket: int,
                    batch: int, *,
                    host_link: IciLink = DEFAULT_HOST_LINK,
                    dtype: Optional[str] = None):
    """Replay one snapshot step; returns the full ``SimResult``.

    The result's ``bytes_by_level`` ledger carries the HBM read bytes
    and the :data:`HOST_LEVEL` write bytes — tests and the profiler
    read them the same way they read any phase program's traffic.
    """
    chip = point.chip
    if dtype is None:
        dtype = chip.native_dtype
    dtype_bytes = 1 if dtype == "int8" else 2
    lowered = snapshot_lowered(chip, spec, kv_bucket, batch,
                               host_link=host_link, dtype_bytes=dtype_bytes)
    return FastReplay(chip).run(lowered, dtype=dtype)


def snapshot_seconds(point: DesignPoint, spec: GenerativeSpec,
                     kv_bucket: int, batch: int, *,
                     host_link: IciLink = DEFAULT_HOST_LINK,
                     dtype: Optional[str] = None) -> float:
    """Latency of one snapshot (or restore) step in seconds."""
    return snapshot_replay(point, spec, kv_bucket, batch,
                           host_link=host_link, dtype=dtype).seconds


def snapshot_latency_table(point: DesignPoint, spec: GenerativeSpec,
                           slots: int, *,
                           host_link: IciLink = DEFAULT_HOST_LINK,
                           dtype: Optional[str] = None,
                           ) -> Dict[Tuple[str, int, int], float]:
    """("snapshot", kv bucket, padded batch) -> seconds, for seeding.

    The snapshot companion of
    :func:`repro.serving.continuous.phase_latency_table`: every
    reachable KV bucket (``spec.reachable_kv_buckets``) at every padded
    batch step, so a checkpointing simulator over sampled traffic is
    fully seeded and the chaos sweeps stay pure functions of their
    arguments. A deeper snapshot or restore is priced on first use by
    the simulator, in the same native dtype.
    """
    table: Dict[Tuple[str, int, int], float] = {}
    for bucket in spec.reachable_kv_buckets:
        for step in BatchPolicy.batch_steps(slots):
            table[("snapshot", bucket, step)] = snapshot_seconds(
                point, spec, bucket, step, host_link=host_link, dtype=dtype)
    return table
