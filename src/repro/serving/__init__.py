"""Inference serving models (Lesson 9: latency limits batch; Lesson 4:
multi-tenancy).

A discrete-event serving simulator drives the chip simulator with
synthetic request streams: dynamic batching under an SLO shows how the
latency budget — never an architectural cap — picks the batch size, and
the multi-tenant scheduler quantifies weight-swap costs vs CMEM
partitioning when several models share one chip.

Failures are first-class: ``ServingSimulator.simulate`` accepts a
seeded :class:`~repro.faults.model.FaultModel` (lost batches are
retried on surviving cores under a budget), and :func:`plan_fleet`
sizes N+k fleets whose SLO holds with ``k`` chips failed. Request
conservation is a :class:`ServingStats` constructor invariant —
``requests == served + dropped + shed`` — so no accounting path can
silently lose a request.

One level up, :mod:`repro.cluster` replicates this simulator N ways
behind a health-checked router (admission control, hedging, graceful
degradation) and sizes N+k by *simulated* availability instead of rule
of thumb; a one-replica passthrough cluster is bit-identical to a plain
``ServingSimulator`` run.

Generative models get their own loop: :mod:`repro.serving.continuous`
admits decode *iterations* (not whole requests) into per-core slots —
continuous batching — with the SLO split into TTFT and per-token
budgets, driven by the prefill/decode phase programs in
:mod:`repro.workloads.generative`. Its fault story is checkpointed:
:mod:`repro.serving.recovery` prices every-k-token KV snapshots as
lowered-IR DMA programs, so killed sequences resume from their last
snapshot (delta re-prefill), permanently dead cores migrate their
queues to survivors, and :class:`ContinuousStats` reports goodput —
useful tokens over computed tokens.

Unlike the other packages, this one re-exports eagerly. It is the entry
module of the ``llm-chaos`` benchmark workload, which reads
``serving.llm_chaos_sweep`` inside its timed call; lazy exports would
only move the import of the continuous-batching stack out of setup and
into that call.
"""

from repro.serving.slo import Slo, percentile, percentile_sorted
from repro.serving.batching import BatchPolicy
from repro.serving.server import ServingSimulator, ServingStats
from repro.serving.fleet import FleetPlan, plan_fleet
from repro.serving.priority import TwoTierServer, TwoTierStats
from repro.serving.multitenancy import (
    Tenant,
    MultiTenantSim,
    MultiTenantStats,
    TenantWindowStats,
    partition_cmem,
)
from repro.serving.continuous import (
    ContinuousBatchingSimulator,
    ContinuousStats,
    GenerativeSlo,
    LlmChaosRow,
    LlmSweepRow,
    llm_chaos_sweep,
    llm_sweep,
    phase_latency_table,
)
from repro.serving.recovery import (
    DEFAULT_HOST_LINK,
    HOST_LEVEL,
    RecoveryPolicy,
    snapshot_latency_table,
    snapshot_lowered,
    snapshot_replay,
    snapshot_seconds,
)

__all__ = [
    "Slo",
    "percentile",
    "percentile_sorted",
    "BatchPolicy",
    "ServingSimulator",
    "ServingStats",
    "FleetPlan",
    "TwoTierServer",
    "TwoTierStats",
    "plan_fleet",
    "Tenant",
    "MultiTenantSim",
    "MultiTenantStats",
    "TenantWindowStats",
    "partition_cmem",
    "ContinuousBatchingSimulator",
    "ContinuousStats",
    "GenerativeSlo",
    "LlmChaosRow",
    "LlmSweepRow",
    "llm_chaos_sweep",
    "llm_sweep",
    "phase_latency_table",
    "DEFAULT_HOST_LINK",
    "HOST_LEVEL",
    "RecoveryPolicy",
    "snapshot_latency_table",
    "snapshot_lowered",
    "snapshot_replay",
    "snapshot_seconds",
]
