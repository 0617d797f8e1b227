"""Cluster protection policies: health checks, admission, hedging, tiers.

A :class:`ClusterPolicy` declares what the router is allowed to do when
replicas misbehave. Every knob defaults to *off*, so a default policy is
a pure passthrough: a one-replica cluster under it is bit-identical to a
plain :class:`~repro.serving.server.ServingSimulator` run (the identity
contract asserted in ``tests/test_cluster.py::TestPassthroughIdentity``).

Four independent protections:

* **health checks** — replicas are probed every ``probe_interval_s`` of
  simulated time; ``unhealthy_after`` consecutive failed probes eject a
  replica (its queued requests fail over to healthy peers), and after
  ``ejection_s`` it re-enters through a half-open probe: one success
  re-admits it, one failure re-ejects it.
* **admission control** — a token bucket (``admission_rate_qps`` refill,
  ``admission_burst`` capacity) plus per-replica queue-depth
  backpressure (``max_queue_depth``) shed requests *at arrival*, before
  they can blow the SLO for everyone else.
* **hedging** — a request whose projected completion exceeds
  ``hedge_delay_s`` past its arrival is re-issued once on a second
  healthy replica; the first response wins and the loser is accounted
  (cancelled if still queued, wasted if already in flight).
* **graceful degradation** — under sustained overload or a shrunken
  fleet, the cluster steps down a declared ladder of
  :class:`DegradationTier`\\ s (smaller max batch, then an
  int8-retargeted compile) and steps back up when pressure clears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


def _check_finite(name: str, value: float, ok: bool, bound: str) -> None:
    """Reject ``value`` unless it is finite and ``ok``, naming the field."""
    if not (math.isfinite(value) and ok):
        raise ValueError(f"{name} must be {bound} and finite, got {value!r}")


@dataclass(frozen=True)
class DegradationTier:
    """One rung of the degradation ladder.

    ``max_batch`` overrides the batching policy's cap (``None`` keeps
    it); ``dtype`` selects the latency model (``None`` keeps the
    replica's default path, ``"int8"`` swaps in the retargeted compile
    from the PR 3 migration path — smaller, faster batches at reduced
    precision).
    """

    name: str
    max_batch: Optional[int] = None
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a degradation tier needs a name")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("tier max_batch must be >= 1")
        if self.dtype is not None and self.dtype not in ("bf16", "int8"):
            raise ValueError(f"unsupported tier dtype {self.dtype!r}")


@dataclass(frozen=True)
class ClusterPolicy:
    """Router configuration. Defaults are a pure passthrough.

    ``probe_interval_s=None`` disables health checking entirely (the
    "static" router of the chaos sweep); with probing on but no faults,
    probes always succeed and never perturb serving — the identity
    contract holds either way.
    """

    #: Health checking (None disables probing).
    probe_interval_s: Optional[float] = None
    unhealthy_after: int = 2
    ejection_s: float = 0.2

    #: Admission control (None disables the token bucket / depth check).
    admission_rate_qps: Optional[float] = None
    admission_burst: float = 32.0
    max_queue_depth: Optional[int] = None

    #: Hedging (None disables).
    hedge_delay_s: Optional[float] = None

    #: Degradation ladder beyond the implicit tier 0 (= no override).
    tiers: tuple = ()
    degrade_below_healthy: float = 0.0   # healthy fraction threshold
    degrade_above_queue: Optional[int] = None  # total queued threshold
    degrade_after: int = 2    # consecutive bad probe windows to step down
    recover_after: int = 4    # consecutive good windows to step up

    def __post_init__(self) -> None:
        probe, rate, hedge = (self.probe_interval_s, self.admission_rate_qps,
                              self.hedge_delay_s)
        if probe is not None:
            _check_finite("probe_interval_s", probe, probe > 0, "positive")
        if self.unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        _check_finite("ejection_s", self.ejection_s, self.ejection_s >= 0,
                      "non-negative")
        if rate is not None:
            _check_finite("admission_rate_qps", rate, rate > 0, "positive")
        _check_finite("admission_burst", self.admission_burst,
                      self.admission_burst >= 1, ">= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if hedge is not None:
            _check_finite("hedge_delay_s", hedge, hedge >= 0, "non-negative")
        for tier in self.tiers:
            if not isinstance(tier, DegradationTier):
                raise ValueError("tiers must be DegradationTier instances")
        if not 0.0 <= self.degrade_below_healthy <= 1.0:
            raise ValueError("degrade_below_healthy must be in [0, 1]")
        if (self.degrade_above_queue is not None
                and self.degrade_above_queue < 1):
            raise ValueError("degrade_above_queue must be >= 1")
        if self.degrade_after < 1 or self.recover_after < 1:
            raise ValueError("degrade_after/recover_after must be >= 1")

    @property
    def probes(self) -> bool:
        """True when health checking is active."""
        return self.probe_interval_s is not None

    @property
    def hedges(self) -> bool:
        """True when request hedging is active."""
        return self.hedge_delay_s is not None

    @property
    def degrades(self) -> bool:
        """True when a degradation ladder is declared."""
        return bool(self.tiers)

    @classmethod
    def static(cls) -> "ClusterPolicy":
        """The unprotected router: route by queue length, nothing else.

        The chaos sweep's control arm — what an N+k fleet looks like
        when nobody built the resilience layer.
        """
        return cls()

    @classmethod
    def resilient(cls, *, slo_limit_s: float, offered_qps: float,
                  max_batch: int, replicas: int,
                  probe_interval_s: Optional[float] = None,
                  int8_tier: bool = True) -> "ClusterPolicy":
        """A full-protection policy scaled to one traffic scenario.

        Probes at a quarter of the SLO budget, ejects after two failed
        probes, admits up to 1.5x the offered rate (so normal traffic is
        never shed), backpressures at 8 full batches per replica, hedges
        requests projected to miss the SLO, and declares a two-rung
        degradation ladder (half batch, then int8 at half batch).
        """
        if slo_limit_s <= 0:
            raise ValueError("slo_limit_s must be positive")
        if offered_qps <= 0:
            raise ValueError("offered_qps must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        half = max(1, max_batch // 2)
        tiers = [DegradationTier("half-batch", max_batch=half)]
        if int8_tier:
            tiers.append(
                DegradationTier("int8-half-batch", max_batch=half,
                                dtype="int8"))
        interval = (probe_interval_s if probe_interval_s is not None
                    else max(slo_limit_s / 4.0, 1e-4))
        return cls(
            probe_interval_s=interval,
            unhealthy_after=2,
            ejection_s=4.0 * interval,
            admission_rate_qps=1.5 * offered_qps,
            admission_burst=max(2.0 * max_batch * replicas, 8.0),
            max_queue_depth=8 * max_batch,
            hedge_delay_s=slo_limit_s,
            tiers=tuple(tiers),
            degrade_below_healthy=0.5 + 1e-9,
            degrade_above_queue=max(4 * max_batch * replicas, 8),
        )
