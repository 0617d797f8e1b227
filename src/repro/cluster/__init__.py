"""Cluster-level resilience: replicated serving behind a smart router.

The paper's availability story (Lessons 3 and 9) is about fleets, not
single chips: production inference rides N+k replicated servers behind
a router that probes health, sheds overload, hedges stragglers and
degrades gracefully instead of falling over. This package builds that
layer on top of the single-chip serving simulator, deterministically:

* :mod:`repro.cluster.policy` — :class:`ClusterPolicy` (health checks,
  token-bucket admission, hedging, a :class:`DegradationTier` ladder);
  every knob defaults to off, so the default policy is a passthrough;
* :mod:`repro.cluster.cluster` — :class:`ClusterSimulator`, the shared-
  clock discrete-event loop over N replica simulators, and
  :class:`ClusterStats`, its unique-request accounting;
* :mod:`repro.cluster.sweep` — :func:`chaos_sweep`, protected vs
  unprotected clusters across generations and chaos scenarios (the
  ``repro cluster`` CLI and the ``serve-chaos`` benchmark workload);
* :mod:`repro.cluster.planner` — :func:`plan_resilient_fleet`, N+k
  sizing by simulated availability instead of rule of thumb.

Identity contract: one replica + passthrough policy + no faults is
bit-identical to a plain ``ServingSimulator.simulate`` run, field for
field. The router costs nothing until you turn something on.
"""

from repro.cluster.cluster import ClusterSimulator, ClusterStats
from repro.cluster.planner import (DEFAULT_SIZING_FAULTS, ResilientPlanTrail,
                                   plan_resilient_fleet)
from repro.cluster.policy import ClusterPolicy, DegradationTier
from repro.cluster.sweep import (DEFAULT_SCENARIOS, ChaosRow, ChaosScenario,
                                 chaos_sweep)

__all__ = [
    "ChaosRow",
    "ChaosScenario",
    "ClusterPolicy",
    "ClusterSimulator",
    "ClusterStats",
    "DEFAULT_SCENARIOS",
    "DEFAULT_SIZING_FAULTS",
    "DegradationTier",
    "ResilientPlanTrail",
    "chaos_sweep",
    "plan_resilient_fleet",
]
