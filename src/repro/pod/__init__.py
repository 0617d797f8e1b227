"""Pod-scale sharded serving: topology, link faults, slices, chaos.

The pod layer composes the existing stacks one level up: a
:class:`~repro.pod.topology.PodTopology` prices ICI routes, a
:class:`~repro.pod.sharding.ShardedProgram` partitions a compiled
workload across a slice (interconnect priced as lowered-IR rows, so the
replay kernels apply), a
:class:`~repro.pod.slicesim.SliceSimulator` serves through the shard
graph on the shared simulated clock, and
:func:`~repro.pod.sweep.pod_chaos_sweep` drives slices through
link/slice fault scenarios under both cluster router policies.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.pod.faults": ("PodFaultModel",),
    "repro.pod.sharding": ("ICI_LEVEL", "ShardedProgram", "attach_ici_rows"),
    "repro.pod.slicesim": ("SliceSimulator",),
    "repro.pod.sweep": ("DEFAULT_POD_SCENARIOS", "PodChaosRow", "PodScenario",
                        "pod_chaos_sweep"),
    "repro.pod.topology": ("DEFAULT_OCS_RECONFIG_S", "PodTopology",
                           "slice_topology"),
})
