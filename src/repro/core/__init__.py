"""The TPUv4i design point and the exploration that produced it.

``DesignPoint`` is the library's top-level convenience API: one object
tying a chip config and a compiler release together, with cached
compile+simulate evaluation of workloads. ``dse`` re-derives the TPUv4i
configuration from the ten lessons: sweep MXU count, CMEM capacity, and
clock under the air-cooling TDP ceiling, and watch the paper's choice
(one big core, 4 MXUs, 128 MiB CMEM) sit on the Pareto frontier.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.core.design_point": ("DesignPoint", "Evaluation",
                                "shared_design_point"),
    "repro.core.dse": ("DesignCandidate", "cmem_sweep",
                       "enumerate_candidates", "evaluate_candidate",
                       "evaluate_candidates", "pareto_frontier"),
    "repro.core.multichip": ("MultiChipReport", "PipelineDeployment",
                             "StageReport", "partition_module"),
})
