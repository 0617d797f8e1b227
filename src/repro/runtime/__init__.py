"""Host runtime: artifacts, loading, and combined execute-and-time serving.

The piece a downstream user actually touches: compile once, save the
artifact, load it on a serving host, and run requests that return both
*answers* (via the functional evaluator) and *latency* (via the timing
simulator) — the two halves of the library joined at one API.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.runtime.artifact": ("CompiledArtifact", "load_artifact",
                               "save_artifact"),
    "repro.runtime.server": ("InferenceServer", "InferenceResult"),
})
