"""Backwards ML compatibility (Lesson 10)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.mlcompat.checker": ("CompatCheck", "check_numerics_match",
                               "deployment_readiness",
                               "model_numerics_match"),
})
