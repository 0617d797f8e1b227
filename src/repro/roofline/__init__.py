"""Roofline model (experiment E7)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.roofline.model": ("Roofline", "RooflinePoint", "chip_roofline",
                             "place_module"),
})
