"""Shared utilities: units, deterministic RNG, and ASCII table rendering.

These helpers are deliberately dependency-light; everything above them in the
stack (``repro.arch``, ``repro.sim``, the benchmarks) uses them to keep
unit handling and report formatting consistent.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.util.units": ("GHZ", "GIB", "KIB", "MHZ", "MIB", "GIGA", "KILO",
                         "MEGA", "MICRO", "MILLI", "NANO", "TERA"),
    "repro.util.rng": ("DeterministicRng",),
    "repro.util.tables": ("Table",),
})
