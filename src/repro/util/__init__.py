"""Shared utilities: units, deterministic RNG, and ASCII table rendering.

These helpers are deliberately dependency-light; everything above them in the
stack (``repro.arch``, ``repro.sim``, the benchmarks) uses them to keep
unit handling and report formatting consistent.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.util.units": ("GHZ", "GIB", "KIB", "MHZ", "MIB", "GIGA", "KILO",
                         "MEGA", "MICRO", "MILLI", "NANO", "TERA", "Frequency",
                         "bytes_str", "count_str", "seconds_str"),
    "repro.util.rng": ("DeterministicRng",),
    "repro.util.tables": ("Table",),
})

__all__ = [
    "GHZ",
    "GIB",
    "KIB",
    "MHZ",
    "MIB",
    "GIGA",
    "KILO",
    "MEGA",
    "MICRO",
    "MILLI",
    "NANO",
    "TERA",
    "Frequency",
    "DeterministicRng",
    "Table",
    "bytes_str",
    "count_str",
    "seconds_str",
]
