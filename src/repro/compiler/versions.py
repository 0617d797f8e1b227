"""Compiler releases over time (the Lesson 2 performance-from-software figure).

The paper shows the same hardware getting substantially faster over ~15
months purely from compiler releases. We model each release as a feature
set; the pipeline consults the features, so compiling one workload across
RELEASES reproduces the gain curve (experiment E9).

Features:
    fusion        elementwise/epilogue fusion (eliminates round-trips)
    cmem_alloc    weight placement in CMEM (before it: weights from HBM!)
    good_tiling   VMEM-filling M-chunks instead of one-MXU-row chunks
    prefetch      DMA for chunk i+1 issued during compute of chunk i
    dual_issue    denser VLIW packing (vector ops beside matmuls)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

ALL_FEATURES: FrozenSet[str] = frozenset(
    {"fusion", "cmem_alloc", "good_tiling", "prefetch", "dual_issue"})


@dataclass(frozen=True)
class CompilerVersion:
    """One compiler release."""

    name: str
    months_after_launch: int
    features: FrozenSet[str]

    def __post_init__(self) -> None:
        # An exact int keeps equal releases' fingerprints equal (the
        # fingerprint is memoised per release value).
        if type(self.months_after_launch) is not int:
            raise ValueError("months_after_launch must be an int, got "
                             f"{self.months_after_launch!r}")
        unknown = self.features - ALL_FEATURES
        if unknown:
            raise ValueError(f"unknown compiler features: {sorted(unknown)}")
        if self.months_after_launch < 0:
            raise ValueError("months_after_launch must be non-negative")

    def has(self, feature: str) -> bool:
        if feature not in ALL_FEATURES:
            raise KeyError(f"unknown feature {feature!r}")
        return feature in self.features


# The release train: bring-up compiler at launch, roughly one feature per
# quarter after. Names are "vYYYY.Q".
RELEASES: Tuple[CompilerVersion, ...] = (
    CompilerVersion("v2020.1", 0, frozenset()),
    CompilerVersion("v2020.2", 3, frozenset({"cmem_alloc"})),
    CompilerVersion("v2020.3", 6, frozenset({"cmem_alloc", "fusion"})),
    CompilerVersion("v2020.4", 9, frozenset({"cmem_alloc", "fusion",
                                             "good_tiling"})),
    CompilerVersion("v2021.1", 12, frozenset({"cmem_alloc", "fusion",
                                              "good_tiling", "prefetch"})),
    CompilerVersion("v2021.2", 15, ALL_FEATURES),
)

LATEST: CompilerVersion = RELEASES[-1]

_BY_NAME: Dict[str, CompilerVersion] = {v.name: v for v in RELEASES}


def release_by_name(name: str) -> CompilerVersion:
    """Look up a release (``"v2021.2"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(v.name for v in RELEASES)
        raise KeyError(f"unknown release {name!r}; known: {known}") from None
