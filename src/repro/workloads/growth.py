"""DNN growth model (Lesson 5: models grow ~1.5x per year).

The lesson's consequence for hardware is concrete: a chip designed for
today's SOTA model must run a ~2.3x bigger one by the time it has been
deployed two years — so TPUv4i over-provisioned memory capacity/bandwidth
relative to its launch workloads. :class:`GrowthModel` projects compute
and parameter growth; the published sizes below anchor the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

ANNUAL_GROWTH = 1.5


# Milestone language/vision models, (year, parameters in millions). Public
# checkpoints chosen to bracket 2015-2020 (the TPUv1->v4i span).
PUBLISHED_MODEL_SIZES: Tuple[Tuple[str, int, float], ...] = (
    ("ResNet-50", 2015, 25.6),
    ("GNMT", 2016, 278.0),
    ("Transformer-big", 2017, 213.0),
    ("BERT-large", 2018, 340.0),
    ("GPT-2", 2019, 1500.0),
    ("T5-3B", 2020, 3000.0),
)


@dataclass(frozen=True)
class GrowthModel:
    """Exponential growth projection ``size(year) = base * rate^(year-year0)``."""

    base_year: int
    base_size: float
    annual_rate: float = ANNUAL_GROWTH

    def __post_init__(self) -> None:
        if self.base_size <= 0:
            raise ValueError("base size must be positive")
        if self.annual_rate <= 1.0:
            raise ValueError("growth model expects a rate > 1")

    def size_at(self, year: float) -> float:
        """Projected size at ``year`` (same unit as ``base_size``)."""
        return self.base_size * self.annual_rate ** (year - self.base_year)


def fitted_growth_rate() -> float:
    """Geometric-mean annual growth implied by the published milestones.

    The paper's 1.5x/year is a *memory/compute demand* trend; the raw
    parameter-count trend of headline models is in fact faster, which is
    the point the benchmark prints (the lesson is, if anything,
    conservative).
    """
    first_name, first_year, first_size = PUBLISHED_MODEL_SIZES[0]
    last_name, last_year, last_size = PUBLISHED_MODEL_SIZES[-1]
    span = last_year - first_year
    return (last_size / first_size) ** (1.0 / span)
