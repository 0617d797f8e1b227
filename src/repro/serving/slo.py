"""Service-level objectives and percentile math."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np


def _rank(pct: float, n: int) -> int:
    """Zero-based index of the nearest-rank ``pct`` percentile of ``n``."""
    return max(1, math.ceil(pct / 100.0 * n)) - 1


def percentile_sorted(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an **already sorted** sample.

    The indexing half of :func:`percentile`: callers that need several
    percentiles of one sample sort once and index repeatedly instead of
    paying an O(n log n) sort per query. Same float-coercion contract.
    """
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    return float(ordered[_rank(pct, len(ordered))])


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the convention serving dashboards use).

    Always returns a ``float``, regardless of the element type of
    ``values`` — callers compare percentiles against float SLO limits
    and feed them into float arithmetic, so an int sample must not leak
    an int out.

    >>> percentile([1, 2, 3, 4], 50)
    2.0
    """
    return percentile_sorted(sorted(values), pct)


def largest_batch_within(latencies: Mapping[int, float], limit_s: float,
                         fallback: int) -> int:
    """Lesson 9: the largest batch whose compute latency fits ``limit_s``.

    ``latencies`` maps batch size -> latency; a batch fits when its
    latency is ``<=`` the limit. ``fallback`` is returned when none
    does: traffic sweeps size their load at batch 1 so no generation is
    silently skipped, while the ``max_*`` probes report 0.
    """
    return max((batch for batch, latency in latencies.items()
                if latency <= limit_s), default=fallback)


def slo_capacity(latencies: Mapping[int, float], slo: "Slo",
                 cores: int) -> float:
    """Requests per second one chip sustains at its Lesson 9 batch.

    The sizing every traffic sweep uses: the largest batch meeting
    ``slo`` (batch 1 when none does) run back to back on ``cores``
    cores, ``cores * batch / latency``.
    """
    batch = largest_batch_within(latencies, slo.limit_s, 1)
    return cores * batch / latencies[batch]


def check_load(duration_s: float, utilization: float) -> None:
    """Reject a traffic sweep's load before anything is priced.

    The duration must be positive and finite and the utilization (a
    fraction of SLO capacity) in (0, 1]; NaN fails both. Each error
    names the value.
    """
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ValueError(
            f"duration must be positive and finite, got {duration_s!r}")
    if not 0 < utilization <= 1:
        raise ValueError(
            f"utilization must be in (0, 1], got {utilization!r}")


@dataclass(frozen=True)
class Slo:
    """A latency SLO: ``pct`` of requests must finish within ``limit_s``."""

    limit_s: float
    pct: float = 99.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.limit_s) and self.limit_s > 0):
            raise ValueError(f"SLO limit_s must be positive and finite, "
                             f"got {self.limit_s!r}")
        if not 0 < self.pct <= 100:
            raise ValueError("SLO percentile must be in (0, 100]")

    def violation_fraction(self, latencies_s: Sequence[float]) -> float:
        """Fraction of requests over the limit.

        An empty sample has **zero violations** by definition (0 of 0
        requests were late), never a ZeroDivisionError.
        """
        if not latencies_s:
            return 0.0
        over = sum(1 for l in latencies_s if l > self.limit_s)
        return over / len(latencies_s)

    def summarize(self, latencies_s: Sequence[float]
                  ) -> Tuple[float, float, float, float]:
        """``(p50, p95, p99, violation fraction)`` of an unsorted sample.

        The same nearest-rank order statistics :func:`percentile` picks
        and the same count :meth:`violation_fraction` makes, in O(n):
        one ``np.partition`` at the three ranks instead of a full sort.
        An empty sample summarizes to zeros, as the serving stats report
        it (no request served, none late).
        """
        n = len(latencies_s)
        if not n:
            return 0.0, 0.0, 0.0, 0.0
        ranks = [_rank(pct, n) for pct in (50, 95, 99)]
        values = np.asarray(latencies_s, dtype=np.float64)
        p50, p95, p99 = np.partition(values, ranks)[ranks].tolist()
        over = int(np.count_nonzero(values > self.limit_s))
        return p50, p95, p99, over / n
