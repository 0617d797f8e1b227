"""Inter-chip interconnect (ICI) link model.

TPUv2/v3 connect into 2-D torus pods for training; TPUv4i keeps two ICI
links so inference deployments can gang up to four chips for models whose
weights or SLOs exceed one chip. :class:`IciLink` prices one transfer over
one link. The multi-chip pipeline (:mod:`repro.core.multichip`) prices each
inter-stage hop on it, and the pod layer (:mod:`repro.pod.topology`) builds
its torus and OCS topologies from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IciLink:
    """One serial link: bandwidth in bytes/s and fixed hop latency."""

    bandwidth: float
    latency_s: float = 1e-6

    def __post_init__(self) -> None:
        # Validated here, at construction, with the offending value named
        # (the FaultModel convention): a NaN would pass every downstream
        # comparison and poison every latency it touches, a zero or
        # negative bandwidth would turn transfer times into inf/negative
        # seconds deep inside a transfer cost model.
        if math.isnan(self.bandwidth):
            raise ValueError("bandwidth must not be NaN")
        if self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth}")
        if math.isnan(self.latency_s):
            raise ValueError("latency_s must not be NaN")
        if self.latency_s < 0:
            raise ValueError(
                f"latency_s must be non-negative, got {self.latency_s}")

    def transfer_seconds(self, num_bytes: float) -> float:
        if math.isnan(num_bytes):
            raise ValueError("bytes must not be NaN")
        if num_bytes < 0:
            raise ValueError(f"bytes must be non-negative, got {num_bytes}")
        return self.latency_s + num_bytes / self.bandwidth
