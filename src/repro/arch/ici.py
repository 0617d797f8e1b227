"""Inter-chip interconnect (ICI) model.

TPUv2/v3 connect into 2-D torus pods for training; TPUv4i keeps two ICI
links so inference deployments can gang up to four chips for models whose
weights or SLOs exceed one chip. The model prices the point-to-point
transfers the multi-chip pipeline uses and the per-chip weight shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.chip import ChipConfig


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


class IciNetwork:
    """A ring of ``num_chips`` identical chips (TPUv4i's deployment shape).

    Raises at construction if the chip has no ICI links (TPUv1 was a
    single-chip PCIe accelerator).
    """

    def __init__(self, chip: ChipConfig, num_chips: int) -> None:
        if num_chips < 1:
            raise ValueError("need at least one chip")
        if num_chips > 1 and chip.ici_links == 0:
            raise ValueError(f"{chip.name} has no ICI links; cannot build a ring")
        self.chip = chip
        self.num_chips = num_chips
        self.link = IciLink(chip.ici_link_bw) if chip.ici_links else None

    def point_to_point_seconds(self, num_bytes: float, hops: int = 1) -> float:
        """Time to move bytes ``hops`` ring-hops away (store-and-forward)."""
        if self.num_chips == 1 or hops == 0:
            return 0.0
        assert self.link is not None
        if hops < 0 or hops > self.num_chips // 2:
            raise ValueError(f"hops must be in [0, {self.num_chips // 2}]")
        return hops * self.link.transfer_seconds(num_bytes)

    def sharded_weight_bytes(self, total_weight_bytes: float) -> float:
        """Per-chip weight footprint when a model is sharded over the ring."""
        if total_weight_bytes < 0:
            raise ValueError("bytes must be non-negative")
        return math.ceil(total_weight_bytes / self.num_chips)
