"""Dynamic batching policy.

Serving systems accumulate requests and launch a batch when either it is
full or its oldest member has waited long enough. Both knobs trade
throughput (MXU utilization grows with batch) against latency (waiting +
longer batch compute) — the tension Lesson 9 resolves in favour of the
latency SLO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

_BATCH_STEPS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic batcher configuration.

    Attributes:
        max_batch: hard cap on batch size.
        max_wait_s: launch a partial batch once its oldest request has
            waited this long.
    """

    max_batch: int
    max_wait_s: float

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not (math.isfinite(self.max_wait_s) and self.max_wait_s >= 0):
            raise ValueError(f"max_wait_s must be non-negative and finite, "
                             f"got {self.max_wait_s!r}")

    def padded_size(self, actual: int) -> int:
        """Batch size the accelerator actually runs (padded to a step).

        Compiled programs exist per batch size, so partial batches pad up
        to the next power-of-two step — wasted work the latency model
        charges honestly.
        """
        if actual < 1:
            raise ValueError("batch must be >= 1")
        capped = min(actual, self.max_batch)
        for step in _BATCH_STEPS:
            if step >= capped:
                return min(step, self.max_batch)
        return self.max_batch

    @staticmethod
    def batch_steps(max_batch: int) -> Tuple[int, ...]:
        """The compiled batch sizes needed to serve up to ``max_batch``."""
        steps = [s for s in _BATCH_STEPS if s <= max_batch]
        if not steps or steps[-1] != max_batch:
            steps.append(max_batch)
        return tuple(steps)
