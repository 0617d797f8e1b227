"""Timing model of a weight-stationary systolic matrix unit (MXU).

The MXU computes ``A[m,k] @ W[k,n]`` by loading a ``d x d`` tile of ``W``
into the array and streaming rows of ``A`` through it. The model captures
the effects that matter for the paper's arguments:

* pipeline fill/drain (~2d cycles per tile) penalizes small matmuls — this is
  why small batch hurts utilization but, per Lesson 9, latency (not batch) is
  the real limiter;
* weight-tile reload costs ``d`` cycles unless hidden by the double-buffered
  weight FIFO, which it is whenever a tile streams at least ``d`` rows;
* int8 runs the array at 1x the MAC rate on TPUv4i (same array, narrower
  operands) but halves the bytes moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.chip import ChipConfig


@dataclass(frozen=True)
class MatmulTiming:
    """Cycle breakdown of one matmul on one core's MXUs.

    Attributes:
        cycles: total occupancy cycles of the MXU pipeline.
        ideal_cycles: lower bound with perfect utilization.
        tiles: number of ``d x d`` weight tiles processed.
        weight_load_cycles: cycles spent (un-hidden) loading weight tiles.
        utilization: ideal_cycles / cycles, in (0, 1].
        macs: multiply-accumulates performed.
    """

    cycles: int
    ideal_cycles: int
    tiles: int
    weight_load_cycles: int
    utilization: float
    macs: int


class MxuModel:
    """Timing for matmuls on the MXUs of one TensorCore."""

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip
        self.dim = chip.mxu_dim
        self.arrays = chip.mxus_per_core

    def matmul(self, m: int, k: int, n: int) -> MatmulTiming:
        """Cycles to compute ``[m,k] @ [k,n]`` across this core's MXUs.

        Tiles over K and N; the K-tiles of one N-column accumulate in place.
        The ``arrays`` MXUs split the tile grid evenly (the compiler shards
        the N dimension); a remainder tile still costs a full pass.
        """
        if m <= 0 or k <= 0 or n <= 0:
            raise ValueError(f"matmul dims must be positive, got ({m}, {k}, {n})")
        d = self.dim
        k_tiles = math.ceil(k / d)
        n_tiles = math.ceil(n / d)
        tiles = k_tiles * n_tiles

        # Consecutive tiles pipeline: while tile i streams its m rows, the
        # double-buffered weight port loads tile i+1 (d cycles). A tile's
        # effective period is therefore max(m, d) — short streams (m < d)
        # are weight-load bound, the MXU-starvation regime small batches
        # put LSTMs in.
        per_tile = max(m, d)
        exposed_load_total = max(0, d - m) * tiles

        # One pipeline fill+drain for the whole sequence of tiles.
        total_stream = tiles * per_tile + 2 * d
        # The MXUs of the core run tile-columns in parallel.
        cycles = math.ceil(total_stream / self.arrays)

        macs = m * k * n
        ideal = math.ceil(macs / (self.arrays * d * d))
        cycles = max(cycles, ideal)
        return MatmulTiming(
            cycles=cycles,
            ideal_cycles=ideal,
            tiles=tiles,
            weight_load_cycles=exposed_load_total,
            utilization=ideal / cycles,
            macs=macs,
        )
