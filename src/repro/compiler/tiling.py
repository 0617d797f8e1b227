"""Matmul/conv tiling onto the MXU and VMEM.

A matmul ``[M,K] @ [K,N]`` rarely fits VMEM whole, so it executes as a
sequence of M-chunks: stream a chunk of activations in, run it against the
(row-resident) weights, stream the result out. The chunk height is chosen
so the chunk's inputs + outputs fit the VMEM working budget while staying
a multiple of the MXU dimension (short chunks waste fill/drain — the
"better_tiling" compiler feature raises the chunk height, one of the
measured version-over-version wins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.arch.chip import ChipConfig


@dataclass(frozen=True)
class TileShape:
    """One M-chunk of a matmul: ``[rows, k] @ [k, n]``."""

    rows: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError("tile dims must be positive")


def max_chunk_rows(k: int, n: int, elem_bytes: int, vmem_budget: int,
                   mxu_dim: int) -> int:
    """Largest MXU-aligned chunk height whose working set fits the budget.

    Working set per chunk: activations in (rows*k) + results out (rows*n)
    + one weight K-panel (k*n capped at k*mxu_dim since weight tiles
    stream column by column).
    """
    if vmem_budget <= 0:
        raise ValueError("VMEM budget must be positive")
    weight_panel = k * min(n, mxu_dim) * elem_bytes
    per_row = (k + n) * elem_bytes
    available = vmem_budget - weight_panel
    if available <= 0:
        # Degenerate: weights alone blow the budget; fall back to one
        # MXU-row chunk and let the DMA engine thrash (huge layers).
        return mxu_dim
    rows = available // per_row
    if rows <= 0:
        return mxu_dim
    aligned = max(mxu_dim, (rows // mxu_dim) * mxu_dim)
    return int(aligned)


def plan_matmul_tiles(m: int, k: int, n: int, chip: ChipConfig, *,
                      vmem_budget: int, good_tiling: bool = True) -> List[TileShape]:
    """Split an ``[m,k] @ [k,n]`` matmul into M-chunks.

    With ``good_tiling=False`` chunks are a fixed, conservative four MXU
    heights — the static tile early compiler releases used regardless of
    layer shape.
    """
    if m <= 0 or k <= 0 or n <= 0:
        raise ValueError("matmul dims must be positive")
    elem = 2  # bf16 operand bytes; int8 halves this but tiling stays safe
    if good_tiling:
        chunk = max_chunk_rows(k, n, elem, vmem_budget, chip.mxu_dim)
    else:
        chunk = 4 * chip.mxu_dim
    chunk = min(chunk, m) if m >= chip.mxu_dim else m
    tiles: List[TileShape] = []
    row = 0
    while row < m:
        rows = min(chunk, m - row)
        tiles.append(TileShape(rows=rows, k=k, n=n))
        row += rows
    return tiles
