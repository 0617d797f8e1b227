"""Error metrics for comparing numeric formats (experiment E14).

The experiment compares each production app's reference fp32 computation
against bf16 and calibrated int8, reporting SNR and a quality-loss proxy.
The proxy maps output SNR to an estimated accuracy drop: a crude but
monotone stand-in for "did the model's predictions change", sufficient to
reproduce the paper's *shape* (CNNs tolerate int8; models with outlier
activations and long reduction chains do not).
"""

from __future__ import annotations

import numpy as np


def snr_db(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Signal-to-noise ratio of ``candidate`` vs ``reference``, in dB."""
    ref = np.asarray(reference, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64)
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
    signal = float(np.sum(ref**2))
    noise = float(np.sum((ref - cand) ** 2))
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal / noise)


def quality_loss_proxy(output_snr_db: float) -> float:
    """Estimated accuracy loss (percentage points) from output SNR.

    Piecewise-linear heuristic: above ~40 dB the task metric is
    indistinguishable from fp32; below ~10 dB predictions degrade rapidly.
    Monotone decreasing in SNR, clipped to [0, 50].
    """
    if output_snr_db >= 40.0:
        return 0.0
    if output_snr_db <= 10.0:
        return min(50.0, 5.0 + (10.0 - output_snr_db) * 1.5)
    # 40 dB -> 0.0 loss, 10 dB -> 5.0 loss, linear in between.
    return (40.0 - output_snr_db) / 30.0 * 5.0
