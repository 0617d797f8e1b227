"""Backwards ML compatibility checks (Lesson 10).

"Backwards ML compatibility" means a model trained on the training chips
(TPUv2/v3, bf16) produces the *same answers* on the inference chip, so
deployment needs no retraining, no quantization study, no per-model
sign-off. The check below is executable: run the same computation through
each generation's arithmetic model and compare bits.

The contrast case is the int8 path (TPUv1-style deployment), where
``deployment_readiness`` reports the calibration work and quality risk
that bf16 deployment avoids — the "deploy DNNs quickly" half of the
lesson.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.arch.chip import ChipConfig
from repro.numerics.bfloat16 import bf16_matmul
from repro.numerics.error import quality_loss_proxy, snr_db
from repro.numerics.int8 import calibrate, int8_matmul
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class CompatCheck:
    """Result of comparing one computation across two chips."""

    source_chip: str
    target_chip: str
    dtype: str
    bit_exact: bool
    snr_db: float
    est_quality_loss_pct: float
    needs_calibration: bool

    @property
    def deployable_without_validation(self) -> bool:
        """The Lesson 10 predicate: same bits, no per-model sign-off needed."""
        return self.bit_exact and not self.needs_calibration


def _chip_matmul(chip: ChipConfig, dtype: str,
                 a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matmul semantics a chip applies for a dtype."""
    if not chip.supports_dtype(dtype):
        raise ValueError(f"{chip.name} does not support {dtype}")
    if dtype == "bf16":
        return bf16_matmul(a, b)
    if dtype == "int8":
        return int8_matmul(a, b, calibrate(a), calibrate(b))
    if dtype == "fp32":
        return a.astype(np.float32) @ b.astype(np.float32)
    raise ValueError(f"unknown dtype {dtype!r}")


def check_numerics_match(source: ChipConfig, target: ChipConfig,
                         dtype: str = "bf16", *, seed: int = 7,
                         size: int = 128) -> CompatCheck:
    """Run the same matmul through both chips' arithmetic and compare.

    For bf16 the result is bit-exact by construction (deterministic
    rounding, fp32 accumulation) — the property that lets a TPUv3-trained
    model ship on TPUv4i unmodified. For int8 the comparison runs the
    target's quantized path against the source's float path and reports
    the quality cost.
    """
    rng = DeterministicRng(seed)
    a = rng.normal_array((size, size))
    b = rng.normal_array((size, size))

    source_dtype = dtype if source.supports_dtype(dtype) else "bf16"
    reference = _chip_matmul(source, source_dtype, a, b)
    candidate = _chip_matmul(target, dtype, a, b)

    exact = bool(np.array_equal(reference, candidate))
    ratio = snr_db(reference, candidate)
    return CompatCheck(
        source_chip=source.name,
        target_chip=target.name,
        dtype=dtype,
        bit_exact=exact,
        snr_db=ratio,
        est_quality_loss_pct=quality_loss_proxy(ratio),
        needs_calibration=(dtype == "int8"),
    )


def model_numerics_match(module, source: ChipConfig, target: ChipConfig,
                         *, seed: int = 0) -> CompatCheck:
    """Lesson 10 end-to-end: execute a whole model on both chips' arithmetic.

    Runs the functional evaluator (`repro.graph.evaluator`) under each
    chip's best arithmetic (bf16 where supported, else int8) with identical
    weights/inputs and compares the output tensors bit for bit.
    """
    from repro.graph.evaluator import evaluate_module

    source_arith = source.native_dtype
    target_arith = target.native_dtype
    reference = evaluate_module(module, source_arith, seed=seed)
    candidate = evaluate_module(module, target_arith, seed=seed)
    exact = bool(np.array_equal(reference, candidate))
    ratio = snr_db(reference, candidate)
    return CompatCheck(
        source_chip=source.name,
        target_chip=target.name,
        dtype=target_arith,
        bit_exact=exact,
        snr_db=ratio,
        est_quality_loss_pct=quality_loss_proxy(ratio),
        needs_calibration=(target_arith == "int8"),
    )


def deployment_readiness(checks: Sequence[CompatCheck]) -> Dict[str, object]:
    """Summarize what stands between training and serving.

    Returns the count of models deployable as-is vs needing a calibration/
    validation cycle, and the worst estimated quality loss — the three
    numbers the deploy-velocity argument turns on.
    """
    if not checks:
        raise ValueError("no checks to summarize")
    ready = sum(1 for c in checks if c.deployable_without_validation)
    return {
        "models": len(checks),
        "deploy_as_is": ready,
        "need_calibration": len(checks) - ready,
        "worst_quality_loss_pct": max(c.est_quality_loss_pct for c in checks),
    }
