"""Arithmetic-format models (Lesson 7: some inference needs floating point).

TPUv1 was int8-only; quantizing every production model turned out to cost
accuracy and — more importantly — deployment *time* (retraining/calibration
per release). TPUv2/v3 trained in bf16, and TPUv4i keeps bf16 alongside int8
so a trained model deploys with bit-compatible numerics (Lesson 10).

This package implements bit-accurate bf16 rounding, post-training int8
quantization with calibration, and the error metrics the numerics
experiment (E14) reports.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.numerics.bfloat16": ("to_bf16", "bf16_matmul", "BF16_EPS"),
    "repro.numerics.int8": ("QuantParams", "calibrate", "quantize",
                            "dequantize", "int8_matmul"),
    "repro.numerics.error": ("snr_db", "quality_loss_proxy"),
})
