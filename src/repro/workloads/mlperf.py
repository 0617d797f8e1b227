"""MLPerf-Inference-style benchmark models.

TPUv4i's public numbers came from MLPerf Inference submissions; the three
models here mirror that suite's datacenter closed division circa 2020:
ResNet-50 (vision), SSD-ResNet34-class detection, and BERT-large QA. They
reuse the production-app builders with MLPerf's canonical shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.graph.hlo import HloModule
from repro.workloads.models import _build_bert, _build_resnet


@dataclass(frozen=True)
class MlperfModel:
    """One MLPerf-style benchmark entry."""

    name: str
    scenario_latency_ms: float  # Server-scenario latency bound
    build: Callable[[int], HloModule]
    offline_batch: int          # batch used in the Offline scenario


def _build_resnet50(batch: int) -> HloModule:
    stages = ((3, 64, 256, 1), (4, 128, 512, 2), (6, 256, 1024, 2),
              (3, 512, 2048, 2))
    return _build_resnet("mlperf-resnet50", batch, stages)


def _build_ssd(batch: int) -> HloModule:
    # Detection backbone at 300x300 with a heavier head stage.
    stages = ((3, 64, 256, 1), (4, 128, 512, 2), (6, 256, 1024, 2),
              (4, 512, 2048, 2))
    return _build_resnet("mlperf-ssd", batch, stages, image=300)


def _build_bert_large(batch: int) -> HloModule:
    return _build_bert("mlperf-bert", batch, seq=384, hidden=1024, layers=24,
                       heads=16, vocab=30522)


MLPERF_MODELS: Tuple[MlperfModel, ...] = (
    MlperfModel("resnet50", scenario_latency_ms=15.0, build=_build_resnet50,
                offline_batch=32),
    MlperfModel("ssd", scenario_latency_ms=100.0, build=_build_ssd,
                offline_batch=16),
    MlperfModel("bert", scenario_latency_ms=130.0, build=_build_bert_large,
                offline_batch=8),
)
