"""InferenceServer: answers and latency from one call.

Joins the two halves of the library: the functional evaluator supplies
the output tensors (with the chip's arithmetic), the timing simulator
supplies latency/energy for the compiled program. This is the shape of a
real inference host: numerics fixed at compile time, performance measured
per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.arch.chip import ChipConfig
from repro.compiler.pipeline import compile_model
from repro.compiler.versions import CompilerVersion, LATEST
from repro.graph.evaluator import Evaluator
from repro.graph.hlo import HloModule
from repro.sim.core import TensorCoreSim
from repro.sim.perf import PerfReport


@dataclass(frozen=True)
class InferenceResult:
    """One served request: the answer plus its performance."""

    output: np.ndarray
    latency_s: float
    energy_j: float
    report: PerfReport

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


class InferenceServer:
    """Serves one model on one chip.

    The model compiles once at construction; ``infer`` calls execute the
    functional evaluator per request (timing is constant per batch shape,
    so the simulator runs once and is reused).
    """

    def __init__(self, module: HloModule, chip: ChipConfig, *,
                 version: CompilerVersion = LATEST,
                 arithmetic: Optional[str] = None,
                 seed: int = 0) -> None:
        self.module = module
        self.chip = chip
        self.compiled = compile_model(module, chip, version=version)
        if arithmetic is None:
            arithmetic = chip.native_dtype
        if not chip.supports_dtype(arithmetic):
            raise ValueError(f"{chip.name} does not support {arithmetic}")
        self.arithmetic = arithmetic
        self._evaluator = Evaluator(module, arithmetic, seed=seed)
        self._timing = TensorCoreSim(chip).run(self.compiled.program,
                                               dtype=arithmetic)

    @property
    def latency_s(self) -> float:
        """Compute latency of one batch on this chip."""
        return self._timing.seconds

    def infer(self, inputs: Optional[Mapping[str, np.ndarray]] = None,
              weights: Optional[Mapping[str, np.ndarray]] = None
              ) -> InferenceResult:
        """Run one request; returns outputs and per-batch performance."""
        output = self._evaluator.run(inputs, weights)
        return InferenceResult(
            output=output,
            latency_s=self._timing.seconds,
            energy_j=self._timing.report.energy_j,
            report=self._timing.report,
        )

    def describe(self) -> str:
        return (f"{self.module.name} on {self.chip.name} "
                f"[{self.arithmetic}, {self.compiled.version.name}]: "
                f"{self.latency_s * 1e3:.3f} ms/batch, "
                f"{self._timing.report.achieved_tops:.1f} TOPS")
