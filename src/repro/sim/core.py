"""The TensorCore simulator: timing execution of compiled programs.

Model (cycle-approximate, per DESIGN.md's fidelity statement):

* bundles issue in order, one per cycle minimum;
* ``sync.wait`` stalls issue until the named flag's completion cycle —
  this is the only blocking primitive, exactly like the hardware;
* the MXU and VPU are pipelined units serialized by their own free time;
  MXM timing comes from :class:`~repro.arch.mxu.MxuModel` (fill/drain,
  weight-reload exposure), vector timing from
  :class:`~repro.arch.vpu.VpuModel`;
* DMA instructions dispatch to per-level engine pools; concurrent engines
  on one level split its bandwidth (contention), and each completed
  transfer stamps its sync flag;
* completion is the max over issue, units, and outstanding DMAs.

:meth:`TensorCoreSim.run` prices a program through the one production
timing engine, the grid kernel (:mod:`repro.sim.gridkernel`, reached via
:func:`~repro.sim.lowered.lower_program` and
:class:`~repro.sim.lowered.FastReplay`). The per-instruction
interpreter that walks a program with the rules above is test code
(``tests/reference/interpreter.py``); the kernel matches it bit for bit.

Multi-core chips (TPUv2/v3) run one request's program on one core; the
chip-level peak numbers already count all cores, and the serving layer
treats cores as independent request servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.arch.chip import ChipConfig
from repro.isa.program import Program
from repro.sim.gridkernel import check_runnable
from repro.sim.lowered import FastReplay, lower_program
from repro.sim.perf import PerfCounters, PerfReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import SpanTracer


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated execution."""

    report: PerfReport
    counters: PerfCounters

    @property
    def seconds(self) -> float:
        return self.report.seconds

    @property
    def cycles(self) -> int:
        return self.report.cycles


class TensorCoreSim:
    """Executes :class:`Program` objects on one chip configuration."""

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip
        self.replay = FastReplay(chip)

    # ------------------------------------------------------------------- run

    def run(self, program: Program, *, dtype: str = "bf16",
            tracer: Optional["SpanTracer"] = None) -> SimResult:
        """Simulate one execution of ``program``; returns timing + counters.

        Lowers the program (:mod:`repro.sim.lowered`) and prices it
        through the grid kernel — bit-identical to the test-only
        interpreter, several times faster. A ``tracer`` receives one
        span per executed instruction (:meth:`FastReplay.run`'s tracing
        mode) without changing the result.
        """
        check_runnable(self.chip, program.generation, dtype)
        return self.replay.run(lower_program(program, self.chip),
                               dtype=dtype, tracer=tracer)

    # ---------------------------------------------------------- model loading

    def weight_load_seconds(self, weight_bytes: float,
                            destination: str = "cmem") -> float:
        """Time to stage a model's weights from HBM at deployment/swap time.

        Loading into CMEM reads HBM once (HBM bandwidth bound); ``"hbm"``
        destination means no staging (weights already there) and costs 0.
        """
        if weight_bytes < 0:
            raise ValueError("bytes must be non-negative")
        if destination == "hbm":
            return 0.0
        if destination != "cmem":
            raise ValueError("destination must be 'cmem' or 'hbm'")
        if not self.chip.has_cmem:
            raise ValueError(f"{self.chip.name} has no CMEM")
        return weight_bytes / self.chip.hbm_bw
