"""Per-program entry points to the timing engine.

:mod:`repro.sim.gridkernel` is the only production timing engine; this
module is its single-program face:

* :func:`lower_program` decodes a compiled :class:`~repro.isa.program.
  Program` into the kernel's chip-independent structure (shared with
  every grid batch: one body per signature of the program, or of its
  slotted program, relabelled per level table) and binds it to the
  chip's DMA pools as a :class:`LoweredProgram`. Structure is
  dtype-independent (arithmetic width only scales byte traffic, applied
  when priced), so one lowering serves bf16 and int8.
* :meth:`LoweredProgram.with_dma_chain` appends a serialized DMA chain on
  a named pool, existing or new — how pod ICI hops
  (:func:`repro.pod.sharding.attach_ici_rows`) and KV snapshots
  (:func:`repro.serving.recovery.snapshot_lowered`) are priced.
* :class:`FastReplay` prices a lowered program through the kernel's
  per-point function. Tracing is a mode of the same call: pass a
  :class:`~repro.obs.tracer.SpanTracer` and every executed MXU/VPU/DMA
  row and stalling ``sync.wait`` also records one span.

Results are bit-identical to the per-instruction interpreter
(``tests/reference/interpreter.py``, the test-only oracle);
``tests/test_fastsim.py`` asserts it across every chip generation,
workload, dtype, and batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.arch.chip import ChipConfig
from repro.isa.program import Program
from repro.sim.gridkernel import (DmaPools, _Struct, _check_dma_levels,
                                  _chip_info, _evaluate, _struct_for,
                                  _with_chain, check_runnable)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import SpanTracer


@dataclass(frozen=True)
class LoweredProgram:
    """A program's timing structure bound to a set of DMA pools.

    ``pools`` starts as the chip's own (:func:`~repro.sim.gridkernel.
    dma_pools`) and grows when a DMA chain adds a pool; ``clock_hz``
    converts DMA streaming time to cycles.
    """

    struct: _Struct
    pools: DmaPools
    clock_hz: float

    @property
    def generation(self) -> int:
        return self.struct.generation

    def __len__(self) -> int:
        """Bundle markers plus instructions up to and including HALT."""
        return self.struct.rows

    def with_dma_chain(self, level: str, byte_counts: Sequence[int], *,
                       where: str = "post",
                       bandwidth: Optional[float] = None,
                       latency_s: float = 0.0) -> "LoweredProgram":
        """A copy with one serialized DMA chain on ``level``.

        Each entry of ``byte_counts`` is one transfer that waits for the
        previous one; ``where`` is ``"pre"`` (before the program) or
        ``"post"`` (after it). A level the pools lack is appended with
        ``bandwidth`` (bytes/s) and ``latency_s``; an existing level
        keeps its own.
        """
        pools = self.pools
        if level not in pools.pool_levels:
            if bandwidth is None:
                raise ValueError(f"no DMA pool for {level!r}; "
                                 "give its bandwidth")
            latency = int(math.ceil(latency_s * self.clock_hz))
            pools = DmaPools(
                pools.level_names + (level,), pools.pool_levels + (level,),
                pools.bandwidths + (bandwidth,), pools.latencies + (latency,))
        return LoweredProgram(
            _with_chain(self.struct, level, byte_counts, where), pools,
            self.clock_hz)


def lower_program(program: Program, chip: ChipConfig) -> LoweredProgram:
    """Bind ``program``'s kernel structure to ``chip``'s DMA pools.

    Raises the interpreter's errors for a generation mismatch and for a
    DMA level the chip cannot reach.
    """
    check_runnable(chip, program.generation)
    info = _chip_info(chip)
    struct = _struct_for(program)
    _check_dma_levels(struct, chip, info)
    return LoweredProgram(struct, info.pools, info.clock_hz)


class FastReplay:
    """Prices :class:`LoweredProgram` objects on one chip.

    One instance per chip (it owns no per-run state); :meth:`run` is
    reentrant exactly like the interpreter.
    """

    def __init__(self, chip: ChipConfig) -> None:
        self.chip = chip

    def run(self, lowered: LoweredProgram, *, dtype: str = "bf16",
            tracer: Optional["SpanTracer"] = None):
        """Price the lowered program; returns a SimResult.

        With a ``tracer`` every executed MXU/VPU/DMA row and every
        stalling ``sync.wait`` also records one span on the ``core``
        group's unit tracks, in simulated microseconds and program
        order; the result is the same either way (asserted in
        ``tests/test_obs.py``).
        """
        chip = self.chip
        check_runnable(chip, lowered.generation, dtype)
        info = _chip_info(chip, lowered.pools, lowered.clock_hz)
        return _evaluate(lowered.struct, chip, info, dtype, tracer)
