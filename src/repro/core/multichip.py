"""Multi-chip inference: pipeline a model across ICI-linked TPUv4i chips.

TPUv4i boards carry four chips linked by ICI precisely because single-chip
serving stops working when a model's weights or SLO outgrow one chip (the
1.5x/yr growth lesson guarantees this happens *during* the chip's
deployment life). This module implements pipeline parallelism:

* :func:`partition_module` splits an HLO module into load-balanced stages
  (by FLOPs) along topological order; tensors crossing a stage boundary
  become stage parameters, weights are duplicated into every consuming
  stage;
* :class:`PipelineDeployment` compiles and simulates each stage on its own
  chip, prices each inter-stage activation transfer as one hop over an
  :class:`~repro.arch.ici.IciLink`, and reports single-request latency,
  steady-state throughput, and per-chip weight/CMEM residency.

The headline effect reproduced here: sharding a CMEM-overflowing model
(bert1, rnn1) across chips is *superlinear* for throughput, because each
chip's slice of the weights newly fits in its CMEM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.arch.chip import ChipConfig, TPUV4I
from repro.arch.ici import IciLink
from repro.compiler.pipeline import compile_model
from repro.compiler.versions import CompilerVersion, LATEST
from repro.graph.hlo import HloInstruction, HloModule
from repro.sim.core import TensorCoreSim


def _assign_stages(module: HloModule, num_stages: int) -> Dict[int, int]:
    """Map each non-data instruction uid to a stage, balanced by FLOPs."""
    compute = [inst for inst in module.instructions
               if inst.kind not in ("data",)]
    total = sum(module.instruction_flops(inst) for inst in compute) or 1.0
    per_stage = total / num_stages
    assignment: Dict[int, int] = {}
    stage = 0
    accumulated = 0.0
    for inst in compute:
        assignment[inst.uid] = stage
        accumulated += module.instruction_flops(inst)
        # Close the stage once it has its share (never close the last one).
        if accumulated >= per_stage * (stage + 1) and stage < num_stages - 1:
            stage += 1
    return assignment


def partition_module(module: HloModule,
                     num_stages: int) -> Tuple[List[HloModule], List[int]]:
    """Split a module into pipeline stages.

    Returns ``(stages, boundary_bytes)`` where ``boundary_bytes[i]`` is the
    activation traffic entering stage ``i`` from earlier stages (0 for the
    first stage). Data instructions (weights, request inputs) replicate
    into every stage that consumes them; activations crossing a boundary
    become parameters of the consuming stage.
    """
    if num_stages < 1:
        raise ValueError("need at least one stage")
    module.validate()
    if num_stages == 1:
        return [module], [0]

    assignment = _assign_stages(module, num_stages)
    stages: List[HloModule] = []
    boundary_bytes: List[int] = []

    for stage_index in range(num_stages):
        stage = HloModule(f"{module.name}.stage{stage_index}")
        mapping: Dict[int, HloInstruction] = {}
        crossing = 0

        def materialize(operand: HloInstruction) -> HloInstruction:
            nonlocal crossing
            if operand.uid in mapping:
                return mapping[operand.uid]
            if operand.kind == "data":
                # Replicate weights/inputs into this stage.
                clone = stage.add(operand.opcode, operand.shape,
                                  name=operand.name)
            elif assignment.get(operand.uid, -1) == stage_index:
                raise AssertionError("topological order violated")
            else:
                # Activation from an earlier stage: becomes a stage input.
                crossing += operand.shape.byte_size
                clone = stage.add("parameter", operand.shape,
                                  name=f"xfer.{operand.uid}")
            mapping[operand.uid] = clone
            return clone

        last_compute = None
        for inst in module.instructions:
            if inst.kind == "data":
                continue
            if assignment[inst.uid] != stage_index:
                continue
            operands = tuple(materialize(op) for op in inst.operands)
            attrs = {k: v for k, v in inst.attrs}
            clone = stage.add(inst.opcode, inst.shape, operands,
                              name=inst.name, **attrs)
            mapping[inst.uid] = clone
            last_compute = clone
        if last_compute is None:
            raise ValueError(
                f"stage {stage_index} is empty; module {module.name!r} is too "
                f"small for {num_stages} stages")
        stage.set_root(last_compute)
        stage.validate()
        stages.append(stage)
        boundary_bytes.append(crossing)

    boundary_bytes[0] = 0  # first stage reads request inputs, not ICI
    return stages, boundary_bytes


@dataclass(frozen=True)
class StageReport:
    """One pipeline stage on one chip."""

    stage: int
    latency_s: float
    inbound_transfer_s: float
    weight_bytes: int
    cmem_hit_fraction: float

    @property
    def period_s(self) -> float:
        """Steady-state occupancy: compute plus inbound transfer."""
        return self.latency_s + self.inbound_transfer_s


@dataclass(frozen=True)
class MultiChipReport:
    """A pipelined deployment across ICI-linked chips."""

    model: str
    chip: str
    num_chips: int
    batch: int
    stages: Tuple[StageReport, ...]

    @property
    def request_latency_s(self) -> float:
        """One request through the whole pipeline."""
        return sum(s.period_s for s in self.stages)

    @property
    def throughput_qps(self) -> float:
        """Steady state: bounded by the slowest stage."""
        bottleneck = max(s.period_s for s in self.stages)
        return self.batch / bottleneck

    @property
    def min_cmem_hit(self) -> float:
        return min(s.cmem_hit_fraction for s in self.stages)


class PipelineDeployment:
    """Compile/simulate a model pipelined over ``num_chips`` chips."""

    def __init__(self, chip: ChipConfig = TPUV4I, *,
                 version: CompilerVersion = LATEST) -> None:
        self.chip = chip
        self.version = version
        self.sim = TensorCoreSim(chip)

    def deploy(self, module: HloModule, num_chips: int,
               batch: int) -> MultiChipReport:
        """Partition, compile, and time the model over ``num_chips`` chips."""
        if num_chips > 1 and self.chip.ici_links == 0:
            raise ValueError(f"{self.chip.name} has no ICI links")
        stages, boundaries = partition_module(module, num_chips)

        reports: List[StageReport] = []
        for index, (stage, inbound) in enumerate(zip(stages, boundaries)):
            compiled = compile_model(stage, self.chip, version=self.version)
            result = self.sim.run(compiled.program)
            transfer = (IciLink(self.chip.ici_link_bw)
                        .transfer_seconds(inbound) if inbound else 0.0)
            reports.append(StageReport(
                stage=index,
                latency_s=result.seconds,
                inbound_transfer_s=transfer,
                weight_bytes=stage.total_weight_bytes(),
                cmem_hit_fraction=compiled.memory.cmem_hit_fraction,
            ))
        return MultiChipReport(
            model=module.name,
            chip=self.chip.name,
            num_chips=num_chips,
            batch=batch,
            stages=tuple(reports),
        )

    def scaling_study(self, build, batch: int,
                      chip_counts: Sequence[int] = (1, 2, 4)) -> List[MultiChipReport]:
        """Deploy ``build(batch)`` at several chip counts."""
        return [self.deploy(build(batch), count, batch)
                for count in chip_counts]
