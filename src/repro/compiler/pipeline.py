"""The end-to-end compile pipeline and its result object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.arch.chip import ChipConfig
from repro.compiler.allocator import (
    MemoryPlan,
    effective_cmem_budget,
    plan_memory,
)
from repro.compiler.expansion import expand_composites
from repro.compiler.fusion import FusionPlan, plan_fusion
from repro.compiler.lowering import LoweredOp, lower_module
from repro.compiler.scheduler import schedule
from repro.compiler.versions import CompilerVersion, LATEST
from repro.graph.hlo import HloInstruction, HloModule
from repro.isa.program import Program


class UnsupportedDtypeError(Exception):
    """The chip cannot execute the module's arithmetic (e.g. bf16 on TPUv1)."""


@dataclass
class CompiledModel:
    """Everything the compiler produced for one (module, chip, version).

    Attributes:
        program: the scheduled VLIW program the simulator runs.
        module: the expanded (composite-free) module actually compiled.
        source: the module as the user built it.
        fusion / memory: the pass results, for inspection and tests.
        chip / version: the compile target.

    ``module``, ``fusion`` and ``memory`` are shared by every compile of
    the same source that reuses them (see :func:`lower_stages`), so they
    are read-only; ``program`` is this compile's own.
    """

    program: Program
    module: HloModule
    source: HloModule
    fusion: FusionPlan
    memory: MemoryPlan
    chip: ChipConfig
    version: CompilerVersion

    @property
    def weight_bytes(self) -> int:
        return self.module.total_weight_bytes()

    @property
    def cmem_resident_bytes(self) -> int:
        return self.memory.cmem_weight_bytes

    def summary(self) -> Dict[str, object]:
        return {
            "model": self.source.name,
            "chip": self.chip.name,
            "compiler": self.version.name,
            "bundles": len(self.program),
            "fused_away": self.fusion.fused_op_count(),
            "weights_in_cmem": self.memory.cmem_hit_fraction,
        }


_ARITHMETIC_KINDS = ("unary", "binary", "matmul", "conv", "reduce", "composite")

#: Compiler features memory planning and lowering read; ``dual_issue``
#: only changes how :func:`schedule` packs the stream.
_LOWERING_FEATURES = frozenset({"fusion", "cmem_alloc", "good_tiling",
                                "prefetch"})

#: The chip fields memory planning and lowering read. Every other field
#: (generation, clock, HBM, dtypes, ...) leaves the lowered stream
#: unchanged, so chips that agree on these share one lowering.
LOWERING_CHIP_FIELDS = frozenset({"vmem_bytes", "mxu_dim", "cmem_bytes"})


@dataclass(frozen=True)
class _FrontEnd:
    """The chip-independent part of compiling one source module."""

    expanded: HloModule
    arithmetic_dtypes: FrozenSet[str]
    weight_bytes: int


def _front_end(module: HloModule) -> _FrontEnd:
    """Validate and expand ``module`` once, memoized on the module."""
    front = module.memo.get("compiler.front_end")
    if front is None:
        module.validate()
        # Only arithmetic ops need datapath support; index tensors (int32
        # ids) and pure data movement are dtype-agnostic.
        dtypes = frozenset(inst.shape.dtype_name
                           for inst in module.instructions
                           if inst.kind in _ARITHMETIC_KINDS)
        expanded = expand_composites(module)
        front = module.memo["compiler.front_end"] = _FrontEnd(
            expanded, dtypes, expanded.total_weight_bytes())
    return front


def _check_dtypes(front: _FrontEnd, chip: ChipConfig) -> None:
    unsupported = sorted(d for d in front.arithmetic_dtypes
                         if not chip.supports_dtype(d))
    if unsupported:
        raise UnsupportedDtypeError(
            f"{chip.name} does not support {unsupported}; supported: "
            f"{sorted(chip.dtypes)}. Retarget the model (see "
            f"retarget_dtype) or pick a chip with the needed formats."
        )


def lowering_key(chip: ChipConfig, version: CompilerVersion,
                 cmem_budget_bytes: Optional[int] = None) -> Tuple:
    """Everything besides the module that the lowered stream depends on.

    Memory planning reads the effective CMEM budget and ``vmem_bytes``;
    lowering reads the plan, ``vmem_bytes``, ``mxu_dim`` (tiling),
    whether the chip has CMEM at all, and the lowering features.
    """
    features = version.features & _LOWERING_FEATURES
    budget = effective_cmem_budget(chip, cmem_budget_bytes,
                                   use_cmem="cmem_alloc" in features)
    return (features, chip.vmem_bytes, chip.mxu_dim, chip.has_cmem, budget)


def _fusion(expanded: HloModule, enabled: bool) -> FusionPlan:
    key = ("compiler.fusion", enabled)
    fusion = expanded.memo.get(key)
    if fusion is None:
        fusion = expanded.memo[key] = plan_fusion(expanded, enabled=enabled)
    return fusion


def lower_stages(module: HloModule, chip: ChipConfig,
                 version: CompilerVersion = LATEST,
                 cmem_budget_bytes: Optional[int] = None
                 ) -> Tuple[HloModule, FusionPlan, MemoryPlan, List[LoweredOp]]:
    """The memoized front end, fusion, memory plan and lowering.

    Returns ``(expanded, fusion, memory, lowered)``. The front end is
    computed once per module, fusion once per (module, fusion flag), and
    the memory plan and lowering once per (module, :func:`lowering_key`).
    Results are shared between callers and must be treated as read-only.
    """
    expanded = _front_end(module).expanded
    key = ("compiler.lowering", lowering_key(chip, version, cmem_budget_bytes))
    stages = expanded.memo.get(key)
    if stages is None:
        fusion = _fusion(expanded, version.has("fusion"))
        memory = plan_memory(expanded, chip,
                             cmem_budget_bytes=cmem_budget_bytes,
                             use_cmem=version.has("cmem_alloc"))
        lowered = lower_module(expanded, fusion, memory, chip, version)
        stages = expanded.memo[key] = (fusion, memory, lowered)
    return (expanded,) + stages


def retarget_dtype(module: HloModule, dtype_name: str) -> HloModule:
    """Rebuild a module with every tensor in ``dtype_name``.

    This is the "quantize everything" deployment move TPUv1 required —
    numerically lossy (quantify with ``repro.numerics``), but it makes the
    graph executable on an int8-only chip.
    """
    out = HloModule(f"{module.name}.{dtype_name}")
    mapping: Dict[int, HloInstruction] = {}
    for inst in module.instructions:
        operands = tuple(mapping[o.uid] for o in inst.operands)
        attrs = {k: v for k, v in inst.attrs}
        # Only arithmetic (float) tensors retarget; index tensors keep int32.
        if inst.shape.dtype.is_float:
            shape = inst.shape.with_dtype(dtype_name)
        else:
            shape = inst.shape
        mapping[inst.uid] = out.add(inst.opcode, shape, operands,
                                    name=inst.name, **attrs)
    out.set_root(mapping[module.root.uid])
    return out


def compile_model(module: HloModule, chip: ChipConfig, *,
                  version: CompilerVersion = LATEST,
                  cmem_budget_bytes: Optional[int] = None) -> CompiledModel:
    """Compile an HLO module for a chip with a given compiler release.

    This is the library's central entry point: every benchmark, example and
    serving simulation goes through here. ``cmem_budget_bytes`` restricts
    the weight allocator (capacity sweeps, multi-tenant partitions).

    Work is done once per piece: validation and expansion once per
    module, lowering once per :func:`lowering_key` (see
    :func:`lower_stages`); only scheduling runs on every call, because
    the bundle layout is per generation.
    """
    front = _front_end(module)
    _check_dtypes(front, chip)
    expanded, fusion, memory, lowered = lower_stages(
        module, chip, version, cmem_budget_bytes)
    program = schedule(lowered, module.name, chip.generation, version)
    program.metadata["weight_bytes"] = front.weight_bytes
    return CompiledModel(
        program=program,
        module=expanded,
        source=module,
        fusion=fusion,
        memory=memory,
        chip=chip,
        version=version,
    )
