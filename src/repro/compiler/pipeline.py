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
from repro.compiler.lowering import LoweredModule, LoweredOp, lower_module
from repro.compiler.scheduler import bind_bundles, schedule
from repro.compiler.versions import CompilerVersion, LATEST
from repro.graph.hlo import HloInstruction, HloModule
from repro.isa.instructions import Bundle
from repro.isa.program import Program


class UnsupportedDtypeError(ValueError):
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


_ARITHMETIC_KINDS = ("unary", "binary", "matmul", "conv", "reduce", "composite")

#: Compiler features lowering reads; ``dual_issue`` only changes how
#: :func:`schedule` packs the stream.
_LOWERING_FEATURES = frozenset({"fusion", "cmem_alloc", "good_tiling",
                                "prefetch"})

#: The chip fields lowering reads. Every other field leaves the slotted
#: stream unchanged, so chips that agree on these share one lowering. Of
#: the others only ``cmem_bytes`` changes the bound stream, and only in
#: DMA level operands, through the memory plan that binds the slots.
LOWERING_CHIP_FIELDS = frozenset({"vmem_bytes", "mxu_dim"})


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


def lowering_key(chip: ChipConfig, version: CompilerVersion) -> Tuple:
    """Everything besides the module that the slotted stream depends on.

    Lowering reads ``vmem_bytes`` (which tensors spill or materialize,
    weight residency), ``mxu_dim`` (tiling) and the lowering features.
    The CMEM budget and whether the chip has CMEM at all reach only the
    memory plan, which fills the stream's level slots afterwards.
    """
    return (version.features & _LOWERING_FEATURES, chip.vmem_bytes,
            chip.mxu_dim)


def _fusion(expanded: HloModule, enabled: bool) -> FusionPlan:
    key = ("compiler.fusion", enabled)
    fusion = expanded.memo.get(key)
    if fusion is None:
        fusion = expanded.memo[key] = plan_fusion(expanded, enabled=enabled)
    return fusion


def _memory(expanded: HloModule, chip: ChipConfig, version: CompilerVersion,
            cmem_budget_bytes: Optional[int]) -> MemoryPlan:
    """The memory plan, memoized per effective budget and VMEM size."""
    use_cmem = version.has("cmem_alloc")
    budget = effective_cmem_budget(chip, cmem_budget_bytes, use_cmem)
    key = ("compiler.memory", chip.vmem_bytes, budget,
           use_cmem and chip.has_cmem)
    memory = expanded.memo.get(key)
    if memory is None:
        memory = expanded.memo[key] = plan_memory(
            expanded, chip, cmem_budget_bytes=cmem_budget_bytes,
            use_cmem=use_cmem)
    return memory


def _lowering(expanded: HloModule, chip: ChipConfig,
              version: CompilerVersion) -> LoweredModule:
    """The slotted lowering, memoized per :func:`lowering_key`."""
    key = ("compiler.lowering", lowering_key(chip, version))
    lowered = expanded.memo.get(key)
    if lowered is None:
        fusion = _fusion(expanded, version.has("fusion"))
        lowered = expanded.memo[key] = lower_module(expanded, fusion, chip,
                                                    version)
    return lowered


def _bundles(expanded: HloModule, chip: ChipConfig,
             version: CompilerVersion) -> List[Bundle]:
    """The slotted lowering's bundles, memoized per (:func:`lowering_key`,
    generation, ``dual_issue``)."""
    dense = version.has("dual_issue")
    key = ("compiler.bundles", lowering_key(chip, version), chip.generation,
           dense)
    bundles = expanded.memo.get(key)
    if bundles is None:
        bundles = expanded.memo[key] = schedule(
            _lowering(expanded, chip, version).ops, chip.generation, dense)
    return bundles


def lower_stages(module: HloModule, chip: ChipConfig,
                 version: CompilerVersion = LATEST,
                 cmem_budget_bytes: Optional[int] = None
                 ) -> Tuple[HloModule, FusionPlan, MemoryPlan, List[LoweredOp]]:
    """The front end, fusion, memory plan and bound lowered ops.

    Returns ``(expanded, fusion, memory, lowered)``. The front end is
    computed once per module, fusion once per (module, fusion flag), the
    memory plan once per (module, VMEM size, effective CMEM budget) and
    the slotted lowering once per (module, :func:`lowering_key`); the
    returned ops are that lowering bound with ``memory``, so no level
    slot is left in them. The first three are shared between callers
    and must be treated as read-only.
    """
    expanded = _front_end(module).expanded
    memory = _memory(expanded, chip, version, cmem_budget_bytes)
    lowered = _lowering(expanded, chip, version)
    return (expanded, _fusion(expanded, version.has("fusion")), memory,
            lowered.bind(memory))


def retarget_dtype(module: HloModule, dtype_name: str) -> HloModule:
    """Rebuild a module with every arithmetic tensor in ``dtype_name``.

    Float and int8 tensors retarget; int32 index tensors (embedding ids)
    keep their type. Towards int8 this is the "quantize everything"
    deployment move TPUv1 required — numerically lossy (quantify with
    ``repro.numerics``), but it makes the graph executable on an
    int8-only chip; from int8 it moves a TPUv1 model onto a bf16 chip.
    """
    out = HloModule(f"{module.name}.{dtype_name}")
    mapping: Dict[int, HloInstruction] = {}
    for inst in module.instructions:
        operands = tuple(mapping[o.uid] for o in inst.operands)
        attrs = {k: v for k, v in inst.attrs}
        if inst.shape.dtype_name != "int32":
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
    module, lowering once per :func:`lowering_key` and scheduling once
    per (lowering, generation, ``dual_issue``); every call plans memory
    for its budget (memoized per effective budget) and binds the
    scheduled bundles' level slots with that plan.
    """
    front = _front_end(module)
    _check_dtypes(front, chip)
    expanded = front.expanded
    memory = _memory(expanded, chip, version, cmem_budget_bytes)
    bundles = _bundles(expanded, chip, version)
    lowered = _lowering(expanded, chip, version)
    program = Program(name=module.name, generation=chip.generation)
    program.extend(bind_bundles(bundles, lowered.bound(memory)))
    program.metadata["compiler_version"] = version.name
    program.metadata["lowered_ops"] = len(lowered.ops)
    program.metadata["weight_bytes"] = front.weight_bytes
    return CompiledModel(
        program=program,
        module=expanded,
        source=module,
        fusion=_fusion(expanded, version.has("fusion")),
        memory=memory,
        chip=chip,
        version=version,
    )
