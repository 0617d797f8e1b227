"""Memory allocation: weight placement in CMEM/HBM and activation spilling.

TPUv4i's 128 MiB CMEM exists so production models' weights stream from
on-chip SRAM instead of HBM. The allocator packs weight tensors into CMEM
greedily by traffic benefit until it runs out, leaving the rest in HBM;
the CMEM-capacity experiment (E10) sweeps the capacity and watches
performance climb until the working set fits.

Activations are VMEM-resident while they flow producer->consumer; an
intermediate bigger than the activation budget spills to CMEM (if free)
or HBM, costing a DMA round-trip that lowering materializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.arch.chip import ChipConfig
from repro.graph.hlo import HloInstruction, HloModule

# Fraction of VMEM usable for one instruction's working set; the rest holds
# double-buffered DMA tiles and the other live operands.
_VMEM_WORKING_FRACTION = 0.5


@dataclass
class MemoryPlan:
    """Placement decisions for one module on one chip.

    Attributes:
        weight_home: constant uid -> ``"cmem"`` or ``"hbm"``.
        spilled: uids of intermediate tensors that round-trip off VMEM,
            mapped to the level they spill to.
        cmem_weight_bytes / hbm_weight_bytes: placement totals.
        cmem_budget_bytes: capacity the plan was computed against (can be a
            partition of the physical CMEM under multi-tenancy).
        materialize_level: where an unfused intermediate round-trips
            (``"cmem"`` on a chip with CMEM when the compiler uses it,
            whatever the budget; ``"hbm"`` otherwise).
    """

    weight_home: Dict[int, str] = field(default_factory=dict)
    spilled: Dict[int, str] = field(default_factory=dict)
    cmem_weight_bytes: int = 0
    hbm_weight_bytes: int = 0
    cmem_budget_bytes: int = 0
    materialize_level: str = "hbm"

    def home_of(self, uid: int) -> str:
        return self.weight_home.get(uid, "hbm")

    @property
    def cmem_hit_fraction(self) -> float:
        """Fraction of weight bytes served from CMEM."""
        total = self.cmem_weight_bytes + self.hbm_weight_bytes
        return self.cmem_weight_bytes / total if total else 1.0


def effective_cmem_budget(chip: ChipConfig,
                          cmem_budget_bytes: Optional[int] = None,
                          use_cmem: bool = True) -> int:
    """The CMEM bytes :func:`plan_memory` may fill on ``chip``.

    The requested budget (default: all of CMEM), zero when the chip has
    no CMEM or the compiler does not use it, and never above the physical
    capacity.
    """
    budget = chip.cmem_bytes if cmem_budget_bytes is None else cmem_budget_bytes
    if budget < 0:
        raise ValueError("CMEM budget must be non-negative")
    if not use_cmem or not chip.has_cmem:
        budget = 0
    return min(budget, chip.cmem_bytes)


def plan_memory(module: HloModule, chip: ChipConfig, *,
                cmem_budget_bytes: Optional[int] = None,
                use_cmem: bool = True) -> MemoryPlan:
    """Place weights and find activation spills.

    ``cmem_budget_bytes`` overrides the physical capacity (the E10 sweep and
    the multi-tenant partitioner use this); ``use_cmem=False`` models a
    compiler too old to know about CMEM (the versions experiment). The
    plan reads only the effective budget, ``chip.vmem_bytes`` and
    whether the chip has CMEM at all.
    """
    budget = effective_cmem_budget(chip, cmem_budget_bytes, use_cmem)
    plan = MemoryPlan(
        cmem_budget_bytes=budget,
        materialize_level="cmem" if use_cmem and chip.has_cmem else "hbm")

    # --- weights: greedy fill, largest first (maximizes bytes on chip,
    # since every weight byte is read exactly once per inference).
    constants = [i for i in module.instructions if i.opcode == "constant"]
    remaining = budget
    for inst in sorted(constants, key=lambda i: i.shape.byte_size, reverse=True):
        size = inst.shape.byte_size
        if size <= remaining:
            plan.weight_home[inst.uid] = "cmem"
            plan.cmem_weight_bytes += size
            remaining -= size
        else:
            plan.weight_home[inst.uid] = "hbm"
            plan.hbm_weight_bytes += size

    # --- activations: spills prefer leftover CMEM, then HBM.
    for inst in spilled_instructions(module, chip.vmem_bytes):
        if inst.shape.byte_size <= remaining:
            plan.spilled[inst.uid] = "cmem"
            remaining -= inst.shape.byte_size
        else:
            plan.spilled[inst.uid] = "hbm"
    return plan


def spilled_instructions(module: HloModule,
                         vmem_bytes: int) -> Tuple[HloInstruction, ...]:
    """The instructions whose outputs spill off VMEM, in module order.

    Any non-data, non-shape output that exceeds the VMEM working budget
    spills. Whether a tensor spills depends only on ``vmem_bytes``, so
    the set is computed once per (module, ``vmem_bytes``) and memoized
    on the module, for every CMEM budget's plan and the lowering to
    share; the level it spills to (:attr:`MemoryPlan.spilled`) depends
    on the CMEM budget.
    """
    key = ("compiler.spills", vmem_bytes)
    spilled = module.memo.get(key)
    if spilled is None:
        limit = int(vmem_bytes * _VMEM_WORKING_FRACTION)
        spilled = module.memo[key] = tuple(
            inst for inst in module.instructions
            if inst.kind not in ("data", "shape")
            and inst.shape.byte_size > limit)
    return spilled
