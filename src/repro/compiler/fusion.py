"""Operator fusion: group elementwise consumers with their producers.

Without fusion every elementwise op round-trips its tensor through memory;
with it, the epilogue (bias add, activation, residual add) applies while
the producer's result is still in VMEM. The fuser is the classic XLA
greedy rule: an instruction fuses into its producer's group when

* it is elementwise (unary/binary) or a reduction,
* its producer is in a fusable group (matmul/conv/elementwise root),
* the producer has no other consumer that would duplicate work, and
* the shapes stream: a reduction reduces the producer's output (its
  first operand), and any other follower has no more elements than the
  producer. Dtypes are not compared, so a dtype retarget fuses exactly
  as its origin does.

The result is a :class:`FusionPlan` mapping instruction uid -> group id;
lowering emits one DMA round-trip per *group* rather than per op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.graph.hlo import HloInstruction, HloModule

_FUSABLE_ROOT_KINDS = {"matmul", "conv", "unary", "binary", "reduce", "pool"}
_FUSABLE_FOLLOWER_KINDS = {"unary", "binary", "reduce", "pool", "shape"}


@dataclass
class FusionPlan:
    """Assignment of instructions to fusion groups.

    ``group_of[uid]`` is the group id; ``members[gid]`` lists uids in issue
    order. Singleton groups are normal — they just mean "not fused".
    """

    group_of: Dict[int, int] = field(default_factory=dict)
    members: Dict[int, List[int]] = field(default_factory=dict)

    def new_group(self, uid: int) -> int:
        gid = len(self.members)
        self.members[gid] = [uid]
        self.group_of[uid] = gid
        return gid

    def join(self, uid: int, gid: int) -> None:
        self.members[gid].append(uid)
        self.group_of[uid] = gid

    def group_sizes(self) -> List[int]:
        return [len(m) for m in self.members.values()]

    def fused_op_count(self) -> int:
        """Instructions eliminated as separate memory round-trips."""
        return sum(size - 1 for size in self.group_sizes())


def _consumer_counts(module: HloModule) -> Dict[int, int]:
    counts: Dict[int, int] = {inst.uid: 0 for inst in module.instructions}
    for inst in module.instructions:
        for operand in inst.operands:
            counts[operand.uid] += 1
    return counts


def _streams_with(producer: HloInstruction, consumer: HloInstruction) -> bool:
    """Whether the consumer can process the producer's output in place."""
    if consumer.kind == "reduce":
        return consumer.operands[0].uid == producer.uid
    return consumer.shape.num_elements <= producer.shape.num_elements


def plan_fusion(module: HloModule, enabled: bool = True) -> FusionPlan:
    """Compute fusion groups for a composite-free module.

    With ``enabled=False`` every instruction is a singleton group — the
    pre-fusion compiler the versions experiment (E9) measures against.
    """
    plan = FusionPlan()
    consumers = _consumer_counts(module)

    for inst in module.instructions:
        if not enabled:
            plan.new_group(inst.uid)
            continue
        fused = False
        if inst.kind in _FUSABLE_FOLLOWER_KINDS and inst.operands:
            # Prefer fusing into the largest producer operand (the one whose
            # round-trip we eliminate); bias vectors ride along for free.
            candidates = sorted(inst.operands,
                                key=lambda o: o.shape.num_elements,
                                reverse=True)
            for producer in candidates:
                gid = plan.group_of.get(producer.uid)
                if gid is None:
                    continue
                root = module.instructions[plan.members[gid][0]]
                if root.kind not in _FUSABLE_ROOT_KINDS:
                    continue  # never fuse compute into parameters/constants
                if consumers[producer.uid] != 1:
                    continue  # producer feeds others; keep it materialized
                if not _streams_with(producer, inst):
                    continue
                plan.join(inst.uid, gid)
                fused = True
                break
        if not fused:
            plan.new_group(inst.uid)
    return plan
