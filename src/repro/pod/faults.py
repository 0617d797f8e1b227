"""Link- and slice-level fault sources for pod-scale serving.

Extends the PR 3 fault subsystem one level up the hierarchy: where
:class:`~repro.faults.model.FaultModel` kills cores and chips, this
module kills and throttles *ICI links* — the axis the TPU v4 OCS paper
and the interconnect-resilience line of work make first-class.

The realized timeline reuses :class:`~repro.faults.model.FaultSchedule`
verbatim, with **link indices in the core slot**: a link outage is a
``(link, start, end)`` down interval, a congested/retraining link is a
slowdown window, and every boundary query (``outage_end``,
``slowdown_factor``, ``first_failure_between``) keeps the documented
half-open ``[start, end)`` contract. That reuse is deliberate — the
boundary semantics were pinned with regression tests before this module
was written, so link faults inherit an already-locked contract instead
of inventing a parallel one.

Streams fork exactly like the core/chip sources: link ``i`` draws from
``DeterministicRng(seed).fork(_LINK_SALT + i)``, slowdowns from
``_LINK_SLOWDOWN_SALT + i``, and slice ``j`` of a cluster reseeds the
whole model through ``_SLICE_SALT + j`` — so adding a link, a slice, or
a whole fault source never perturbs any other stream's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.faults.model import FaultModel, FaultSchedule, repair_seconds
from repro.util.rng import DeterministicRng

#: Stream salts, far above the FaultModel-internal salts (1 / 1_000 /
#: 1_000_000) and the cluster's replica salt (9_000_000) so no fork of
#: any seed can collide with another subsystem's stream.
_LINK_SALT = 17_000_000
_LINK_SLOWDOWN_SALT = 18_000_000
_SLICE_SALT = 19_000_000


@dataclass(frozen=True)
class PodFaultModel:
    """Seeded link/slice fault configuration (simulated seconds).

    The defaults are all-infinite MTBFs: a bare :class:`PodFaultModel`
    is zero-fault and realizes an empty link schedule, so simulating
    with it is bit-identical to simulating without it (the same
    identity contract every fault source in this repo honors).

    ``chip_faults`` optionally nests a plain :class:`FaultModel` whose
    core/chip/slowdown sources apply *within* each slice member; its
    retry budget and timeout also govern pod-level retries. Slowdown
    windows model links that are congested or retraining: traffic still
    flows, ``link_slowdown_factor`` times slower.
    """

    seed: int = 0
    link_mtbf_s: float = math.inf
    link_repair_s: float = 0.2
    link_slowdown_mtbf_s: float = math.inf
    link_slowdown_s: float = 0.25
    link_slowdown_factor: float = 4.0
    chip_faults: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # Same convention as FaultModel: validate at construction and
        # name the offending field, so a NaN or negative rate can never
        # reach schedule generation.
        for name in ("link_mtbf_s", "link_slowdown_mtbf_s",
                     "link_repair_s", "link_slowdown_s",
                     "link_slowdown_factor"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        for name in ("link_mtbf_s", "link_slowdown_mtbf_s"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        for name in ("link_repair_s", "link_slowdown_s"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        if not (math.isfinite(self.link_slowdown_factor)
                and self.link_slowdown_factor >= 1.0):
            raise ValueError(
                f"link_slowdown_factor must be finite and >= 1, "
                f"got {self.link_slowdown_factor}")

    @property
    def horizon_pad_s(self) -> float:
        return (self.chip_faults.horizon_pad_s
                if self.chip_faults is not None else 1.0)

    def link_schedule(self, num_links: int,
                      horizon_s: float) -> Optional[FaultSchedule]:
        """Realize link outages/slowdowns over a horizon.

        Returns a :class:`FaultSchedule` whose "cores" are link indices,
        or ``None`` for a linkless (single-chip) slice. Deterministic:
        the same (model, num_links, horizon) always yields the same
        timeline, and each link's streams are independent forks.
        """
        if num_links < 0:
            raise ValueError("num_links must be non-negative")
        if num_links == 0:
            return None
        root = DeterministicRng(self.seed)
        down: list = []
        for link in range(num_links):
            stream = root.fork(_LINK_SALT + link)
            for start in stream.event_times(self.link_mtbf_s, horizon_s):
                down.append(
                    (link, start,
                     start + repair_seconds(stream, self.link_repair_s)))
        slowdowns: list = []
        for link in range(num_links):
            stream = root.fork(_LINK_SLOWDOWN_SALT + link)
            for start in stream.event_times(self.link_slowdown_mtbf_s,
                                            horizon_s):
                slowdowns.append((link, start, start + self.link_slowdown_s,
                                  self.link_slowdown_factor))
        return FaultSchedule(num_links, horizon_s, down, slowdowns)

    def fork_for_slice(self, index: int) -> "PodFaultModel":
        """An independently-seeded copy for slice ``index`` of a cluster.

        Both the link seed and the nested chip-fault seed are forked, so
        every slice sees its own failures and adding a slice never moves
        another slice's draws (the cluster-replica forking rule, one
        level up).
        """
        if index < 0:
            raise ValueError("slice index must be non-negative")
        seed = DeterministicRng(self.seed).fork(_SLICE_SALT + index).seed
        chip = None
        if self.chip_faults is not None:
            chip = replace(
                self.chip_faults,
                seed=DeterministicRng(self.chip_faults.seed)
                .fork(_SLICE_SALT + index).seed)
        return replace(self, seed=seed, chip_faults=chip)
