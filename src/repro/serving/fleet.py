"""Fleet sizing: how many chips does a production service need?

The purchasing decision behind Lesson 3, made concrete: given a target
aggregate rate and the app's latency SLO, find the largest SLO-feasible
batch, the per-chip throughput at that batch, the chip count (with
headroom for diurnal peaks), and the fleet's lifetime cost.

Resilient fleets are N+k: ``spare_chips=k`` provisions ``k`` extra hot
chips so the SLO still holds with any ``k`` chips failed; the spares
count in :attr:`FleetPlan.fleet_tco_usd`, the Lesson 3 number under
failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.design_point import DesignPoint
from repro.serving.slo import Slo
from repro.tco.model import ChipTco, chip_tco
from repro.workloads.models import WorkloadSpec


@dataclass(frozen=True)
class FleetPlan:
    """A sized fleet for one workload on one design point."""

    workload: str
    chip: str
    target_qps: float
    slo_batch: int
    per_chip_qps: float
    chips: int
    fleet_tco_usd: float
    fleet_power_w: float
    spare_chips: int = 0

    @property
    def cost_per_kqps_usd(self) -> float:
        """Lifetime dollars per thousand served qps — the comparison metric.

        0.0 for a degenerate zero-qps plan (never inf/ZeroDivisionError).
        """
        if self.target_qps <= 0:
            return 0.0
        return self.fleet_tco_usd / (self.target_qps / 1000.0)


def plan_fleet(point: DesignPoint, spec: WorkloadSpec, target_qps: float, *,
               slo: Optional[Slo] = None,
               peak_headroom: float = 1.4,
               spare_chips: int = 0) -> FleetPlan:
    """Size a fleet to serve ``target_qps`` under the app's SLO.

    ``peak_headroom`` provisions for diurnal peaks above the mean rate
    (a 1.4x peak-to-mean is typical of user-facing traffic).

    ``spare_chips`` makes the plan N+k: k additional hot chips beyond
    the SLO-holding count, so the fleet still meets the target with k
    chips failed. Spares are live: they draw power and cost TCO.

    Raises ValueError if no batch size meets the SLO on this chip — the
    workload simply cannot be served compliantly on this design.
    """
    if target_qps <= 0:
        raise ValueError("target rate must be positive")
    if peak_headroom < 1.0:
        raise ValueError("headroom must be >= 1")
    if spare_chips < 0:
        raise ValueError("spare chips must be non-negative")
    limit = slo if slo is not None else Slo(spec.slo_ms / 1e3)

    batch = point.max_batch_under_slo(spec, limit.limit_s)
    if batch == 0:
        raise ValueError(
            f"{spec.name} cannot meet its {limit.limit_s * 1e3:.0f} ms SLO "
            f"on {point.chip.name} at any batch size")
    evaluation = point.evaluate(spec, batch)
    serving = max(1, math.ceil(target_qps * peak_headroom
                               / evaluation.chip_qps))
    chips = serving + spare_chips
    tco: ChipTco = chip_tco(point.chip, evaluation.chip_power_w)
    return FleetPlan(
        workload=spec.name,
        chip=point.chip.name,
        target_qps=target_qps,
        slo_batch=batch,
        per_chip_qps=evaluation.chip_qps,
        chips=chips,
        fleet_tco_usd=chips * tco.total_usd,
        fleet_power_w=chips * evaluation.chip_power_w,
        spare_chips=spare_chips,
    )
