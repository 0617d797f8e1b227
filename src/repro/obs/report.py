"""Profiling reports: where cycles and wall time actually go.

Two attributions, mirroring how the TPU papers argue from counters:

* :func:`profile_result` — one simulated run's cycles attributed to the
  MXU, VPU, DMA engines and sync stalls, plus byte traffic per memory
  level (the hardware-performance-counter view of the original TPU
  paper). Pure arithmetic over :class:`~repro.sim.perf.PerfCounters`,
  so it is deterministic and works on any ``SimResult`` regardless of
  which simulator path produced it.
* :func:`tier_report` — a sweep's wall time attributed to the
  compile / simulate / cache-lookup tiers, read from the timer counters
  :class:`~repro.core.design_point.DesignPoint` records when the metrics
  registry is enabled. Wall-clock by nature; it feeds the human-facing
  ``repro metrics`` output, never a determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunProfile", "profile_result", "tier_report"]


@dataclass(frozen=True)
class RunProfile:
    """Cycle and traffic attribution for one simulated execution.

    Busy fractions are each unit's busy cycles over total cycles; they
    legitimately sum past 1.0 when units overlap (that overlap is the
    pipelining the simulator models). ``other_fraction`` is the share of
    total cycles no unit claims — issue-bound and idle time.
    """

    chip: str
    program: str
    cycles: int
    seconds: float
    mxu_fraction: float
    vpu_fraction: float
    dma_fraction: float
    sync_stall_fraction: float
    bytes_by_level: tuple   # ((level, bytes), ...) in ledger order

    @property
    def other_fraction(self) -> float:
        """Cycles covered by no unit (clamped at 0 when units overlap)."""
        covered = (self.mxu_fraction + self.vpu_fraction
                   + self.dma_fraction + self.sync_stall_fraction)
        return max(0.0, 1.0 - covered)

    def render(self) -> str:
        lines = [
            f"{self.program} on {self.chip}: {self.cycles:,} cycles "
            f"({self.seconds * 1e3:.3f} ms)",
            f"  mxu busy     {self.mxu_fraction:6.1%}",
            f"  vpu busy     {self.vpu_fraction:6.1%}",
            f"  dma busy     {self.dma_fraction:6.1%}  "
            "(engine-cycles / cycles; >100% = concurrent engines)",
            f"  sync stalls  {self.sync_stall_fraction:6.1%}",
            f"  unattributed {self.other_fraction:6.1%}",
        ]
        for level, moved in self.bytes_by_level:
            lines.append(f"  {level:<12} {moved / 1e6:10.3f} MB moved")
        return "\n".join(lines)


def profile_result(result) -> RunProfile:
    """Attribute a :class:`~repro.sim.core.SimResult`'s cycles per unit."""
    counters = result.counters
    cycles = max(1, counters.cycles)
    return RunProfile(
        chip=result.report.chip_name,
        program=result.report.program_name,
        cycles=counters.cycles,
        seconds=result.report.seconds,
        mxu_fraction=counters.mxu_busy_cycles / cycles,
        vpu_fraction=counters.vpu_busy_cycles / cycles,
        dma_fraction=counters.dma_busy_cycles / cycles,
        sync_stall_fraction=counters.sync_stall_cycles / cycles,
        bytes_by_level=tuple(sorted(counters.bytes_by_level.items())),
    )


#: The DesignPoint timer counters, in presentation order.
TIER_COUNTERS = (
    ("tier.compile_s", "compile"),
    ("tier.sim_s", "simulate"),
    ("tier.cache_lookup_s", "cache lookup"),
)


def tier_report(snapshot: dict) -> str:
    """Render the compile/sim/cache wall-time attribution of a snapshot.

    Reads the ``tier.*`` timer counters plus the engine cache counters;
    returns an explanatory note when nothing was recorded (metrics were
    off, or every result came from a warm memo).
    """
    total = sum(snapshot[name]["value"]
                for name, _ in TIER_COUNTERS if name in snapshot)
    lines = []
    if total > 0:
        lines.append(f"wall-time tiers ({total:.3f} s attributed):")
        for name, label in TIER_COUNTERS:
            entry = snapshot.get(name)
            if entry is None:
                continue
            seconds = entry["value"]
            lines.append(f"  {label:<14} {seconds:8.3f} s "
                         f"({seconds / total:6.1%})")
    else:
        lines.append("wall-time tiers: nothing attributed "
                     "(metrics were off, or every lookup hit a warm memo)")
    disk = snapshot.get("engine.cache.disk_hits", {}).get("value", 0)
    misses = snapshot.get("engine.cache.misses", {}).get("value", 0)
    lookups = disk + misses
    if lookups:
        lines.append(
            f"engine cache: {lookups:g} lookups, {disk:g} disk hits, "
            f"{misses:g} misses ({disk / lookups:.0%} hit rate)")
    return "\n".join(lines)
