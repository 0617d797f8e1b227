"""E15 (paper synthesis): re-deriving the TPUv4i design point.

Sweeps MXU count x CMEM capacity under the air-cooling TDP ceiling
(Lesson 8 as a hard constraint) and prints the candidates with the Pareto
frontier marked. The shipped configuration — 4 MXUs, 128 MiB CMEM — sits
on the frontier; 8-MXU designs bust the air envelope or waste MXUs on
memory-bound apps.
"""

from repro.core import enumerate_candidates, evaluate_candidates, pareto_frontier
from repro.util.tables import Table

from benchmarks.conftest import record, run_once


def build_figure() -> str:
    # One batched grid pass in process; results are identical to the
    # per-point loop, in order.
    candidates = evaluate_candidates(
        enumerate_candidates(mxu_counts=(2, 4, 8),
                             cmem_mib_options=(0, 64, 128)))
    frontier = set(id(c) for c in pareto_frontier(candidates))
    table = Table([
        "config", "geomean qps", "TDP est W", "air-coolable", "die mm2 est",
        "qps/W", "on Pareto frontier",
    ], title="Figure: design-space sweep around TPUv4i (air-cooled frontier)")
    for candidate in sorted(candidates, key=lambda c: c.tdp_estimate_w):
        table.add_row([
            candidate.chip.name, candidate.geomean_qps,
            candidate.tdp_estimate_w, candidate.air_coolable,
            candidate.die_mm2_estimate, candidate.qps_per_watt,
            id(candidate) in frontier,
        ])
    chosen = [c for c in candidates
              if c.chip.mxus_per_core == 4 and "128m" in c.chip.name]
    footer = (f"shipped-like point ({chosen[0].chip.name}) on frontier: "
              f"{id(chosen[0]) in frontier}")
    return table.render() + "\n" + footer


def test_fig_design_space(benchmark):
    text = run_once(benchmark, build_figure)
    record("E15_fig_dse", text)
    assert "frontier" in text
