"""Total cost of ownership (Lesson 3: target perf/TCO, not perf/CapEx).

A parametric cost model: CapEx from a die-yield model over the process
node's wafer cost, plus memory/package/board/cooling; OpEx from measured
average power through PUE and electricity price over a deployment life.
The punchline experiment (E12) shows the generations *re-rank* when
ordered by perf/TCO instead of perf/CapEx — the cheap-to-buy chip is not
the cheap-to-own chip once power and cooling pay their way.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.tco.capex": ("die_cost_usd", "chip_capex_usd", "dies_per_wafer",
                        "die_yield"),
    "repro.tco.opex": ("OpexParams", "chip_opex_usd"),
    "repro.tco.model": ("ChipTco", "chip_tco", "perf_per_tco"),
})
