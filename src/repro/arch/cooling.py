"""Cooling envelope model (Lesson 8: inference DSAs need air cooling).

Training pods live in a handful of purpose-built datacenters where liquid
cooling amortizes; inference chips deploy next to users in many ordinary
datacenters, so they must live inside an air-cooled server's thermal budget.
The model prices both solutions and computes junction temperature, giving
the DSE a hard feasibility constraint and the TCO model a cost input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.chip import ChipConfig

MAX_JUNCTION_C = 100.0
DEFAULT_AMBIENT_C = 30.0


@dataclass(frozen=True)
class CoolingSolution:
    """One cooling technology.

    Attributes:
        name: ``"air"`` or ``"liquid"``.
        thermal_resistance_c_per_w: junction-to-ambient thermal resistance.
        max_sustained_w: practical per-chip power ceiling for the solution.
        capex_usd_per_chip: heatsink/fans vs cold plates, pumps, manifolds.
        opex_w_per_chip_w: overhead power (fans/pumps) per watt removed.
        deployable_everywhere: whether ordinary datacenters support it —
            the property Lesson 8 turns on.
    """

    name: str
    thermal_resistance_c_per_w: float
    max_sustained_w: float
    capex_usd_per_chip: float
    opex_w_per_chip_w: float
    deployable_everywhere: bool

    def __post_init__(self) -> None:
        if self.thermal_resistance_c_per_w <= 0:
            raise ValueError("thermal resistance must be positive")
        if self.max_sustained_w <= 0:
            raise ValueError("power ceiling must be positive")

    def junction_temp_c(self, power_w: float,
                        ambient_c: float = DEFAULT_AMBIENT_C) -> float:
        """Steady-state junction temperature at the given power."""
        if power_w < 0:
            raise ValueError("power must be non-negative")
        return ambient_c + self.thermal_resistance_c_per_w * power_w

    def supports(self, power_w: float,
                 ambient_c: float = DEFAULT_AMBIENT_C) -> bool:
        """Whether the chip stays under both the power and junction limits."""
        return (power_w <= self.max_sustained_w
                and self.junction_temp_c(power_w, ambient_c) <= MAX_JUNCTION_C)


# An air-cooled server sled tops out near ~200 W per accelerator card;
# TPUv4i's 175 W TDP sits just inside. Liquid cold plates reach TPUv3's
# 450 W but cost far more and restrict where the chip can be deployed.
AIR_COOLING = CoolingSolution(
    name="air",
    thermal_resistance_c_per_w=0.33,
    max_sustained_w=200.0,
    capex_usd_per_chip=80.0,
    opex_w_per_chip_w=0.12,
    deployable_everywhere=True,
)

LIQUID_COOLING = CoolingSolution(
    name="liquid",
    thermal_resistance_c_per_w=0.10,
    max_sustained_w=600.0,
    capex_usd_per_chip=350.0,
    opex_w_per_chip_w=0.05,
    deployable_everywhere=False,
)

_SOLUTIONS = {"air": AIR_COOLING, "liquid": LIQUID_COOLING}


def solution_for(chip: ChipConfig) -> CoolingSolution:
    """The cooling solution a chip config declares."""
    return _SOLUTIONS[chip.cooling]


def air_coolable(tdp_w: float, ambient_c: float = DEFAULT_AMBIENT_C) -> bool:
    """The Lesson 8 predicate: can this TDP ship in an air-cooled server?"""
    return AIR_COOLING.supports(tdp_w, ambient_c)
