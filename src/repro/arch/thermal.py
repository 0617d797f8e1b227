"""Transient thermal model and DVFS throttling (Lesson 8, quantified).

The cooling module answers "does this TDP fit?"; this module answers the
sharper question: *how much performance does a chip actually sustain*
under continuous load. A first-order RC model integrates junction
temperature; when it crosses the throttle threshold the governor steps
the clock down (dynamic power ~ f^3 at constant-voltage-scaling margins),
and steps back up when there is headroom.

The punchline for TPUv4i: at 175 W under air the chip sustains 100% of
nominal frequency. Push the same air cooler to a 250-320 W design and
the *sustained* clock falls 10-25% — the paper's air-cooling ceiling is
about delivered performance, not just mechanical feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.arch.chip import ChipConfig
from repro.arch.cooling import CoolingSolution, DEFAULT_AMBIENT_C, solution_for

THROTTLE_TEMP_C = 95.0
RECOVERY_TEMP_C = 88.0
_FREQ_STEP = 0.05
_MIN_FREQ_FACTOR = 0.4
_POWER_EXPONENT = 3.0  # dynamic power ~ f^3 (voltage tracks frequency)


@dataclass(frozen=True)
class ThermalSample:
    """One timestep of a transient simulation."""

    time_s: float
    junction_c: float
    power_w: float
    freq_factor: float
    throttled: bool


class ThermalModel:
    """First-order RC junction model with a DVFS governor."""

    def __init__(self, chip: ChipConfig, *,
                 cooling: CoolingSolution = None,
                 ambient_c: float = DEFAULT_AMBIENT_C,
                 time_constant_s: float = 2.0) -> None:
        if time_constant_s <= 0:
            raise ValueError("time constant must be positive")
        self.chip = chip
        self.cooling = cooling if cooling is not None else solution_for(chip)
        self.ambient_c = ambient_c
        self.tau = time_constant_s

    # ------------------------------------------------------------ steady state

    def power_at_frequency(self, busy_power_w: float,
                           freq_factor: float) -> float:
        """Chip power when throttled to ``freq_factor`` of nominal clock."""
        if not 0 < freq_factor <= 1.0:
            raise ValueError("frequency factor must be in (0, 1]")
        dynamic = max(0.0, busy_power_w - self.chip.idle_w)
        return self.chip.idle_w + dynamic * freq_factor**_POWER_EXPONENT

    def steady_junction_c(self, power_w: float) -> float:
        return self.cooling.junction_temp_c(power_w, self.ambient_c)

    def sustained_frequency_factor(self, busy_power_w: float) -> float:
        """Largest clock factor whose steady-state stays under the limit.

        1.0 means no throttling: the design delivers its nominal
        performance indefinitely under this cooling solution.
        """
        if busy_power_w < 0:
            raise ValueError("power must be non-negative")
        factor = 1.0
        while factor > _MIN_FREQ_FACTOR:
            power = self.power_at_frequency(busy_power_w, factor)
            if self.steady_junction_c(power) <= THROTTLE_TEMP_C:
                return factor
            factor = round(factor - _FREQ_STEP, 10)
        return _MIN_FREQ_FACTOR

    # -------------------------------------------------------------- transient

    def simulate(self, load_power_w: Sequence[float], dt_s: float = 0.1
                 ) -> List[ThermalSample]:
        """Integrate temperature over a power trace with the governor active.

        ``load_power_w[i]`` is the *unthrottled* chip power demanded during
        interval ``i``; the governor scales the dynamic part down whenever
        the junction crosses the throttle threshold, and restores it once
        the junction recovers.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        junction = float(self.ambient_c)
        freq = 1.0
        samples: List[ThermalSample] = []
        for index, demand in enumerate(load_power_w):
            if demand < 0:
                raise ValueError("power demand must be non-negative")
            if junction > THROTTLE_TEMP_C and freq > _MIN_FREQ_FACTOR:
                freq = max(_MIN_FREQ_FACTOR, round(freq - _FREQ_STEP, 10))
            elif junction < RECOVERY_TEMP_C and freq < 1.0:
                freq = min(1.0, round(freq + _FREQ_STEP, 10))
            power = self.power_at_frequency(demand, freq)
            target = self.steady_junction_c(power)
            junction += (target - junction) * (1.0 - pow(2.718281828,
                                                         -dt_s / self.tau))
            samples.append(ThermalSample(
                time_s=(index + 1) * dt_s,
                junction_c=junction,
                power_w=power,
                freq_factor=freq,
                throttled=freq < 1.0,
            ))
        return samples

    @staticmethod
    def delivered_fraction(samples: Sequence[ThermalSample]) -> float:
        """Mean frequency factor over a transient run (delivered/nominal)."""
        if not samples:
            raise ValueError("no samples")
        return sum(s.freq_factor for s in samples) / len(samples)
