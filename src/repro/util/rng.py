"""Deterministic random number generation for simulations.

Every stochastic component in the library (request generators, yield models,
serving simulators) draws from a :class:`DeterministicRng` seeded explicitly,
so simulation results are reproducible run to run and in tests.
"""

from __future__ import annotations

import math
from typing import List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with the distributions the simulators need.

    Thin wrapper over :class:`numpy.random.Generator` that (a) forces an
    explicit seed and (b) exposes only the handful of named distributions
    used across the library, making stochastic call sites self-describing.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._gen = np.random.default_rng(seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream; used to give subsystems their own RNG."""
        return DeterministicRng((self.seed * 1_000_003 + salt) % (2**63))

    def exponential(self, mean: float) -> float:
        """One sample from Exp with the given mean (inter-arrival times)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self._gen.exponential(mean))

    def poisson_arrivals(self, rate_per_s: float, duration_s: float) -> List[float]:
        """Arrival timestamps of a Poisson process over [0, duration_s).

        Draws gaps in vectorized chunks but stays bit-identical to the
        obvious scalar loop (``now += exp(); stop when now >= duration``):
        numpy fills an array from the same stream element by element, a
        running ``cumsum`` seeded with ``now`` performs the same float
        additions in the same order, and when the terminating draw lands
        mid-chunk the generator state is rewound and exactly the draws
        the scalar loop would have consumed are re-drawn — so a later
        caller of this generator sees an unchanged stream.
        """
        if not math.isfinite(rate_per_s) or rate_per_s <= 0:
            raise ValueError(
                f"rate must be positive and finite, got {rate_per_s!r}")
        if not math.isfinite(duration_s) or duration_s < 0:
            raise ValueError("duration must be non-negative and finite, "
                             f"got {duration_s!r}")
        mean = 1.0 / rate_per_s
        gen = self._gen
        bit_gen = gen.bit_generator
        arrivals: List[float] = []
        now = 0.0
        chunk = 4096
        while True:
            state = bit_gen.state
            gaps = gen.exponential(mean, chunk)
            cum = np.cumsum(np.concatenate(((now,), gaps)))[1:]
            stop = int(np.searchsorted(cum, duration_s, side="left"))
            if stop < chunk:
                # The terminating draw is inside this chunk: rewind and
                # consume exactly stop+1 draws, as the scalar loop would.
                bit_gen.state = state
                tail = gen.exponential(mean, stop + 1)
                if stop:
                    cum = np.cumsum(np.concatenate(((now,), tail)))[1:]
                    arrivals.extend(cum[:stop].tolist())
                return arrivals
            arrivals.extend(cum.tolist())
            now = float(cum[-1])

    def event_times(self, mean_interval_s: float,
                    horizon_s: float) -> List[float]:
        """Timestamps of a Poisson event process over ``[0, horizon_s)``.

        Like :meth:`poisson_arrivals` but parameterized by the mean gap
        (an MTBF, say) instead of a rate, and tolerant of *no* events: an
        infinite mean interval — "this never fails" — returns an empty
        list without consuming any randomness.
        """
        if mean_interval_s <= 0:
            raise ValueError(
                f"mean interval must be positive, got {mean_interval_s}")
        if math.isinf(mean_interval_s) or horizon_s <= 0:
            return []
        times: List[float] = []
        now = 0.0
        while True:
            now += float(self._gen.exponential(mean_interval_s))
            if now >= horizon_s:
                return times
            times.append(now)

    def lognormal(self, mean: float, sigma: float = 0.25) -> float:
        """A positive sample with the given *linear-space* mean.

        Used for service-time jitter: the returned values average ``mean``.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        mu = np.log(mean) - 0.5 * sigma**2
        return float(self._gen.lognormal(mu, sigma))

    def lognormal_rounds(self, means: Sequence[float], rounds: int,
                         sigma: float = 0.25) -> np.ndarray:
        """Draw ``rounds`` rounds of :meth:`lognormal` over ``means`` at once.

        Row ``i`` holds round ``i``'s samples, one per mean, and the
        stream is the scalar loop's (``for each round: for each mean:
        lognormal(mean, sigma)``): numpy fills an array of means element
        by element from the same generator, and each mean's ``mu`` is the
        float the scalar call computes.
        """
        for mean in means:
            if mean <= 0:
                raise ValueError(f"mean must be positive, got {mean}")
        mu = [np.log(mean) - 0.5 * sigma**2 for mean in means]
        return self._gen.lognormal(np.tile(mu, rounds), sigma).reshape(
            rounds, len(means))

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def normal_array(self, shape: Sequence[int], scale: float = 1.0) -> np.ndarray:
        """A float32 array of N(0, scale) samples (synthetic weights/inputs)."""
        return (self._gen.standard_normal(tuple(shape)) * scale).astype(np.float32)
