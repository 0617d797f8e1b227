"""Process-wide cache of lowered programs, next to the module cache.

Lowering a :class:`~repro.isa.program.Program` (see
:mod:`repro.sim.lowered`) is a one-shot pass, but several flows replay
one program more than once — an int8 table after a bf16 run, a serving
simulator re-driving its batch-step programs, property tests re-running
fixed programs. This registry is content-addressed: the key is the chip
configuration (frozen dataclass, hashable) plus :meth:`Program.
signature`, so two structurally identical programs — or one program
mutated by ``append`` between runs — never share a stale lowering.

Like :mod:`repro.engine.modules`, entries live for the process.
Lowered programs are deliberately *not* put in
the :class:`~repro.engine.cache.EvalCache` disk tier: simulation results
themselves are cached there, so a disk round-trip would only ever be
paid instead of the (cheaper) lowering pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.lowered import LoweredProgram, lower_program

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.chip import ChipConfig
    from repro.isa.program import Program

_LOWERED: dict[tuple, LoweredProgram] = {}
_LOCK = threading.Lock()


@dataclass
class LoweredCacheStats:
    """Lookup counters for the process-wide lowered-program cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


_STATS = LoweredCacheStats()


def lowered_program(program: "Program",
                    chip: "ChipConfig") -> LoweredProgram:
    """:func:`lower_program`, memoized per (chip, program content)."""
    key = (chip, program.signature())
    with _LOCK:
        lowered = _LOWERED.get(key)
    if lowered is None:
        _STATS.misses += 1
        lowered = lower_program(program, chip)
        with _LOCK:
            _LOWERED.setdefault(key, lowered)
    else:
        _STATS.hits += 1
    return lowered


def lowered_cache_size() -> int:
    with _LOCK:
        return len(_LOWERED)


def lowered_cache_stats() -> LoweredCacheStats:
    return _STATS


def clear_lowered() -> None:
    """Drop cached lowerings (tests / cold benchmark runs)."""
    global _STATS
    with _LOCK:
        _LOWERED.clear()
    _STATS = LoweredCacheStats()
