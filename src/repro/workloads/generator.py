"""Synthetic request traffic (substitute for production serving traces).

The paper's latency/batching/multi-tenancy results come from production
traffic we cannot ship. Poisson arrivals preserve what those experiments
actually exercise: stochastic arrival gaps, load levels relative to
capacity, and per-tenant rate mixes.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Sequence

from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class Request:
    """One inference request."""

    arrival_s: float
    tenant: str

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")


def _bulk_requests(arrivals: Sequence[float], tenant: str) -> List[Request]:
    """Construct a sorted request stream without per-instance overhead.

    A frozen dataclass pays two ``object.__setattr__`` calls plus a
    ``__post_init__`` check per instance; at sweep scale (hundreds of
    thousands of requests) that dominates traffic generation. Arrival
    times from a Poisson process are cumulative sums of positive gaps,
    so the non-negativity check is vacuous and the fields can be written
    directly. The resulting objects are indistinguishable from normally
    constructed ones (same type, fields, equality and hash).

    The cyclic garbage collector is paused while building: a request
    holds only a float and a string, so it can never be part of a
    cycle, yet millions of fresh objects would trigger repeated full
    collections that cost several times the construction itself.
    """
    new = Request.__new__
    out: List[Request] = []
    append = out.append
    collecting = gc.isenabled()
    gc.disable()
    try:
        for t in arrivals:
            r = new(Request)
            r.__dict__["arrival_s"] = t
            r.__dict__["tenant"] = tenant
            append(r)
    finally:
        if collecting:
            gc.enable()
    return out


class RequestGenerator:
    """Generates reproducible request streams."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = DeterministicRng(seed)

    def poisson(self, tenant: str, rate_qps: float,
                duration_s: float) -> List[Request]:
        """Stationary Poisson stream for one tenant."""
        arrivals = self.rng.poisson_arrivals(rate_qps, duration_s)
        return _bulk_requests(arrivals, tenant)

    def multi_tenant(self, tenants: Sequence[str], rates_qps: Sequence[float],
                     duration_s: float) -> List[Request]:
        """Merged, time-sorted streams for several tenants."""
        if len(tenants) != len(rates_qps):
            raise ValueError("tenants and rates must align")
        merged: List[Request] = []
        for tenant, rate in zip(tenants, rates_qps):
            merged.extend(self.poisson(tenant, rate, duration_s))
        merged.sort(key=lambda r: r.arrival_s)
        return merged
