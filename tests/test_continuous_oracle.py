"""The continuous-batching engine loop against its per-slot oracle.

``ContinuousBatchingSimulator._run_core`` decodes in lockstep and reads
fault state once per schedule window; ``tests/reference/continuous.py``
keeps the per-slot loop it replaced. Random scenarios — one or two
cores, 1 or 8 slots, checkpointing and migration on and off, MTBF
kills, death at t=0, abutting outages, and outage or slowdown edges
placed exactly on step completions — must give equal stats, bit for
bit, from the same number of loop iterations and engine steps.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import TPUV3, TPUV4I
from repro.core.design_point import shared_design_point
from repro.faults.model import FaultModel, FaultSchedule
from repro.obs import collecting_metrics
from repro.serving import BatchPolicy, ContinuousBatchingSimulator, \
    RecoveryPolicy
from repro.workloads import GenRequest, generative_by_name
from tests.reference.continuous import run_core

LLM0 = generative_by_name("llm0")
COUNTERS = ("continuous.loop_iterations", "continuous.engine_steps")


def _sim(chip, slots, max_decode_len, recovery):
    """A simulator whose every (phase, bucket, batch) has its own latency.

    The latencies are not dyadic, so a loop that sums step times in
    another order, or picks another bucket or batch, changes the bits.
    """
    sim = ContinuousBatchingSimulator(
        shared_design_point(chip), LLM0, slots=slots,
        max_decode_len=max_decode_len, recovery=recovery)
    table = {}
    for bucket in LLM0.prompt_buckets:
        table[("prefill", bucket, 1)] = 0.0029 + 2.3e-5 * bucket
    for bucket in LLM0.kv_buckets:
        for step in BatchPolicy.batch_steps(sim.slots):
            table[("decode", bucket, step)] = (
                6.7e-4 + 1.1e-4 * step + 2.9e-6 * bucket)
            table[("snapshot", bucket, step)] = (
                3.1e-4 + 3.7e-5 * step + 1.3e-6 * bucket)
    sim.seed_latencies(table)
    return sim


def _run(sim, requests, faults, schedule, oracle=False, completions=None):
    """Simulate, through the oracle if asked; return (stats, counters)."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            def core_loop(self, core, *args):
                run_core(self, core, *args,
                         completions=(None if completions is None
                                      else completions.setdefault(core, [])))
            patch.setattr(ContinuousBatchingSimulator, "_run_core",
                          core_loop)
        with collecting_metrics() as registry:
            stats = sim.simulate(requests, faults=faults, schedule=schedule)
            snapshot = registry.snapshot()
    return stats, tuple(snapshot[name]["value"] for name in COUNTERS)


_requests = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 7.3e-4, 3.1e-3, 1.3e-2]),
              st.one_of(st.integers(1, 140), st.just(470)),
              st.integers(1, 80)),
    min_size=1, max_size=24)

_edges = st.lists(
    st.tuples(st.sampled_from(["outage", "abutting", "slowdown", "death",
                               "death0"]),
              st.integers(0, 1), st.integers(0, 10**6),
              st.integers(1, 40)),
    max_size=3)


@settings(max_examples=250, deadline=None)
@given(chip=st.sampled_from([TPUV4I, TPUV3]),
       slots=st.sampled_from([1, 8]),
       max_decode_len=st.sampled_from([None, 1, 6]),
       every=st.sampled_from([None, 0, 1, 3, 8]),
       migrate=st.booleans(),
       raw=_requests, edges=_edges,
       mtbf=st.sampled_from([None, 0.01, 0.04]),
       slow_mtbf=st.sampled_from([None, 0.02]),
       budget=st.integers(0, 4),
       timeout=st.sampled_from([math.inf, 0.03]),
       seed=st.integers(0, 10_000))
def test_lockstep_loop_matches_oracle(chip, slots, max_decode_len, every,
                                      migrate, raw, edges, mtbf, slow_mtbf,
                                      budget, timeout, seed):
    recovery = (None if every is None
                else RecoveryPolicy(checkpoint_every=every, migrate=migrate))
    requests, t = [], 0.0
    for gap, prompt, decode in raw:
        t += gap
        requests.append(GenRequest(t, prompt, decode))
    cores = chip.cores
    horizon = t + 1.0

    # Step completions of the faultless run, per core, so edges can
    # land exactly on them.
    completions: dict = {}
    _run(_sim(chip, slots, max_decode_len, recovery), requests, None, None,
         oracle=True, completions=completions)

    down, slowdowns = [], []
    if mtbf is not None or slow_mtbf is not None:
        drawn = FaultModel(seed=seed, core_mtbf_s=mtbf or math.inf,
                           core_repair_s=0.004,
                           slowdown_mtbf_s=slow_mtbf or math.inf,
                           slowdown_s=0.006,
                           slowdown_factor=2.5).schedule(cores, horizon)
        down += drawn.down
        slowdowns += drawn.slowdowns
    for kind, core, index, span in edges:
        core %= cores
        if kind == "death0":
            down.append((core, 0.0, math.inf))
            continue
        times = completions.get(core)
        if not times:
            continue
        start = times[index % len(times)]
        stop = times[(index + span) % len(times)]
        stop = stop if stop > start else start + 0.0021
        if kind == "outage":
            down.append((core, start, stop))
        elif kind == "abutting":
            down += [(core, start, stop), (core, stop, stop + 0.0017)]
        elif kind == "slowdown":
            slowdowns.append((core, start, stop, 1.5 + span % 3))
        else:
            down.append((core, start, math.inf))
    schedule = FaultSchedule(cores, horizon, down=down, slowdowns=slowdowns)
    faults = FaultModel(retry_budget=budget, retry_timeout_s=timeout)

    got, got_counts = _run(_sim(chip, slots, max_decode_len, recovery),
                           requests, faults, schedule)
    want, want_counts = _run(_sim(chip, slots, max_decode_len, recovery),
                             requests, faults, schedule, oracle=True)
    assert repr(got) == repr(want)
    assert got_counts == want_counts


def test_oracle_places_edges_on_completions():
    """The completion hook sees every committed step of a decode run."""
    requests = [GenRequest(0.0, 20, 9)]
    completions: dict = {}
    stats, (iterations, steps) = _run(_sim(TPUV4I, 8, None, None), requests,
                                      None, None, oracle=True,
                                      completions=completions)
    assert len(completions[0]) == steps == stats.prefill_steps + 8
    assert iterations < steps
    assert completions[0] == sorted(completions[0])
