"""Serving setup shared by every simulator and sweep.

Three decisions live in one place each: the Lesson 9 sizing rule
(:func:`~repro.serving.slo.largest_batch_within`,
:func:`~repro.serving.slo.slo_capacity`, :meth:`BatchPolicy.for_slo`),
the fault/stream front door (:mod:`repro.serving.server`'s
``arrival_times``, ``retry_policy``, ``resolve_schedule`` and
``serving_inputs``), and the :class:`ServingStats` fold
(``fold_stats``). Plus the argument checks every traffic sweep makes
before it prices anything.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.arch import TPUV4I
from repro.cluster.sweep import chaos_sweep
from repro.faults import FaultModel, FaultSchedule, fault_sweep
from repro.obs.metrics import collecting_metrics
from repro.obs.tracer import build_trace
from repro.pod.faults import PodFaultModel
from repro.pod.slicesim import SliceSimulator
from repro.pod.sweep import pod_chaos_sweep
from repro.pod.topology import slice_topology
from repro.serving import BatchPolicy, ServingSimulator, Slo
from repro.serving.continuous import llm_chaos_sweep, llm_sweep
from repro.serving.server import (DEFAULT_RETRY_BUDGET,
                                  DEFAULT_RETRY_TIMEOUT_S, arrival_times,
                                  fold_stats, resolve_schedule, retry_policy,
                                  serving_inputs)
from repro.serving.slo import largest_batch_within, slo_capacity
from repro.workloads import Request, app_by_name

TABLE = {1: 0.001, 2: 0.0015, 4: 0.0025, 8: 0.004}


def make_sim(point, slo_s=0.0025, max_batch=8):
    spec = app_by_name("cnn0")
    slo = Slo(slo_s)
    sim = ServingSimulator(point, spec, BatchPolicy.for_slo(max_batch, slo),
                           slo)
    sim.seed_latencies(TABLE)
    return sim


class TestLesson9Sizing:
    def test_largest_batch_that_fits_inclusive(self):
        assert largest_batch_within(TABLE, 0.0025, 0) == 4
        assert largest_batch_within(TABLE, 0.0024, 0) == 2
        assert largest_batch_within(TABLE, 1.0, 0) == 8

    def test_fallback_when_nothing_fits(self):
        assert largest_batch_within(TABLE, 1e-6, 0) == 0
        assert largest_batch_within(TABLE, 1e-6, 1) == 1

    def test_capacity_at_the_slo_batch(self):
        assert slo_capacity(TABLE, Slo(0.0025), 4) == 4 * 4 / 0.0025
        # Nothing fits: sweeps still size traffic, at batch 1.
        assert slo_capacity(TABLE, Slo(1e-6), 4) == 4 * 1 / 0.001

    def test_slo_policy_waits_a_quarter_of_the_limit(self):
        policy = BatchPolicy.for_slo(8, Slo(0.01))
        assert policy == BatchPolicy(max_batch=8, max_wait_s=0.0025)

    def test_simulator_and_design_point_report_zero(self, v4i_point):
        assert make_sim(v4i_point).max_slo_batch() == 4
        assert make_sim(v4i_point, slo_s=1e-6).max_slo_batch() == 0
        assert v4i_point.max_batch_under_slo(app_by_name("cnn0"), 1e-9) == 0

    @pytest.mark.parametrize("value", [0, -1])
    def test_batch_steps_names_the_value(self, value):
        with pytest.raises(ValueError,
                           match=f"max_batch must be >= 1, got {value}"):
            BatchPolicy.batch_steps(value)


class TestFrontDoor:
    def test_requests_and_timestamps_give_the_same_arrivals(self):
        times = [0.0, 0.001, 0.003]
        requests = [Request(t, "cnn0") for t in times]
        assert arrival_times(requests) == arrival_times(times) == times

    def test_unsorted_and_empty_streams(self):
        with pytest.raises(ValueError, match="sorted"):
            arrival_times([0.002, 0.001])
        with pytest.raises(ValueError, match="empty"):
            arrival_times([])
        assert arrival_times([], empty_ok=True) == []

    def test_retry_defaults_only_without_a_model(self):
        assert retry_policy(None) == (DEFAULT_RETRY_BUDGET,
                                      DEFAULT_RETRY_TIMEOUT_S)
        model = FaultModel(retry_budget=5, retry_timeout_s=0.5)
        assert retry_policy(model) == (5, 0.5)
        assert (PodFaultModel().retry_budget,
                PodFaultModel().retry_timeout_s) == retry_policy(None)
        pod = PodFaultModel(chip_faults=model)
        assert (pod.retry_budget, pod.retry_timeout_s) == (5, 0.5)

    def test_schedule_resolution_order(self):
        model = FaultModel(seed=3, core_mtbf_s=0.05, core_repair_s=0.01)
        explicit = FaultSchedule(4, 1.0, down=[(0, 0.1, 0.2)])
        # An explicit schedule wins over the model.
        assert resolve_schedule(explicit, model, 4, 1.0) is explicit
        # The model is drawn over the horizon when nothing is passed.
        assert resolve_schedule(None, model, 4, 1.0) == model.schedule(4, 1.0)
        # A zero-fault model, no model, or an empty schedule: faultless.
        assert resolve_schedule(None, FaultModel(seed=3), 4, 1.0) is None
        assert resolve_schedule(None, None, 4, 1.0) is None
        assert resolve_schedule(FaultSchedule(4, 1.0), model, 4, 1.0) is None

    def test_core_count_mismatch_names_the_owner(self):
        with pytest.raises(ValueError, match="built for 2 cores, replica has 4"):
            resolve_schedule(FaultSchedule(2, 1.0), None, 4, 1.0,
                             owner="replica")

    def test_serving_inputs_draws_past_the_last_arrival(self):
        model = FaultModel(seed=3, core_mtbf_s=0.05, core_repair_s=0.01,
                           horizon_pad_s=0.5, retry_budget=3)
        arrivals, schedule, budget, timeout = serving_inputs(
            [0.0, 0.25], model, None, 4)
        assert arrivals == [0.0, 0.25]
        assert schedule == model.schedule(4, 0.75)
        assert (budget, timeout) == (3, math.inf)

    def test_an_empty_stream_draws_nothing(self):
        model = FaultModel(seed=3, core_mtbf_s=0.05)
        assert serving_inputs([], model, None, 4, empty_ok=True) == (
            [], None, 2, math.inf)


class TestFold:
    def test_nothing_arrived_folds_to_zeros(self, v4i_point):
        stats = fold_stats(make_sim(v4i_point), None, 0, None, 0.0, 0.0,
                           [], [], 0, 0, 0)
        assert stats.duration_s == 0.0 and stats.availability == 1.0
        assert stats.throughput_qps == 0.0 and stats.mean_batch == 0.0

    def test_simulate_goes_through_the_fold(self, v4i_point):
        sim = make_sim(v4i_point)
        stats = sim.simulate([0.0, 0.001, 0.002])
        assert stats.requests == stats.served_requests == 3
        assert stats.duration_s > 0.002


class TestShareMemos:
    def test_serving_simulators_share_the_latency_memo(self, v4i_point):
        first, second = make_sim(v4i_point), make_sim(v4i_point)
        second.share_memos(first)
        assert second._latency_cache is first._latency_cache

    def test_slices_share_every_memo(self, v4i_point):
        spec = app_by_name("cnn0")
        slo = Slo(spec.slo_ms / 1e3)
        topology = slice_topology(TPUV4I, 2)
        first, second = (
            SliceSimulator(v4i_point, spec, BatchPolicy.for_slo(8, slo), slo,
                           topology=topology) for _ in range(2))
        second.share_memos(first)
        for name in ("_latency_cache", "_shards", "_state_latency"):
            assert getattr(second, name) is getattr(first, name)


# ------------------------------------------------- sweep argument checks

_SMALL = {"chips": (TPUV4I,)}


def _fault(**kw):
    return fault_sweep(FaultModel(), apps=("mlp0",), **_SMALL, **kw)


def _chaos(**kw):
    return chaos_sweep(0, apps=("mlp0",), **_SMALL, **kw)


def _pod(**kw):
    return pod_chaos_sweep(0, apps=("mlp0",), **_SMALL, **kw)


def _llm(**kw):
    return llm_sweep(0, models=("llm0",), **_SMALL, **kw)


def _llm_chaos(**kw):
    return llm_chaos_sweep(0, models=("llm0",), **_SMALL, **kw)


def _trace(**kw):
    if "duration_s" in kw:
        kw["serve_duration_s"] = kw.pop("duration_s")
    return build_trace(app_by_name("cnn0"), TPUV4I, **kw)


_SWEEPS = {"fault_sweep": (_fault, "max_batch"),
           "chaos_sweep": (_chaos, "max_batch"),
           "pod_chaos_sweep": (_pod, "max_batch"),
           "llm_sweep": (_llm, "slots"),
           "llm_chaos_sweep": (_llm_chaos, "slots"),
           "build_trace": (_trace, "max_batch")}

_BAD = ([("duration_s", v, "duration must be positive and finite")
         for v in (math.nan, math.inf, 0.0)]
        + [("utilization", v, r"utilization must be in \(0, 1\]")
           for v in (math.nan, 0.0, 1.5)]
        + [("batch", v, "must be >= 1") for v in (0, -1)])


@pytest.mark.parametrize("name", sorted(_SWEEPS))
@pytest.mark.parametrize("arg,value,message", _BAD,
                         ids=[f"{a}={v}" for a, v, _ in _BAD])
def test_sweeps_reject_bad_arguments_before_pricing(name, arg, value,
                                                    message):
    sweep, batch_arg = _SWEEPS[name]
    if arg == "batch":
        arg = batch_arg
        message = f"{arg} {message}"
    with collecting_metrics() as registry:
        with pytest.raises(ValueError, match=(
                f"{message}, got {re.escape(repr(value))}$")):
            sweep(**{arg: value})
        assert registry.counter("engine.grid.points").value == 0
