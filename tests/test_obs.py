"""Observability layer: metrics registry, span tracer, reports.

The load-bearing contracts:

* disabled observability is *invisible* — simulation, serving and cache
  results are bit-identical with the registry off and on;
* traces are deterministic — two identical runs export byte-identical
  Chrome JSON, and every timestamp comes from a simulated clock;
* tracing is a mode of ``FastReplay.run``: the traced result is
  bit-identical to the untraced one for every program, generation and
  dtype, so the spans are a pure side channel;
* the disabled guards cost a bounded share of a sweep's wall time.
"""

import json
import time

import pytest

from repro.arch import TPUV4I
from repro.compiler import compile_model
from repro.core import DesignPoint
from repro.engine.cache import EvalCache
from repro.engine.modules import built_module
from repro.faults import latency_table
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    build_trace,
    collecting_metrics,
    metrics,
    profile_result,
    render_snapshot,
    tier_report,
)
from repro.sim.lowered import FastReplay, lower_program
from repro.workloads import RequestGenerator, app_by_name

from tests.conftest import (IDENTITY_APPS, IDENTITY_BATCHES, IDENTITY_CHIPS,
                            supported_dtypes)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("c")
        reg.count("c", 2)
        reg.gauge("g").set(7.5)
        for value in (0.5, 3.0, 100.0):
            reg.histogram("h").observe(value)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 3
        assert snap["g"]["value"] == 7.5
        assert snap["h"]["count"] == 3
        assert snap["h"]["min"] == 0.5 and snap["h"]["max"] == 100.0

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("c")
        with reg.timer("t"):
            pass
        assert reg.snapshot() == {}
        assert reg.op_count == 0

    def test_histogram_bucketing(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("h", (1, 10, 100))
        for value in (0.5, 5, 50, 500):
            hist.observe(value)
        snap = hist.as_dict()
        # One observation per bucket: <=1, <=10, <=100, overflow.
        assert list(snap["buckets"].values()) == [1, 1, 1, 1]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry(enabled=True).histogram("h", (1, 1, 2))
        with pytest.raises(ValueError):
            MetricsRegistry(enabled=True).histogram("h2", ())

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_timer_accumulates_wall_time(self):
        reg = MetricsRegistry(enabled=True)
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        assert reg.snapshot()["t"]["value"] >= 0.0

    def test_collecting_metrics_restores_previous(self):
        before = metrics()
        with collecting_metrics() as reg:
            assert metrics() is reg
            assert reg.enabled
            reg.count("inside")
        assert metrics() is before
        assert not metrics().enabled

    def test_render_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.count("c", 2)
        reg.histogram("h").observe(1.0)
        text = render_snapshot(reg.snapshot())
        assert "c" in text and "h" in text


class TestDisabledPathIdentity:
    """With the registry off (the default), results never change."""

    def _serve(self, point):
        from repro.serving import BatchPolicy, ServingSimulator, Slo

        spec = app_by_name("cnn0")
        server = ServingSimulator(point, spec,
                                  BatchPolicy(max_batch=4, max_wait_s=0.001),
                                  Slo(spec.slo_ms / 1e3))
        requests = RequestGenerator(3).poisson(spec.name, 2000.0, 0.05)
        return server.simulate(requests)

    def test_serving_stats_identical_on_off(self, v4i_point):
        assert not metrics().enabled
        baseline = self._serve(v4i_point)
        with collecting_metrics() as reg:
            instrumented = self._serve(v4i_point)
            assert reg.op_count > 0  # the instrumentation did fire
        assert instrumented == baseline

    def test_design_point_run_identical_on_off(self):
        from repro.core import DesignPoint

        spec = app_by_name("mlp0")
        off = DesignPoint(TPUV4I, cache=EvalCache()).run(spec, 4)
        with collecting_metrics():
            on = DesignPoint(TPUV4I, cache=EvalCache()).run(spec, 4)
        assert on.cycles == off.cycles
        assert on.counters == off.counters
        assert on.report == off.report

    def test_disabled_guard_overhead_under_two_percent(self):
        """Analytic bound on what the disabled guards cost a faulted sweep.

        The guards are too cheap to time directly (a few hundred boolean
        checks inside a sweep drown in scheduler noise). Every recording
        op the enabled run observes is one guard check in the disabled
        run, and one check costs at most one disabled ``count()`` call,
        measured with a tight loop.
        """
        from repro.core.design_point import clear_shared_design_points
        from repro.engine.cache import set_cache
        from repro.faults import FaultModel, fault_sweep

        model = FaultModel(seed=11, core_mtbf_s=0.25, core_repair_s=0.05)

        def sweep():
            clear_shared_design_points()
            previous = set_cache(EvalCache())
            try:
                return fault_sweep(model, apps=("cnn0",), chips=(TPUV4I,),
                                   duration_s=0.5)
            finally:
                set_cache(previous)
                clear_shared_design_points()

        start = time.perf_counter()
        off = sweep()
        off_s = time.perf_counter() - start
        with collecting_metrics() as reg:
            on = sweep()
            ops = reg.op_count
        assert on == off
        assert ops > 0

        probe = MetricsRegistry(enabled=False)
        loops = 100_000
        start = time.perf_counter()
        for _ in range(loops):
            probe.count("probe")
        per_op_s = (time.perf_counter() - start) / loops
        assert 100.0 * ops * per_op_s / off_s < 2.0

    def test_fault_schedule_identical_on_off(self):
        from repro.faults import FaultModel

        model = FaultModel(seed=5, core_mtbf_s=0.2, slowdown_mtbf_s=0.4)
        off = model.schedule(4, 2.0)
        with collecting_metrics() as reg:
            on = model.schedule(4, 2.0)
            snap = reg.snapshot()
        assert on == off
        assert snap["faults.schedules"]["value"] == 1
        assert snap["faults.core_outages"]["value"] == len(
            [d for d in off.down]) - snap["faults.chip_outages"]["value"] * 4

    def test_cache_counters_report(self, tmp_path):
        from repro.core import DesignPoint

        spec = app_by_name("mlp0")
        with collecting_metrics() as reg:
            point = DesignPoint(TPUV4I, cache=EvalCache(disk_dir=tmp_path))
            point.run(spec, 4)
            DesignPoint(TPUV4I, cache=point.engine_cache()).run(spec, 4)
            snap = reg.snapshot()
        assert snap["engine.cache.misses"]["value"] == 1
        assert snap["engine.cache.disk_hits"]["value"] == 1
        assert snap["tier.compile_s"]["value"] > 0
        assert snap["tier.sim_s"]["value"] > 0


class TestTracedReplay:
    @pytest.mark.parametrize("chip", IDENTITY_CHIPS, ids=lambda c: c.name)
    @pytest.mark.parametrize("app", IDENTITY_APPS)
    @pytest.mark.parametrize("batch", IDENTITY_BATCHES)
    def test_bit_identical_to_fast_replay(self, compiled_programs, chip,
                                          app, batch):
        """Tracing is a pure side channel of the one replay loop."""
        chip, program = compiled_programs[(chip.name, app, batch)]
        lowered = lower_program(program, chip)
        replayer = FastReplay(chip)
        for dtype in supported_dtypes(chip):
            reference = replayer.run(lowered, dtype=dtype)
            tracer = SpanTracer()
            traced = replayer.run(lowered, dtype=dtype, tracer=tracer)
            assert traced.cycles == reference.cycles
            assert traced.counters == reference.counters
            assert traced.report == reference.report
            assert len(tracer.spans) > 0
            assert {span.group for span in tracer.spans} == {"core"}

    def test_spans_cover_simulated_time(self):
        spec = app_by_name("mlp0")
        compiled = compile_model(built_module(spec, 4), TPUV4I)
        tracer = SpanTracer()
        result = FastReplay(TPUV4I).run(
            lower_program(compiled.program, TPUV4I), tracer=tracer)
        horizon_us = result.seconds * 1e6
        for span in tracer.spans:
            assert span.ts_us >= 0.0
            assert span.ts_us + span.dur_us <= horizon_us * (1 + 1e-9)


class TestSpanTracer:
    def test_capacity_truncates_silently(self):
        tracer = SpanTracer(capacity=2)
        for index in range(5):
            tracer.record(f"s{index}", "cat", "g", "t", float(index), 1.0)
        assert len(tracer.spans) == 2
        assert tracer.truncated

    def test_chrome_trace_structure(self):
        tracer = SpanTracer()
        tracer.record("a", "compute", "core", "mxu", 0.0, 2.0,
                      (("cycles", 10),))
        tracer.record("b", "compute", "core", "vpu", 2.0, 1.0)
        trace = tracer.chrome_trace()
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"core", "mxu", "vpu"}
        assert len(complete) == 2
        assert complete[0]["args"] == {"cycles": 10}
        # Distinct tracks get distinct thread ids inside one process.
        assert complete[0]["pid"] == complete[1]["pid"]
        assert complete[0]["tid"] != complete[1]["tid"]

    def test_export_is_byte_stable(self):
        def build():
            tracer = SpanTracer()
            tracer.record("a", "c", "g", "t", 0.0, 1.0, (("k", "v"),))
            return tracer.export_json()

        first, second = build(), build()
        assert first == second
        assert json.loads(first)["otherData"]["truncated"] is False


class TestBuildTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        return build_trace(app_by_name("mlp0"), TPUV4I, batch=4,
                           serve=True, serve_duration_s=0.05)

    def test_export_deterministic(self, traced):
        again = build_trace(app_by_name("mlp0"), TPUV4I, batch=4,
                            serve=True, serve_duration_s=0.05)
        assert traced.tracer.export_json() == again.tracer.export_json()

    def test_all_groups_present(self, traced):
        groups = {span.group for span in traced.tracer.spans}
        assert groups == {"pipeline", "core", "serving"}

    def test_pipeline_phases_ordered(self, traced):
        phases = [s for s in traced.tracer.spans if s.group == "pipeline"]
        names = [s.name for s in phases]
        assert names == ["compile", "lower", "replay", "serve"]
        for earlier, later in zip(phases, phases[1:]):
            assert later.ts_us == pytest.approx(earlier.ts_us + earlier.dur_us)

    def test_summary_matches_result(self, traced):
        summary = traced.summary_dict()
        assert summary["cycles"] == traced.result.cycles
        assert summary["spans"] == len(traced.tracer.spans)

    def test_serve_spans_on_core_tracks(self, traced):
        serving = [s for s in traced.tracer.spans if s.group == "serving"]
        assert serving
        assert all(s.track.startswith("core") for s in serving)

    def test_int8_on_a_bf16_chip_traces_the_retargeted_program(self):
        spec = app_by_name("cnn0")
        int8 = build_trace(spec, TPUV4I, batch=8, dtype="int8", serve=False)
        point = DesignPoint(TPUV4I, cache=EvalCache())
        assert int8.result.seconds == latency_table(
            point, spec, [8], dtype="int8")[8]
        assert int8.result.seconds != build_trace(
            spec, TPUV4I, batch=8, serve=False).result.seconds

    def test_unsupported_dtype_is_a_value_error(self):
        with pytest.raises(ValueError, match="TPUv4i does not support fp8"):
            build_trace(app_by_name("mlp0"), TPUV4I, dtype="fp8")


class TestReports:
    def test_profile_result_fractions(self, v4i_point):
        result = v4i_point.run(app_by_name("mlp0"), 4)
        profile = profile_result(result)
        assert profile.cycles == result.cycles
        assert 0.0 < profile.mxu_fraction <= 1.0
        assert 0.0 <= profile.other_fraction <= 1.0
        assert "mxu busy" in profile.render()

    def test_tier_report_attributes_time(self):
        snapshot = {
            "tier.compile_s": {"type": "counter", "value": 3.0},
            "tier.sim_s": {"type": "counter", "value": 1.0},
            "engine.cache.disk_hits": {"type": "counter", "value": 2},
            "engine.cache.misses": {"type": "counter", "value": 2},
        }
        text = tier_report(snapshot)
        assert "75.0%" in text
        assert ("engine cache: 4 lookups, 2 disk hits, 2 misses "
                "(50% hit rate)") in text

    def test_tier_report_empty(self):
        assert "nothing attributed" in tier_report({})
