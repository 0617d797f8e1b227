"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, workloads  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    Span, Tracer, phase_metrics, self_times, traced_call)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tiny_dse_rows(clock_ghz=1.05):
    from repro.core import dse
    chips = dse.enumerate_candidates((4,), (64,), (clock_ghz,))
    return dse.evaluate_candidates(chips, ("mlp1",), workers=1)


# ------------------------------------------------------------------ digest

def test_digest_changes_when_one_row_field_is_perturbed():
    rows = _tiny_dse_rows()
    golden = workloads.digest(rows)
    assert workloads.digest(_tiny_dse_rows()) == golden
    bumped = dataclasses.replace(
        rows[0], geomean_qps=rows[0].geomean_qps * (1 + 2 ** -52))
    assert workloads.digest([bumped]) != golden


def test_digest_mismatch_counts_as_failed_operation(tmp_path):
    bench = run.Bench(tmp_path, workloads.WORKLOADS["dse"], 0, "a" * 64)
    bench.accept("cold", {"setup_s": 0.1, "first_s": 1.0, "spins": [0.01],
                          "digests": ["a" * 64, "b" * 64, "a" * 64],
                          "warm_s": [0.1, 0.1]}, 3)
    assert bench.failed == 1
    bench.accept("disk_cold", {"setup_s": 0.1, "error": "boom"}, 1)
    assert bench.failed == 2
    bench.accept("disk_warm", {"setup_s": 0.1, "first_s": 1.0,
                               "spins": [0.01], "digests": []}, 1)
    assert bench.failed == 3


def test_golden_table_covers_every_input_set():
    table = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert sorted(table) == sorted(workloads.WORKLOADS)
    for digests in table.values():
        assert len(digests) == workloads.INPUT_SEEDS
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests)


def test_seeds_fold_onto_input_sets_and_dse_clocks_are_stable():
    assert workloads.input_seed(workloads.INPUT_SEEDS + 5) == 5
    clocks = workloads.dse_clocks(3)
    assert clocks == workloads.dse_clocks(3 + workloads.INPUT_SEEDS)
    assert len(set(clocks)) == workloads.DSE_CLOCKS
    with pytest.raises(ValueError):
        workloads.input_seed(-1)


# ------------------------------------------------------------------- spans

def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("a", "f", 0.0, 10.0, -1),
        Span("b", "g", 1.0, 6.0, 0),
        Span("c", "h", 2.0, 5.0, 1),
        Span("b", "g", 7.0, 8.0, 0),
        Span("a", "f", 12.0, 13.0, -1),
    ]
    layers, covered = self_times(spans)
    assert layers == {"a": 10.0 - 5.0 - 1.0 + 1.0, "b": 5.0 - 3.0 + 1.0,
                      "c": 3.0}
    assert covered == 11.0
    metrics = phase_metrics(spans, {}, wall_s=14.0)
    assert metrics["other.s"] == 3.0


def test_wrapped_calls_nest_and_self_times_add_up_to_the_wall():
    tracer = Tracer(targets=())

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        time.sleep(0.001)
        traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    tracer.reset()
    traced_middle()
    traced_leaf()
    assert [s.parent for s in tracer.spans] == [-1, 0, -1]
    layers, covered = self_times(tracer.spans)
    assert sum(layers.values()) == pytest.approx(covered, abs=1e-9)
    assert tracer.flush() == {"middle.calls": 1, "leaf.calls": 2}


def test_tracer_counts_a_tiny_sweep_and_uninstalls_cleanly():
    from repro.compiler import pipeline
    from repro.core import design_point
    from repro.engine.cache import EvalCache, set_cache
    from repro.engine.modules import clear_modules
    original = pipeline.compile_model
    previous = set_cache(EvalCache())
    design_point.clear_shared_design_points()
    clear_modules()
    tracer = Tracer()
    try:
        tracer.install()
        assert design_point.compile_model is not original
        assert tracer.unwrapped_bindings() == []
        rows, wall, metrics = traced_call(
            tracer, lambda: _tiny_dse_rows(clock_ghz=0.95))
    finally:
        tracer.uninstall()
        set_cache(previous)
        design_point.clear_shared_design_points()
    assert design_point.compile_model is original
    assert pipeline.compile_model is original
    assert metrics["compiler.calls"] == 1
    assert metrics["gridkernel.calls"] == 1
    assert metrics["gridkernel.points"] == 1
    assert metrics["workloads.build.calls"] == 1
    assert metrics["cache.get.calls"] == (metrics["cache.hits"]
                                          + metrics["cache.disk_hits"]
                                          + metrics["cache.misses"])
    assert 0 <= metrics["other.s"] <= wall
    assert len(rows) == 1


# ----------------------------------------------------------------- metrics

def test_metric_names_use_only_allowed_characters_and_match_the_config():
    end_to_end = list(run.END_TO_END)
    per_layer = run.per_layer_names()
    for name in end_to_end + per_layer:
        assert NAME.match(name), name
    assert len(set(per_layer)) == len(per_layer)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == end_to_end
    assert [m["name"] for m in config["per_layer"]] == per_layer
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in config["workloads"]] == list(
        workloads.WORKLOADS)


def test_count_metrics_are_recognised_in_every_phase():
    assert run.count_metric("compiler.calls")
    assert run.count_metric("disk_warm.compiler.calls")
    assert not run.count_metric("compiler.s")
    assert not run.count_metric("warm.other.s")
    assert not run.count_metric("trace.overhead_s")
