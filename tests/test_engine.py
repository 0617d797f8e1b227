"""The shared evaluation engine: cache correctness and determinism.

The engine's contract is strict: cached and uncached evaluation of the
same (chip, compiler, workload, batch, budget) inputs must produce
*identical* records — not approximately equal ones. These tests assert
that, plus the disk tier's round-trip/invalidation behavior, simulator
reentrancy, and that sweeps run in process with no pool machinery.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import threading

import pytest

import repro
from repro.arch.chip import TPUV1, TPUV4I
from repro.compiler.pipeline import UnsupportedDtypeError, compile_model
from repro.compiler.versions import RELEASES
from repro.core.design_point import (
    DesignPoint,
    clear_shared_design_points,
    shared_design_point,
)
from repro.core.dse import (
    cmem_sweep,
    enumerate_candidates,
    evaluate_candidate,
    evaluate_candidates,
)
from repro.engine import (
    EvalCache,
    GridJob,
    chip_fingerprint,
    compiler_fingerprint,
    eval_key,
    evaluate_jobs,
    get_cache,
    run_grid,
    set_cache,
)
from repro.engine.keys import SCHEMA_VERSION
from repro.engine.modules import built_module
from repro.faults.sweep import latency_table
from repro.serving.continuous import phase_latency_table
from repro.sim.core import TensorCoreSim
from repro.util.units import MIB
from repro.workloads.generative import generative_by_name
from repro.workloads.models import app_by_name
from tests.conftest import cold_engine

# Small, fast workloads: the contract is about identity, not scale.
GRID_CHIPS = (TPUV4I, TPUV4I.variant("v4i-2mxu", mxus_per_core=2))
GRID_APPS = ("mlp0", "cnn0")
GRID_BATCHES = (1, 8)


def _fields(evaluation):
    return (evaluation.workload, evaluation.chip, evaluation.batch,
            evaluation.latency_s, evaluation.chip_qps,
            evaluation.chip_power_w, evaluation.achieved_tops_chip,
            evaluation.mxu_utilization, evaluation.cmem_hit_fraction)


class TestCacheEquivalence:
    def test_cache_on_off_identical_over_grid(self, tmp_path):
        """Cached and uncached evaluation agree field-for-field."""
        cache = EvalCache(disk_dir=tmp_path)
        off = EvalCache()
        for chip in GRID_CHIPS:
            for app in GRID_APPS:
                spec = app_by_name(app)
                for batch in GRID_BATCHES:
                    uncached = DesignPoint(chip, cache=off).evaluate(
                        spec, batch)
                    cold = DesignPoint(chip, cache=cache).evaluate(spec, batch)
                    # Fresh point, warm cache: must come from the cache.
                    before = cache.stats.disk_hits
                    warm = DesignPoint(chip, cache=cache).evaluate(spec, batch)
                    assert cache.stats.disk_hits > before
                    assert _fields(uncached) == _fields(cold) == _fields(warm)

    def test_sim_results_identical_cache_on_off(self, tmp_path):
        spec = app_by_name("cnn0")
        cache = EvalCache(disk_dir=tmp_path)
        cold = DesignPoint(TPUV4I, cache=cache).run(spec, 4)
        warm = DesignPoint(TPUV4I, cache=cache).run(spec, 4)
        off = DesignPoint(TPUV4I, cache=EvalCache()).run(spec, 4)
        assert cold.cycles == warm.cycles == off.cycles
        assert cold.counters == warm.counters == off.counters

    def test_cold_engine_matches_cached(self):
        spec = app_by_name("mlp0")
        with cold_engine():
            legacy = DesignPoint(TPUV4I).evaluate(spec, 4)
        engined = DesignPoint(TPUV4I).evaluate(spec, 4)
        assert _fields(legacy) == _fields(engined)


class TestDiskTier:
    def test_round_trip_across_cache_instances(self, tmp_path):
        spec = app_by_name("mlp0")
        writer = EvalCache(disk_dir=tmp_path)
        first = DesignPoint(TPUV4I, cache=writer).evaluate(spec, 2)
        assert writer.disk_entry_count() > 0
        assert writer.disk_size_bytes() > 0

        # A fresh cache over the same directory = a new process.
        reader = EvalCache(disk_dir=tmp_path)
        second = DesignPoint(TPUV4I, cache=reader).evaluate(spec, 2)
        assert reader.stats.disk_hits >= 1
        assert reader.stats.misses == 0
        assert _fields(first) == _fields(second)

    def test_invalidation_on_chip_and_compiler_change(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)

        # Any chip-field change must miss (key covers every field).
        tweaked = TPUV4I.variant("v4i-fast", clock_hz=TPUV4I.clock_hz * 1.1)
        fresh = EvalCache(disk_dir=tmp_path)
        DesignPoint(tweaked, cache=fresh).evaluate(spec, 2)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses > 0

        # So must a different compiler release.
        fresh2 = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, version=RELEASES[0],
                    cache=fresh2).evaluate(spec, 2)
        assert fresh2.stats.disk_hits == 0

    def test_corrupt_disk_entry_is_recomputed(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        result = DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)
        packs = list(tmp_path.glob("*.pack"))
        assert packs
        for path in packs:
            path.write_bytes(b"not a pack")
        reader = EvalCache(disk_dir=tmp_path)
        again = DesignPoint(TPUV4I, cache=reader).evaluate(spec, 2)
        assert _fields(result) == _fields(again)
        assert reader.stats.corrupt == len(packs)
        assert reader.stats.disk_hits == 0

    def test_clear_removes_disk_entries(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)
        cache.clear()
        assert cache.disk_entry_count() == 0


class TestKeys:
    def test_fingerprints_stable_and_sensitive(self):
        assert chip_fingerprint(TPUV4I) == chip_fingerprint(TPUV4I)
        assert (chip_fingerprint(TPUV4I)
                != chip_fingerprint(TPUV4I.variant("x", clock_hz=1e9)))
        assert (compiler_fingerprint(RELEASES[0])
                != compiler_fingerprint(RELEASES[-1]))

    def test_eval_key_covers_every_input(self):
        chip_fp = chip_fingerprint(TPUV4I)
        comp_fp = compiler_fingerprint(RELEASES[-1])
        base = eval_key("sim", chip_fp, comp_fp, "mlp0", 4, None, "bf16")
        assert base != eval_key("eval", chip_fp, comp_fp, "mlp0", 4,
                                None, "bf16")
        assert base != eval_key("sim", chip_fp, comp_fp, "mlp0", 8,
                                None, "bf16")
        assert base != eval_key("sim", chip_fp, comp_fp, "mlp0", 4,
                                64 * MIB, "bf16")
        assert base != eval_key("sim", chip_fp, comp_fp, "mlp0", 4,
                                None, "int8")
        assert base != eval_key("sim", chip_fp, comp_fp, "cnn0", 4,
                                None, "bf16")

    def test_eval_key_phase_and_kv_bucket(self):
        """Phase/kv-bucket enter the key only when set (legacy bytes)."""
        chip_fp = chip_fingerprint(TPUV4I)
        comp_fp = compiler_fingerprint(RELEASES[-1])
        base = eval_key("sim", chip_fp, comp_fp, "llm0.decode@256", 4,
                        None, "bf16")
        # Explicit None must reproduce the legacy key exactly.
        assert base == eval_key("sim", chip_fp, comp_fp, "llm0.decode@256",
                                4, None, "bf16", phase=None, kv_bucket=None)
        phased = eval_key("sim", chip_fp, comp_fp, "llm0.decode@256", 4,
                          None, "bf16", phase="decode", kv_bucket=256)
        assert phased != base
        assert phased != eval_key("sim", chip_fp, comp_fp, "llm0.decode@256",
                                  4, None, "bf16", phase="prefill",
                                  kv_bucket=256)
        assert phased != eval_key("sim", chip_fp, comp_fp, "llm0.decode@256",
                                  4, None, "bf16", phase="decode",
                                  kv_bucket=512)


class TestDtypeIdentity:
    """dtype is part of every evaluation key, memo, compile and store."""

    def test_int8_keys_are_the_retarget_loop_keys(self):
        """The keys a warmed int8 disk tier holds stay reachable."""
        point = DesignPoint(TPUV4I, cache=EvalCache())
        spec = app_by_name("cnn0")
        assert point.key("sim", spec, 4, dtype="int8") == eval_key(
            "sim", point.chip_fp, point.compiler_fp, "cnn0", 4, None, "int8")
        llm0 = generative_by_name("llm0")
        for phase, bucket in (("prefill", llm0.prompt_buckets[0]),
                              ("decode", llm0.kv_buckets[0])):
            pspec = getattr(llm0, phase)(bucket)
            assert point.key("sim", pspec, 2, dtype="int8") == eval_key(
                "sim", point.chip_fp, point.compiler_fp, pspec.name, 2,
                None, "int8", phase=phase, kv_bucket=bucket)
        assert SCHEMA_VERSION == 2

    def test_dtypes_never_share_a_result(self, tmp_path):
        spec = app_by_name("cnn0")
        point = DesignPoint(TPUV4I, cache=EvalCache(disk_dir=tmp_path))
        bf16 = point.run(spec, 8)
        int8 = point.run(spec, 8, dtype="int8")
        assert int8.seconds != bf16.seconds
        assert point.run(spec, 8) is bf16
        assert point.run(spec, 8, dtype="int8") is int8
        assert (point.compiled(spec, 8, dtype="int8").program.signature()
                != point.compiled(spec, 8).program.signature())
        # A second point over the same cache reads each dtype's record.
        fresh = DesignPoint(TPUV4I, cache=point.engine_cache())
        assert fresh.lookup("sim", spec, 8, dtype="int8") == int8
        assert fresh.lookup("sim", spec, 8) == bf16

    def test_grid_matches_per_point_at_every_dtype(self):
        spec = app_by_name("cnn0")
        jobs = [GridJob(DesignPoint(TPUV4I, cache=EvalCache()),
                        spec, batch, dtype=dtype)
                for batch in (1, 8) for dtype in ("bf16", "int8")]
        per_point = DesignPoint(TPUV4I, cache=EvalCache())
        for job, result, evaluation in zip(jobs, run_grid(jobs),
                                           evaluate_jobs(jobs)):
            assert result == per_point.run(spec, job.batch, dtype=job.dtype)
            assert _fields(evaluation) == _fields(per_point.evaluate(
                spec, job.batch, dtype=job.dtype))

    def test_private_cache_receives_the_int8_entries(self, tmp_path):
        previous = set_cache(EvalCache())
        try:
            private = EvalCache(disk_dir=tmp_path)
            point = DesignPoint(TPUV4I, cache=private)
            spec = app_by_name("cnn0")
            table = latency_table(point, spec, [1, 2], dtype="int8")
            assert private.disk_entry_count() == 2
            assert private.get(point.key(
                "sim", spec, 2, dtype="int8")).seconds == table[2]
            v1 = DesignPoint(TPUV1, cache=private)
            phases = phase_latency_table(v1, generative_by_name("llm0"), 2)
            assert private.disk_entry_count() == 2 + len(phases)
            assert get_cache().stats.puts == 0
        finally:
            set_cache(previous)

    def test_built_module_retargets_the_shared_bf16_build(self):
        spec = app_by_name("mlp0")
        bf16 = built_module(spec, 2)
        assert built_module(spec, 2, "bf16") is bf16
        assert bf16.name == spec.build(2).name
        int8 = built_module(spec, 2, "int8")
        assert int8.name == f"{bf16.name}.int8"
        compile_model(int8, TPUV1)
        with pytest.raises(UnsupportedDtypeError):
            compile_model(bf16, TPUV1)

    def test_default_dtype_is_the_chips_native_dtype(self):
        spec = app_by_name("cnn0")
        native = DesignPoint(TPUV1, cache=EvalCache())
        explicit = DesignPoint(TPUV1, cache=EvalCache())
        for kind in ("sim", "eval"):
            assert (native.key(kind, spec, 8)
                    == explicit.key(kind, spec, 8, dtype="int8"))
        assert native.run(spec, 8) == explicit.run(spec, 8, dtype="int8")
        assert (_fields(native.evaluate(spec))
                == _fields(explicit.evaluate(spec, dtype="int8")))
        assert native.compiled(spec, 8) is native.compiled(spec, 8, None,
                                                           "int8")
        job = GridJob(native, spec, 8)
        assert job.resolved_dtype == "int8"
        assert _fields(evaluate_jobs([job])[0]) == _fields(
            explicit.evaluate(spec, 8, dtype="int8"))
        # bf16 chips keep their keys: the default is bf16 there.
        v4i = DesignPoint(TPUV4I)
        assert v4i.key("eval", spec, 8) == v4i.key("eval", spec, 8,
                                                   dtype="bf16")

    def test_bf16_on_tpuv1_is_a_value_error(self):
        point = DesignPoint(TPUV1, cache=EvalCache())
        with pytest.raises(ValueError, match="TPUv1 does not support"):
            point.compile(app_by_name("cnn0"), 8, dtype="bf16")


class TestRecordKinds:
    """One key, lookup and store path for both record kinds."""

    def test_lookup_and_store_round_trip_each_kind(self, tmp_path):
        spec = app_by_name("mlp0")
        point = DesignPoint(TPUV4I, cache=EvalCache(disk_dir=tmp_path))
        assert point.lookup("sim", spec, 2) is None
        assert point.lookup("eval", spec, 2) is None
        result = point.run(spec, 2)
        assert point.lookup("sim", spec, 2) is result
        assert point.lookup("eval", spec, 2) is None
        evaluation = point.evaluate(spec, 2)
        assert point.lookup("eval", spec, 2) is evaluation
        assert point.key("sim", spec, 2) != point.key("eval", spec, 2)
        # A second point over the same cache reads both kinds' records.
        fresh = DesignPoint(TPUV4I, cache=point.engine_cache())
        assert fresh.lookup("sim", spec, 2) == result
        assert fresh.lookup("eval", spec, 2) == evaluation
        assert fresh.lookup("sim", spec, 4) is None

    def test_store_publishes_under_the_key(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        point = DesignPoint(TPUV4I, cache=cache)
        result = DesignPoint(TPUV4I, cache=EvalCache()).run(spec, 2)
        point.store("sim", spec, 2, None, result)
        assert cache.get(point.key("sim", spec, 2)) == result
        assert point.run(spec, 2) is result

    @pytest.mark.parametrize("call", [
        lambda p, s: p.key("result", s, 2),
        lambda p, s: p.lookup("result", s, 2),
        lambda p, s: p.store("result", s, 2, None, object()),
    ], ids=["key", "lookup", "store"])
    def test_unknown_kind_is_a_named_error(self, call):
        point = DesignPoint(TPUV4I, cache=EvalCache())
        with pytest.raises(ValueError, match="unknown record kind 'result'"):
            call(point, app_by_name("mlp0"))
        assert point.engine_cache().stats.puts == 0

    def test_grid_fills_only_the_misses(self):
        spec = app_by_name("mlp0")
        point = DesignPoint(TPUV4I, cache=EvalCache())
        warm_run = point.run(spec, 2)
        warm_eval = point.evaluate(spec, 4)
        jobs = [GridJob(point, spec, batch) for batch in (1, 2, 4)]
        results = run_grid(jobs)
        assert results[1] is warm_run
        assert results[0] is point.lookup("sim", spec, 1)
        evaluations = evaluate_jobs(jobs)
        assert evaluations[2] is warm_eval
        reference = DesignPoint(TPUV4I, cache=EvalCache())
        assert [_fields(e) for e in evaluations] == [
            _fields(reference.evaluate(spec, b)) for b in (1, 2, 4)]
        assert [point.lookup("eval", spec, b) for b in (1, 2, 4)] == \
            evaluations


class TestSharedRegistry:
    """shared_design_point is keyed by the (chip, version) values."""

    def test_equal_values_share_one_point(self):
        clear_shared_design_points()
        twin = TPUV4I.variant(TPUV4I.name)
        assert twin is not TPUV4I and twin == TPUV4I
        point = shared_design_point(TPUV4I)
        assert shared_design_point(twin) is point
        assert point.chip_fp == chip_fingerprint(twin)
        assert point.compiler_fp == compiler_fingerprint(RELEASES[-1])

    def test_any_field_or_release_separates_points(self):
        clear_shared_design_points()
        point = shared_design_point(TPUV4I)
        assert shared_design_point(
            TPUV4I.variant(TPUV4I.name, clock_hz=1e9)) is not point
        assert shared_design_point(TPUV4I, RELEASES[0]) is not point

    def test_numeric_forms_share_one_key_in_either_order(self):
        """The registered point's key does not depend on which equal
        form (``10**9`` or ``1e9`` Hz) registered first."""
        as_int = TPUV4I.variant("x", clock_hz=10**9)
        as_float = TPUV4I.variant("x", clock_hz=1e9)
        for first, second in ((as_int, as_float), (as_float, as_int)):
            clear_shared_design_points()
            point = shared_design_point(first)
            assert shared_design_point(second) is point
            assert point.chip_fp == chip_fingerprint(second)
        clear_shared_design_points()


class TestDseThroughEngine:
    def test_evaluate_candidate_matches_legacy_path(self):
        chip = enumerate_candidates(mxu_counts=(4,),
                                    cmem_mib_options=(64,))[0]
        with cold_engine():
            clear_shared_design_points()
            legacy = evaluate_candidate(chip, GRID_APPS)
        clear_shared_design_points()
        engined = evaluate_candidate(chip, GRID_APPS)
        assert legacy == engined

    def test_cmem_sweep_rejects_negative_capacity(self):
        spec = app_by_name("mlp0")
        with pytest.raises(ValueError):
            cmem_sweep(spec, [-1], batch=2)

    def test_evaluate_candidates_rejects_other_worker_counts(self):
        grid = enumerate_candidates(mxu_counts=(2,), cmem_mib_options=(64,))
        with pytest.raises(ValueError, match="workers=2"):
            evaluate_candidates(grid, ("mlp0",), workers=2)

    def test_shared_design_point_is_shared(self):
        clear_shared_design_points()
        assert shared_design_point(TPUV4I) is shared_design_point(TPUV4I)
        other = TPUV4I.variant("other", clock_hz=1e9)
        assert shared_design_point(TPUV4I) is not shared_design_point(other)


class TestSimReentrancy:
    def test_repeated_runs_identical_and_stateless(self):
        spec = app_by_name("cnn0")
        point = DesignPoint(TPUV4I, cache=EvalCache())
        program = point.compiled(spec, 2).program
        sim = TensorCoreSim(TPUV4I)
        first = sim.run(program)
        second = sim.run(program)
        assert first.cycles == second.cycles
        assert first.counters == second.counters
        # No per-run state may leak onto the shared instance.
        assert not hasattr(sim, "_mxu_free")
        assert not hasattr(sim, "_vpu_free")

    def test_interleaved_programs_do_not_interfere(self):
        sim = TensorCoreSim(TPUV4I)
        point = DesignPoint(TPUV4I, cache=EvalCache())
        prog_a = point.compiled(app_by_name("mlp0"), 2).program
        prog_b = point.compiled(app_by_name("cnn0"), 2).program
        baseline_a = sim.run(prog_a).cycles
        sim.run(prog_b)
        assert sim.run(prog_a).cycles == baseline_a


class TestNoPoolImports:
    def test_import_loads_no_process_pool_machinery(self):
        """Sweeps run in process: importing the sweep entry points must
        not pull in ``multiprocessing`` or ``concurrent.futures``."""
        code = (
            "import sys\n"
            "import repro, repro.core.dse, repro.cluster.sweep, "
            "repro.serving\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (
                       os.path.dirname(os.path.dirname(repro.__file__)),
                       os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestCachePlumbing:
    def test_diskless_cache_stores_nothing(self):
        cache = EvalCache()
        cache.put("k", 1)
        assert cache.get("k") is None
        assert (cache.stats.puts, cache.stats.misses) == (1, 1)
        assert cache.disk_entry_count() == 0
        assert cache.describe() == ("EvalCache: disk tier off; 0 disk hits, "
                                    "1 misses (0% hit rate)")

    def test_diskless_put_never_pickles(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a disk-less put pickled its value")

        monkeypatch.setattr(pickle, "dumps", refuse)
        cache = EvalCache()
        cache.put("k", "value")
        with cache.batch():
            cache.put("k2", "value")
        # The whole evaluate path stores through the same put.
        DesignPoint(TPUV4I, cache=cache).evaluate(app_by_name("mlp0"), 2)
        assert cache.stats.puts == 4

    def test_stats_and_describe(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k", "value")
        assert cache.get("k") == "value"
        assert cache.get("missing") is None
        assert cache.stats.hits == 0  # no in-process tier
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0
        text = cache.describe()
        assert text.startswith("EvalCache: disk 1 entries / ")
        assert text.endswith("; 1 disk hits, 1 misses (50% hit rate)")


def _pack_records(path):
    """The (key, meta, payload) records of one pack, checksum verified."""
    raw = path.read_bytes()
    assert raw[:4] == b"RPK1"
    assert hashlib.sha256(raw[36:]).digest() == raw[4:36]
    return pickle.loads(raw[36:])


class TestDiskTierIntegrity:
    """Checksummed, atomically-written packs; corruption is never fatal."""

    def test_entries_carry_magic_and_checksum(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", {"v": 42}, {"kind": "test"})
        (path,) = tmp_path.glob("*.pack")
        raw = path.read_bytes()
        # The pack is named by the digest of its content.
        assert path.name == raw[4:36].hex() + ".pack"
        assert _pack_records(path) == [
            ("k1", {"kind": "test"}, pickle.dumps(
                {"v": 42}, protocol=pickle.HIGHEST_PROTOCOL))]
        assert not list(tmp_path.glob("*.tmp"))  # temp files never linger
        assert not list(tmp_path.glob("*.pkl"))  # no per-entry files
        assert not list(tmp_path.glob("*.json"))

    def test_bitflip_quarantined_and_recomputed(self, tmp_path):
        value = {"v": "a" * 100}
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", value)
        (path,) = tmp_path.glob("*.pack")
        raw = bytearray(path.read_bytes())
        # Flip one bit inside the stored string: the pack still unpickles,
        # so only the checksum can tell.
        raw[raw.index(b"a" * 100) + 50] ^= 0x01
        path.write_bytes(bytes(raw))

        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None  # a miss, not an exception
        assert reader.stats.corrupt == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()
        assert "quarantined" in reader.describe()
        assert reader.disk_entry_count() == 0

        # Recompute-and-store works over the quarantined name.
        reader.put("k1", value)
        assert EvalCache(disk_dir=tmp_path).get("k1") == value

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        with cache.batch():
            cache.put("k1", [1, 2, 3])
            cache.put("k2", [4, 5])
        (path,) = tmp_path.glob("*.pack")
        path.write_bytes(path.read_bytes()[:10])  # torn write, magic intact
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None
        assert reader.get("k2") is None  # the whole pack is quarantined
        assert reader.stats.corrupt == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_unreadable_payload_quarantines_its_pack(self, tmp_path):
        # A valid checksum over a payload that fails to unpickle.
        cache = EvalCache(disk_dir=tmp_path)
        cache._write_pack([("k1", None, b"not a pickle"),
                           ("k2", None, pickle.dumps(2))])
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None
        assert reader.stats.corrupt == 1
        assert reader.get("k2") is None  # never served from a bad pack
        assert not list(tmp_path.glob("*.pack"))

    def test_legacy_per_entry_pickle_ignored_and_cleared(self, tmp_path):
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(123))
        (tmp_path / "old.json").write_text("{}")
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("old") is None  # a miss, not a corruption
        assert reader.stats.corrupt == 0
        assert reader.disk_entry_count() == 0
        assert reader.disk_size_bytes() == 0
        reader.clear()
        assert not list(tmp_path.iterdir())

    def test_clear_empties_quarantine(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", "value")
        (path,) = tmp_path.glob("*.pack")
        path.write_bytes(b"RPK1" + b"\x00" * 40)
        # The writer indexed the record when it landed, so it still
        # serves it; a fresh reader finds the corrupt pack.
        assert cache.get("k1") == "value"
        fresh = EvalCache(disk_dir=tmp_path)
        assert fresh.get("k1") is None
        fresh.clear()
        assert not list((tmp_path / "quarantine").iterdir())
        assert fresh.disk_entry_count() == 0


class TestPacks:
    """Batched writes: one pack per batch, found by every reader."""

    def test_evaluate_jobs_writes_one_pack_per_kind(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        point = DesignPoint(TPUV4I, cache=cache)
        jobs = [GridJob(point, app_by_name(app), batch)
                for app in GRID_APPS for batch in GRID_BATCHES]
        evaluate_jobs(jobs)
        packs = sorted(tmp_path.iterdir())
        records = [_pack_records(path) for path in packs]
        assert [len(r) for r in records] == [len(jobs), len(jobs)]
        kinds = [{meta["kind"] for _, meta, _ in r} for r in records]
        assert sorted(kinds, key=sorted) == [{"eval"}, {"sim"}]
        assert cache.disk_entry_count() == 2 * len(jobs)
        assert cache.disk_size_bytes() == sum(p.stat().st_size
                                              for p in packs)

        reader = EvalCache(disk_dir=tmp_path)
        again = evaluate_jobs([GridJob(DesignPoint(TPUV4I, cache=reader),
                                       job.spec, job.batch) for job in jobs])
        assert reader.stats.disk_hits == len(jobs)
        assert reader.stats.misses == 0
        assert sorted(tmp_path.iterdir()) == packs  # nothing rewritten
        assert [_fields(e) for e in again] == [
            _fields(point.evaluate(job.spec, job.batch)) for job in jobs]

    def test_reader_finds_pack_written_after_first_scan(self, tmp_path):
        writer = EvalCache(disk_dir=tmp_path)
        writer.put("early", 1)
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("early") == 1  # the first scan
        writer.put("late", 2)
        assert reader.get("late") == 2  # rescanned on the index miss
        assert reader.stats.disk_hits == 2
        assert reader.stats.misses == 0

    def test_put_outside_batch_writes_one_record_pack(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        packs = list(tmp_path.glob("*.pack"))
        assert len(packs) == 2
        assert all(len(_pack_records(p)) == 1 for p in packs)

    def test_nested_batches_land_once_even_on_error(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        with pytest.raises(RuntimeError):
            with cache.batch():
                cache.put("a", 1)
                with cache.batch():
                    cache.put("b", 2)
                assert not list(tmp_path.glob("*.pack"))
                raise RuntimeError("computed values still land")
        (path,) = tmp_path.glob("*.pack")
        assert [key for key, _, _ in _pack_records(path)] == ["a", "b"]
        assert EvalCache(disk_dir=tmp_path).get("b") == 2

    def test_concurrent_batches_lose_no_record(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)

        def work(t):
            with cache.batch():
                for i in range(20):
                    cache.put(f"{t}-{i}", i)
            cache.put(f"{t}-solo", t)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.disk_entry_count() == 8 * 21
        assert all(reader.get(f"{t}-{i}") == i
                   for t in range(8) for i in range(20))


class TestCacheDirValidation:
    """A cache path that exists but is not a directory is refused early."""

    def test_constructor_rejects_a_regular_file(self, tmp_path):
        path = tmp_path / "not_a_dir"
        path.write_text("x")
        with pytest.raises(ValueError, match="not_a_dir"):
            EvalCache(disk_dir=path)

    def test_env_path_rejected_before_any_compute(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "not_a_dir"
        path.write_text("x")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        previous = set_cache(None)
        try:
            with pytest.raises(ValueError, match="not a directory"):
                DesignPoint(TPUV4I).evaluate(app_by_name("mlp0"), 2)
        finally:
            set_cache(previous)

    @pytest.mark.parametrize("via", ["dir", "env"])
    def test_engine_cli_exits_2(self, tmp_path, monkeypatch, capsys, via):
        from repro.cli import main

        path = tmp_path / "not_a_dir"
        path.write_text("x")
        previous = set_cache(None)
        try:
            if via == "dir":
                assert main(["engine", "stats", "--dir", str(path)]) == 2
            else:
                monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
                assert main(["engine", "stats"]) == 2
        finally:
            set_cache(previous)
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err
