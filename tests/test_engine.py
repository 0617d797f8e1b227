"""The shared evaluation engine: cache correctness and determinism.

The engine's contract is strict: cached and uncached evaluation of the
same (chip, compiler, workload, batch, budget) inputs must produce
*identical* records — not approximately equal ones. These tests assert
that, plus the disk tier's round-trip/invalidation behavior, simulator
reentrancy, and that sweeps run in process with no pool machinery.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.arch.chip import TPUV4I
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
    chip_fingerprint,
    compiler_fingerprint,
    engine_disabled,
    eval_key,
)
from repro.serving.batching import BatchPolicy
from repro.serving.server import ServingSimulator
from repro.serving.slo import Slo
from repro.sim.core import TensorCoreSim
from repro.util.units import MIB
from repro.workloads.extended import EXTENDED_APPS
from repro.workloads.models import app_by_name

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
    def test_cache_on_off_identical_over_grid(self):
        """Cached and uncached evaluation agree field-for-field."""
        cache = EvalCache()
        off = EvalCache(enabled=False)
        for chip in GRID_CHIPS:
            for app in GRID_APPS:
                spec = app_by_name(app)
                for batch in GRID_BATCHES:
                    uncached = DesignPoint(chip, cache=off).evaluate(
                        spec, batch)
                    cold = DesignPoint(chip, cache=cache).evaluate(spec, batch)
                    # Fresh point, warm cache: must come from the cache.
                    before = cache.stats.hits
                    warm = DesignPoint(chip, cache=cache).evaluate(spec, batch)
                    assert cache.stats.hits > before
                    assert _fields(uncached) == _fields(cold) == _fields(warm)

    def test_sim_results_identical_cache_on_off(self):
        spec = app_by_name("cnn0")
        cache = EvalCache()
        cold = DesignPoint(TPUV4I, cache=cache).run(spec, 4)
        warm = DesignPoint(TPUV4I, cache=cache).run(spec, 4)
        off = DesignPoint(TPUV4I, cache=EvalCache(enabled=False)).run(spec, 4)
        assert cold.cycles == warm.cycles == off.cycles
        assert cold.counters == warm.counters == off.counters

    def test_engine_disabled_context_matches_enabled(self):
        spec = app_by_name("mlp0")
        with engine_disabled():
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
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        reader = EvalCache(disk_dir=tmp_path)
        again = DesignPoint(TPUV4I, cache=reader).evaluate(spec, 2)
        assert _fields(result) == _fields(again)

    def test_clear_removes_disk_entries(self, tmp_path):
        spec = app_by_name("mlp0")
        cache = EvalCache(disk_dir=tmp_path)
        DesignPoint(TPUV4I, cache=cache).evaluate(spec, 2)
        cache.clear(disk=True)
        assert cache.entry_count() == 0
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


class TestDseThroughEngine:
    def test_evaluate_candidate_matches_legacy_path(self):
        chip = enumerate_candidates(mxu_counts=(4,),
                                    cmem_mib_options=(64,))[0]
        with engine_disabled():
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
        point = DesignPoint(TPUV4I, cache=EvalCache(enabled=False))
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
        point = DesignPoint(TPUV4I, cache=EvalCache(enabled=False))
        prog_a = point.compiled(app_by_name("mlp0"), 2).program
        prog_b = point.compiled(app_by_name("cnn0"), 2).program
        baseline_a = sim.run(prog_a).cycles
        sim.run(prog_b)
        assert sim.run(prog_a).cycles == baseline_a


class TestServingPrewarm:
    def test_prewarm_matches_on_demand_latencies(self):
        spec = app_by_name("mlp0")
        simulator = ServingSimulator(
            DesignPoint(TPUV4I), spec,
            BatchPolicy(max_batch=8, max_wait_s=0.001), Slo(0.05))
        grid = simulator.prewarm()
        assert set(grid) == set(BatchPolicy.batch_steps(8))
        fresh = ServingSimulator(
            DesignPoint(TPUV4I), spec,
            BatchPolicy(max_batch=8, max_wait_s=0.001), Slo(0.05))
        for step, latency in grid.items():
            assert fresh.batch_latency_s(step) == latency


    def test_prewarm_serves_specs_outside_the_catalog(self):
        """Regression: prewarm used the catalog name lookup and the
        shared design point, so ``dlrm`` raised KeyError."""
        spec = EXTENDED_APPS[0]
        point = DesignPoint(TPUV4I, cache=EvalCache(enabled=False))
        policy = BatchPolicy(max_batch=8, max_wait_s=0.001)
        simulator = ServingSimulator(point, spec, policy, Slo(0.05))
        table = simulator.prewarm()
        assert list(table) == list(BatchPolicy.batch_steps(8))
        fresh = ServingSimulator(
            DesignPoint(TPUV4I, cache=EvalCache(enabled=False)), spec,
            policy, Slo(0.05))
        for step, latency in table.items():
            assert fresh.batch_latency_s(step) == latency


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
    def test_disabled_cache_stores_nothing(self):
        cache = EvalCache(enabled=False)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert cache.entry_count() == 0

    def test_stats_and_describe(self):
        cache = EvalCache()
        cache.put("k", "value")
        assert cache.get("k") == "value"
        assert cache.get("missing") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0
        assert cache.size_bytes() >= len(pickle.dumps("value"))
        assert "entries" in cache.describe()


class TestDiskTierIntegrity:
    """Checksummed, atomically-written entries; corruption is never fatal."""

    def test_entries_carry_magic_and_checksum(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", {"v": 42})
        raw = (tmp_path / "k1.pkl").read_bytes()
        assert raw.startswith(b"RPC1")
        assert not list(tmp_path.glob("*.tmp"))  # temp files never linger

    def test_bitflip_quarantined_and_recomputed(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", {"v": 42})
        path = tmp_path / "k1.pkl"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(raw))

        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None  # a miss, not an exception
        assert reader.stats.corrupt == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / "k1.pkl").exists()
        assert "quarantined" in reader.describe()

        # Recompute-and-store works over the quarantined name.
        reader.put("k1", {"v": 42})
        assert EvalCache(disk_dir=tmp_path).get("k1") == {"v": 42}

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", [1, 2, 3])
        path = tmp_path / "k1.pkl"
        path.write_bytes(path.read_bytes()[:10])  # torn write, magic intact
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("k1") is None
        assert reader.stats.corrupt == 1

    def test_legacy_plain_pickle_still_readable(self, tmp_path):
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(123))
        reader = EvalCache(disk_dir=tmp_path)
        assert reader.get("old") == 123
        assert reader.stats.corrupt == 0

    def test_clear_empties_quarantine(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        cache.put("k1", "value")
        path = tmp_path / "k1.pkl"
        path.write_bytes(b"RPC1" + b"\x00" * 40)
        assert cache.get("k1") == "value"  # memory tier still serves it
        fresh = EvalCache(disk_dir=tmp_path)
        assert fresh.get("k1") is None
        fresh.clear(disk=True)
        assert not list((tmp_path / "quarantine").iterdir())
