"""Equivalence suite: the batched grid kernel vs per-point replay.

The bit-identity contract (DESIGN.md): evaluating a grid of (program,
chip, dtype) points through :func:`repro.sim.gridkernel.evaluate_grid`
produces *exactly* what the per-instruction interpreter produces —
cycles, every PerfCounters field, every per-level byte count, every
error — bit for bit, for all four chip generations, every supported
dtype, and hand-built corner-case programs. On top of the kernel, the
engine wrapper (:mod:`repro.engine.grid`) must keep the cache contract:
cached points never enter a batch, computed points are stored under the
per-point keys, and a grid-routed sweep is indistinguishable from the
serial loop it replaces. Those per-point loops are test-only references,
reached through ``tests.conftest.reference_paths``.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.arch.vpu import VpuModel
from repro.core.design_point import DesignPoint, clear_shared_design_points
from repro.core.dse import DEFAULT_DSE_APPS, cmem_sweep, enumerate_candidates
from repro.engine.cache import EvalCache, set_cache
from repro.engine.grid import GridJob, evaluate_jobs, run_grid
from repro.engine.keys import _COMPILE_IRRELEVANT, compile_chip_fingerprint
from repro.isa import Bundle, Instruction, Opcode, Program
from repro.obs.metrics import collecting_metrics
from repro.obs.tracer import SpanTracer
from repro.sim import TensorCoreSim
from repro.sim.gridkernel import (
    GridPoint,
    clear_grid_kernel,
    evaluate_grid,
    grid_kernel_stats,
)
from repro.sim.lowered import FastReplay, lower_program
from repro.util.units import MIB
from repro.workloads import app_by_name

from tests.conftest import reference_paths
from tests.reference import engine as engine_reference
from tests.reference.interpreter import run_interpreted


def _dtypes(chip):
    return tuple(d for d in ("bf16", "int8", "fp32")
                 if chip.supports_dtype(d))


def _assert_identical(reference, batched):
    """Bit-identity over cycles, every counter field, and every level."""
    assert batched.cycles == reference.cycles
    for field in dataclasses.fields(reference.counters):
        assert (getattr(batched.counters, field.name)
                == getattr(reference.counters, field.name)), field.name
    assert (batched.counters.bytes_by_level.keys()
            == reference.counters.bytes_by_level.keys())
    assert batched.counters == reference.counters
    assert batched.report == reference.report


def _replay(point: GridPoint):
    """The oracle: the per-instruction interpreter."""
    return run_interpreted(TensorCoreSim(point.chip), point.program,
                           dtype=point.dtype)


class TestBitIdentityOnWorkloads:
    def test_one_batch_matches_per_point_replay(self, compiled_programs):
        """Every (generation, app, batch, dtype) point, one kernel batch."""
        points = []
        for (_, _, _), (chip, program) in compiled_programs.items():
            for dtype in _dtypes(chip):
                points.append(GridPoint(program, chip, dtype))
        reference = [_replay(p) for p in points]
        clear_grid_kernel()
        batched = evaluate_grid(points)
        assert len(batched) == len(points)
        for ref, out in zip(reference, batched):
            _assert_identical(ref, out)
        stats = grid_kernel_stats()
        assert stats.batches == 1
        assert stats.points == len(points)
        assert stats.fallback_points == 0
        # Structure tables are shared per program, not per point.
        assert stats.structs == len(compiled_programs)

    def test_dse_grid_matches_per_point_replay(self):
        """A 216-point clock x MXU x CMEM DSE grid, one kernel batch."""
        chips = enumerate_candidates(
            clocks_ghz=(0.85, 0.95, 1.05, 1.15, 1.25, 1.35))
        programs, points = {}, []
        for chip in chips:
            point = DesignPoint(chip, cache=EvalCache())
            for app in DEFAULT_DSE_APPS:
                spec = app_by_name(app)
                key = (compile_chip_fingerprint(chip), app)
                if key not in programs:
                    programs[key] = point.compiled(
                        spec, spec.default_batch).program
                points.append(GridPoint(programs[key], chip))
        assert len(points) >= 200
        reference = [_replay(p) for p in points]
        clear_grid_kernel()
        batched = evaluate_grid(points)
        for ref, out in zip(reference, batched):
            _assert_identical(ref, out)
        assert grid_kernel_stats().fallback_points == 0

    def test_dse_variants_share_structures(self, compiled_programs):
        """Clock/MXU variants reuse one struct; CMEM stays per-program."""
        chip, program = compiled_programs[("TPUv4i", "cnn0", 8)]
        variants = (
            chip,
            chip.variant("v4-fast", clock_hz=chip.clock_hz * 1.25),
            chip.variant("v4-wide", mxus_per_core=8),
            chip.variant("v4-slow", clock_hz=chip.clock_hz * 0.75,
                         mxus_per_core=2),
        )
        points = [GridPoint(program, variant) for variant in variants]
        clear_grid_kernel()
        batched = evaluate_grid(points)
        for point, out in zip(points, batched):
            _assert_identical(_replay(point), out)
        assert grid_kernel_stats().structs == 1


class TestBitIdentityOnCornerCases:
    """Hand-built programs that stress the kernel's closed forms."""

    def _grid_vs_replay(self, program, chip=TPUV4I, dtype="bf16"):
        """The interpreter against the grid, the one-point replay and
        the traced replay."""
        point = GridPoint(program, chip, dtype)
        reference = _replay(point)
        out = evaluate_grid([point])[0]
        _assert_identical(reference, out)
        lowered = lower_program(program, chip)
        _assert_identical(reference, FastReplay(chip).run(lowered,
                                                          dtype=dtype))
        tracer = SpanTracer()
        traced = FastReplay(chip).run(lowered, dtype=dtype, tracer=tracer)
        _assert_identical(reference, traced)
        self._assert_spans_account_for_busy_time(tracer, chip, traced)
        return out

    @staticmethod
    def _assert_spans_account_for_busy_time(tracer, chip, result):
        """Unit spans sum to the busy counters, cycle for cycle."""
        def cycles(spans):
            return sum(round(s.dur_us * chip.clock_hz / 1e6) for s in spans)

        core = [s for s in tracer.spans if s.group == "core"]
        counters = result.counters
        assert cycles(s for s in core if s.track == "mxu") \
            == counters.mxu_busy_cycles
        assert cycles(s for s in core if s.track == "vpu") \
            == counters.vpu_busy_cycles
        assert cycles(s for s in core if s.track.startswith("dma.")) \
            == counters.dma_busy_cycles
        assert cycles(s for s in core if s.track == "sync") \
            == counters.sync_stall_cycles

    def _program(self, *bundles, generation=4):
        return Program("hand", generation,
                       [Bundle(tuple(bundle)) for bundle in bundles]
                       + [Bundle((Instruction(Opcode.HALT),))])

    def test_dma_contention_and_engine_pool(self):
        mib = 2**20
        dmas = [Instruction(Opcode.DMA_IN, (0, (i + 1) * mib, i))
                for i in range(6)]
        program = self._program(
            dmas[:3], dmas[3:], [Instruction(Opcode.SYNC_WAIT, (5,))])
        out = self._grid_vs_replay(program)
        assert out.counters.sync_stall_cycles > 0

    def test_dma_flag_overwrite_and_rewait(self):
        program = self._program(
            [Instruction(Opcode.DMA_IN, (0, 2**20, 1)),
             Instruction(Opcode.DMA_IN, (0, 2**24, 1))],
            [Instruction(Opcode.SYNC_WAIT, (1,)),
             Instruction(Opcode.MXM, (128, 128, 128))])
        self._grid_vs_replay(program)

    def test_sync_set_then_wait_is_free(self):
        program = self._program(
            [Instruction(Opcode.SYNC_SET, (2,))],
            [Instruction(Opcode.SYNC_WAIT, (2,))],
            [Instruction(Opcode.SYNC_WAIT, (9,))])  # never set
        out = self._grid_vs_replay(program)
        assert out.counters.sync_stall_cycles == 0

    def test_sync_set_then_wait_in_one_bundle_is_free(self):
        """A set stamps its flag at its own issue cycle, so a wait later
        in the same bundle (generation 4 has two sync slots) is free."""
        program = self._program(
            [Instruction(Opcode.SYNC_SET, (2,)),
             Instruction(Opcode.SYNC_WAIT, (2,))])
        out = self._grid_vs_replay(program)
        assert out.counters.sync_stall_cycles == 0

    def test_mixed_units_overlap(self):
        program = self._program(
            [Instruction(Opcode.MXM, (512, 512, 512)),
             Instruction(Opcode.VADD, (65536,)),
             Instruction(Opcode.VREDUCE, (4096, 64)),
             Instruction(Opcode.SADD, (1, 2, 3))],
            [Instruction(Opcode.MXM_LOADW, (128, 128)),
             Instruction(Opcode.MXM_TRANSPOSE, (64, 0)),
             Instruction(Opcode.VMUL, (1000,))])
        out = self._grid_vs_replay(program)
        assert out.counters.scalar_ops == 1

    def test_unit_work_before_any_hard_row(self):
        """MXU/VPU rows with no preceding hard row hit the sentinel slot."""
        program = self._program(
            [Instruction(Opcode.MXM, (256, 256, 256)),
             Instruction(Opcode.VADD, (4096,))],
            [Instruction(Opcode.MXM, (128, 128, 128))],
            [Instruction(Opcode.DMA_OUT, (0, 2**20, 0))])
        self._grid_vs_replay(program)

    def test_halt_mid_program_truncates(self):
        program = Program("h", 4, [
            Bundle((Instruction(Opcode.MXM, (128, 128, 128)),)),
            Bundle((Instruction(Opcode.HALT),
                    Instruction(Opcode.MXM, (512, 512, 512)))),
            Bundle((Instruction(Opcode.MXM, (512, 512, 512)),))])
        out = self._grid_vs_replay(program)
        assert out.counters.bundles == 2  # third bundle is dead code

    def test_empty_program_costs_one_cycle(self):
        program = Program("empty", generation=4)
        out = self._grid_vs_replay(program)
        assert out.cycles == 1

    def test_int8_on_v1(self):
        program = Program("v1", 1, [
            Bundle((Instruction(Opcode.MXM, (256, 256, 256)),
                    Instruction(Opcode.DMA_IN, (0, 2**20, 0))))])
        self._grid_vs_replay(program, chip=TPUV1, dtype="int8")


class TestErrorParity:
    """evaluate_grid, lower_program and FastReplay.run raise exactly the
    interpreter's errors."""

    def test_generation_mismatch(self):
        program = Program("v4", generation=4)
        with pytest.raises(ValueError) as lower_err:
            lower_program(program, TPUV3)
        with pytest.raises(ValueError) as grid_err:
            evaluate_grid([GridPoint(program, TPUV3)])
        assert str(grid_err.value) == str(lower_err.value)
        assert "Recompile" in str(lower_err.value)
        lowered = lower_program(program, TPUV4I)
        with pytest.raises(ValueError, match="Recompile"):
            FastReplay(TPUV3).run(lowered)

    def test_unsupported_dtype(self):
        program = Program("v2", generation=2)
        with pytest.raises(ValueError, match="does not support"):
            evaluate_grid([GridPoint(program, TPUV2, dtype="int8")])
        lowered = lower_program(program, TPUV2)
        with pytest.raises(ValueError, match="does not support"):
            FastReplay(TPUV2).run(lowered, dtype="int8")

    def test_unreachable_dma_level(self):
        # TPUv1 has no CMEM, so a CMEM DMA (level 1) has no engine pool.
        program = Program("bad", 1, [
            Bundle((Instruction(Opcode.DMA_IN, (1, 1024, 0)),))])
        with pytest.raises(ValueError) as interp_err:
            run_interpreted(TensorCoreSim(TPUV1), program, dtype="int8")
        with pytest.raises(ValueError) as lower_err:
            lower_program(program, TPUV1)
        clear_grid_kernel()
        with pytest.raises(ValueError) as grid_err:
            evaluate_grid([GridPoint(program, TPUV1, dtype="int8")])
        assert (str(grid_err.value) == str(lower_err.value)
                == str(interp_err.value))

    def test_error_raised_before_later_points_evaluate(self):
        good = Program("good", generation=4)
        bad = Program("bad", generation=3)
        with pytest.raises(ValueError, match="Recompile"):
            evaluate_grid([GridPoint(bad, TPUV4I), GridPoint(good, TPUV4I)])


class TestGating:
    def test_inexact_alu_sum_is_summed_in_order(self, monkeypatch):
        """ALU ops that are not multiples of 0.5 defeat the doubled-integer
        sum; the kernel adds them in program order and counts the point."""
        elementwise = VpuModel.elementwise

        def thirds(model, op, elements):
            timing = elementwise(model, op, elements)
            return dataclasses.replace(timing,
                                       alu_ops=timing.alu_ops + 1 / 3)

        program = Program("gate", 4, [
            Bundle((Instruction(Opcode.MXM, (128, 128, 128)),
                    Instruction(Opcode.VADD, (4096,)))),
            Bundle((Instruction(Opcode.VMUL, (1000,)),))])
        point = GridPoint(program, TPUV4I)
        clear_grid_kernel()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(VpuModel, "elementwise", thirds)
                reference = _replay(point)
                out = evaluate_grid([point])[0]
            stats = grid_kernel_stats()
        finally:
            clear_grid_kernel()  # drop the pricing memoized under the patch
        assert reference.counters.vector_alu_ops % 0.5 != 0
        assert stats.fallback_points == 1
        assert stats.batches == 1
        _assert_identical(reference, out)


class TestEngineGrid:
    """run_grid / evaluate_jobs: cache exclusion, merge, and parity."""

    def _point(self):
        return DesignPoint(TPUV4I, cache=EvalCache())

    def test_run_grid_matches_per_point_runs(self):
        spec = app_by_name("mlp0")
        jobs = [GridJob(self._point(), spec, batch, budget)
                for batch in (1, 4)
                for budget in (None, 0, 64 * MIB)]
        results = run_grid(jobs)
        with reference_paths():
            for job, result in zip(jobs, results):
                expected = engine_reference.run(
                    self._point(), job.spec, job.resolved_batch,
                    job.cmem_budget_bytes)
                _assert_identical(expected, result)

    def test_cached_jobs_never_enter_the_batch(self):
        spec = app_by_name("mlp0")
        point = self._point()
        warm = point.run(spec, 4)
        with collecting_metrics() as registry:
            results = run_grid([GridJob(point, spec, 4),
                                GridJob(point, spec, 8)])
            assert registry.counter("engine.grid.cache_hits").value == 1
            assert registry.counter("engine.grid.batched_points").value == 1
            assert results[0] is warm
            # A second pass over the same jobs is all cache, no new batch.
            again = run_grid([GridJob(point, spec, 4),
                              GridJob(point, spec, 8)])
            assert registry.counter("engine.grid.batches").value == 1
            assert again == results

    def test_duplicate_jobs_share_one_kernel_point(self):
        spec = app_by_name("mlp0")
        point = self._point()
        with collecting_metrics() as registry:
            results = run_grid([GridJob(point, spec, 4)] * 3)
            assert registry.counter("engine.grid.batched_points").value == 1
        assert results[0] is results[1] is results[2]

    def test_grid_warmed_cache_serves_the_per_point_path(self):
        spec = app_by_name("mlp0")
        point = self._point()
        results = run_grid([GridJob(point, spec, 4)])
        assert point.run(spec, 4) is results[0]

    def test_evaluate_jobs_matches_per_point_evaluate(self):
        spec = app_by_name("cnn0")
        jobs = [GridJob(self._point(), spec, batch) for batch in (1, 2, 8)]
        evaluations = evaluate_jobs(jobs)
        with reference_paths():
            expected = [engine_reference.evaluate(self._point(), job.spec,
                                                  job.batch)
                        for job in jobs]
        assert evaluations == expected
        # And the grid-stored records serve point.evaluate afterwards.
        assert jobs[0].point.evaluate(spec, 1) == evaluations[0]

    def test_grid_metrics_counted(self):
        spec = app_by_name("mlp0")
        point = self._point()
        with collecting_metrics() as registry:
            run_grid([GridJob(point, spec, 4), GridJob(point, spec, 4)])
            assert registry.counter("engine.grid.points").value == 2
            assert registry.counter("engine.grid.batches").value == 1
            assert registry.counter("engine.grid.batched_points").value == 1

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_over_the_miss_path(self, enabled,
                                                 monkeypatch):
        compile_ = DesignPoint.compile
        seen = []

        def spy(point, *args, **kwargs):
            seen.append(gc.isenabled())
            return compile_(point, *args, **kwargs)

        monkeypatch.setattr(DesignPoint, "compile", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            run_grid([GridJob(self._point(), app_by_name("mlp0"), 4)])
            assert seen == [False]
            assert gc.isenabled() is enabled   # the caller's state
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_restored_when_a_compile_raises(self, monkeypatch):
        def fail(point, *args, **kwargs):
            raise RuntimeError("compile failed")

        monkeypatch.setattr(DesignPoint, "compile", fail)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="compile failed"):
            run_grid([GridJob(self._point(), app_by_name("mlp0"), 4)])
        assert gc.isenabled()

    def test_max_batch_under_slo_matches_disabled_path(self):
        spec = app_by_name("mlp0")
        grid_answer = self._point().max_batch_under_slo(
            spec, spec.slo_ms / 1e3)
        with reference_paths():
            per_point = self._point().max_batch_under_slo(
                spec, spec.slo_ms / 1e3)
        assert grid_answer == per_point
        with pytest.raises(ValueError, match="SLO"):
            self._point().max_batch_under_slo(spec, 0.0)


class TestSweepEquivalence:
    def test_grid_routed_candidate_sweep_matches_serial(self):
        from repro.core.dse import evaluate_candidates
        chips = enumerate_candidates()
        previous = set_cache(EvalCache())
        try:
            clear_shared_design_points()
            with reference_paths():
                serial = evaluate_candidates(chips)
            set_cache(EvalCache())
            clear_shared_design_points()
            clear_grid_kernel()
            routed = evaluate_candidates(chips)
            assert routed == serial
        finally:
            set_cache(previous)
            clear_shared_design_points()

    def test_cmem_sweep_matches_per_point(self):
        spec = app_by_name("mlp0")
        capacities = [0, 32 * MIB, 128 * MIB]
        previous = set_cache(EvalCache())
        try:
            clear_shared_design_points()
            grid = cmem_sweep(spec, capacities)
            set_cache(EvalCache())
            clear_shared_design_points()
            with reference_paths():
                per_point = cmem_sweep(spec, capacities)
            assert grid == per_point
        finally:
            set_cache(previous)
            clear_shared_design_points()


class TestCmemSweepValidation:
    """Regression: a bad capacity is rejected before any grid dispatch."""

    def test_negative_capacity_raises_before_any_dispatch(self):
        spec = app_by_name("mlp0")
        kernel_before = dataclasses.replace(grid_kernel_stats())
        with collecting_metrics() as registry:
            with pytest.raises(ValueError, match="non-negative"):
                cmem_sweep(spec, [64 * MIB, -1])
            assert registry.counter("engine.grid.points").value == 0
        assert grid_kernel_stats() == kernel_before


class TestCompileContentFingerprint:
    """The dedupe's invariant: excluded fields never change compiled code."""

    _EXCLUDED_OVERRIDES = (
        {"clock_hz": TPUV4I.clock_hz * 1.3},
        {"mxus_per_core": 8},
        {"tdp_w": 500.0},
        {"idle_w": 99.0},
        {"cooling": "liquid"},
    )

    def test_override_set_matches_exclusion_list(self):
        covered = {"name"} | {k for o in self._EXCLUDED_OVERRIDES for k in o}
        assert covered == set(_COMPILE_IRRELEVANT)

    @pytest.mark.parametrize("override", _EXCLUDED_OVERRIDES,
                             ids=lambda o: next(iter(o)))
    def test_excluded_field_preserves_compiled_content(self, override):
        variant = TPUV4I.variant("fp-variant", **override)
        assert (compile_chip_fingerprint(variant)
                == compile_chip_fingerprint(TPUV4I))
        spec = app_by_name("mlp0")
        base = DesignPoint(
            TPUV4I, cache=EvalCache()).compiled(spec, 4)
        other = DesignPoint(
            variant, cache=EvalCache()).compiled(spec, 4)
        assert base.program.signature() == other.program.signature()
        assert (base.memory.cmem_hit_fraction
                == other.memory.cmem_hit_fraction)

    def test_compile_relevant_field_changes_fingerprint(self):
        smaller = TPUV4I.variant("fp-cmem",
                                 cmem_bytes=TPUV4I.cmem_bytes // 2)
        assert (compile_chip_fingerprint(smaller)
                != compile_chip_fingerprint(TPUV4I))
