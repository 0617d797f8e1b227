"""Equivalence suite: the timing engine vs the interpreter.

The bit-identity contract (DESIGN.md): for every program the engine can
run, lowering + pricing through the grid kernel produces *exactly* the
interpreter's cycles, every PerfCounters field, and every per-level byte
count — not approximately, bit for bit. These tests pin that contract
across all four chip generations, real compiled workloads, both dtypes,
and hand-built corner-case programs; ``tests/test_gridsim.py`` holds the
same corner cases to the grid and the traced replay as well. The
interpreter (``tests/reference/interpreter.py``) is test code: no
production path calls it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.isa import Bundle, Instruction, Opcode, Program
from repro.sim import TensorCoreSim
from repro.sim.lowered import FastReplay, lower_program

from tests.conftest import (IDENTITY_APPS, IDENTITY_BATCHES, IDENTITY_CHIPS,
                            supported_dtypes)
from tests.reference.interpreter import run_interpreted


def _assert_identical(interp, fast):
    """Bit-identity over cycles, every counter field, and every level."""
    assert fast.cycles == interp.cycles
    for field in dataclasses.fields(interp.counters):
        assert (getattr(fast.counters, field.name)
                == getattr(interp.counters, field.name)), field.name
    assert (fast.counters.bytes_by_level.keys()
            == interp.counters.bytes_by_level.keys())
    assert fast.counters == interp.counters
    assert fast.report == interp.report


class TestBitIdentityOnWorkloads:
    @pytest.mark.parametrize("chip", IDENTITY_CHIPS, ids=lambda c: c.name)
    @pytest.mark.parametrize("app", IDENTITY_APPS)
    @pytest.mark.parametrize("batch", IDENTITY_BATCHES)
    def test_replay_matches_interpreter(self, compiled_programs, chip, app,
                                        batch):
        chip, program = compiled_programs[(chip.name, app, batch)]
        sim = TensorCoreSim(chip)
        lowered = lower_program(program, chip)
        for dtype in supported_dtypes(chip):
            interp = run_interpreted(sim, program, dtype=dtype)
            fast = sim.replay.run(lowered, dtype=dtype)
            _assert_identical(interp, fast)

    def test_one_lowering_serves_both_dtypes(self, compiled_programs):
        """The lowered form is dtype-independent (width scales only bytes)."""
        chip, program = compiled_programs[("TPUv4i", "cnn0", 8)]
        sim = TensorCoreSim(chip)
        lowered = lower_program(program, chip)
        bf16 = sim.replay.run(lowered, dtype="bf16")
        int8 = sim.replay.run(lowered, dtype="int8")
        _assert_identical(run_interpreted(sim, program, dtype="bf16"), bf16)
        _assert_identical(run_interpreted(sim, program, dtype="int8"), int8)
        assert (int8.counters.bytes_by_level["vmem"]
                == bf16.counters.bytes_by_level["vmem"] / 2)


class TestBitIdentityOnCornerCases:
    """Hand-built programs that stress the replay loop's tricky paths."""

    def _both(self, program, chip=TPUV4I, dtype="bf16"):
        sim = TensorCoreSim(chip)
        interp = run_interpreted(sim, program, dtype=dtype)
        fast = FastReplay(chip).run(lower_program(program, chip), dtype=dtype)
        _assert_identical(interp, fast)
        return interp

    def _program(self, *bundles):
        return Program("hand", 4,
                       [Bundle(tuple(bundle)) for bundle in bundles]
                       + [Bundle((Instruction(Opcode.HALT),))])

    def test_dma_contention_and_engine_pool(self):
        """>4 concurrent DMAs: engine reuse + contention-scaled bandwidth."""
        mib = 2**20
        dmas = [Instruction(Opcode.DMA_IN, (0, (i + 1) * mib, i))
                for i in range(6)]
        program = self._program(  # 3 per bundle: 4 DMA slots/bundle max
            dmas[:3], dmas[3:], [Instruction(Opcode.SYNC_WAIT, (5,))])
        result = self._both(program)
        assert result.counters.sync_stall_cycles > 0

    def test_dma_flag_overwrite_and_rewait(self):
        """Two DMAs stamping one flag; the later completion wins."""
        program = self._program(
            [Instruction(Opcode.DMA_IN, (0, 2**20, 1)),
             Instruction(Opcode.DMA_IN, (0, 2**24, 1))],
            [Instruction(Opcode.SYNC_WAIT, (1,)),
             Instruction(Opcode.MXM, (128, 128, 128))])
        self._both(program)

    def test_sync_set_then_wait_is_free(self):
        program = self._program(
            [Instruction(Opcode.SYNC_SET, (2,))],
            [Instruction(Opcode.SYNC_WAIT, (2,))],
            [Instruction(Opcode.SYNC_WAIT, (9,))])  # never set
        result = self._both(program)
        assert result.counters.sync_stall_cycles == 0

    def test_mixed_units_overlap(self):
        program = self._program(
            [Instruction(Opcode.MXM, (512, 512, 512)),
             Instruction(Opcode.VADD, (65536,)),
             Instruction(Opcode.VREDUCE, (4096, 64)),
             Instruction(Opcode.SADD, (1, 2, 3))],
            [Instruction(Opcode.MXM_LOADW, (128, 128)),
             Instruction(Opcode.MXM_TRANSPOSE, (64, 0)),
             Instruction(Opcode.VMUL, (1000,))])
        result = self._both(program)
        assert result.counters.scalar_ops == 1

    def test_halt_mid_program_truncates(self):
        program = Program("h", 4, [
            Bundle((Instruction(Opcode.MXM, (128, 128, 128)),)),
            Bundle((Instruction(Opcode.HALT),
                    Instruction(Opcode.MXM, (512, 512, 512)))),
            Bundle((Instruction(Opcode.MXM, (512, 512, 512)),))])
        result = self._both(program)
        assert result.counters.bundles == 2  # third bundle is dead code

    def test_empty_program_costs_one_cycle(self):
        program = Program("empty", 4)
        self._both(program)
        assert FastReplay(TPUV4I).run(
            lower_program(program, TPUV4I)).cycles == 1

    def test_int8_on_v1(self):
        program = Program("v1", 1, [
            Bundle((Instruction(Opcode.MXM, (256, 256, 256)),
                    Instruction(Opcode.DMA_IN, (0, 2**20, 0))))])
        self._both(program, chip=TPUV1, dtype="int8")


class TestErrorParity:
    """lower/replay raise exactly where the interpreter raises."""

    def test_unreachable_dma_level(self):
        # TPUv1 has no CMEM, so a CMEM DMA (level 1) has no engine pool.
        program = Program("bad", 1, [
            Bundle((Instruction(Opcode.DMA_IN, (1, 1024, 0)),))])
        with pytest.raises(ValueError) as interp_err:
            run_interpreted(TensorCoreSim(TPUV1), program, dtype="int8")
        with pytest.raises(ValueError) as lower_err:
            lower_program(program, TPUV1)
        assert str(interp_err.value) == str(lower_err.value)

    def test_generation_mismatch_at_lower_and_replay(self):
        program = Program("v4", 4)
        with pytest.raises(ValueError, match="Recompile"):
            lower_program(program, TPUV3)
        lowered = lower_program(program, TPUV4I)
        with pytest.raises(ValueError, match="Recompile"):
            FastReplay(TPUV3).run(lowered)

    def test_unsupported_dtype_at_replay(self):
        program = Program("v2", 2)
        lowered = lower_program(program, TPUV2)
        with pytest.raises(ValueError, match="does not support"):
            FastReplay(TPUV2).run(lowered, dtype="int8")


class TestLoweredForm:
    def test_len_counts_bundles_and_instructions_up_to_halt(self):
        program = Program("len", 4, [
            Bundle((Instruction(Opcode.MXM, (128, 128, 128)),
                    Instruction(Opcode.SADD, (1, 2, 3)))),
            Bundle((Instruction(Opcode.VADD, (64,)),
                    Instruction(Opcode.HALT),
                    Instruction(Opcode.MXM, (64, 64, 64)))),
            Bundle((Instruction(Opcode.MXM, (64, 64, 64)),))])
        # (bundle, mxm, sadd) + (bundle, vadd, halt); the rest is dead.
        assert len(lower_program(program, TPUV4I)) == 6

    def test_engines_per_level_matches_core(self):
        """The kernel's DMA pool size is the interpreter's, stated twice."""
        from repro.sim import gridkernel
        from tests.reference import interpreter

        assert (interpreter.ENGINES_PER_LEVEL
                == gridkernel.ENGINES_PER_LEVEL == 4)


class TestGating:
    """``TensorCoreSim.run`` has one path: lower, then replay."""

    def _mxm_program(self):
        return Program("gate", 4, [
            Bundle((Instruction(Opcode.MXM, (128, 128, 128)),))])

    def test_default_run_uses_fast_path(self):
        program = self._mxm_program()
        sim = TensorCoreSim(TPUV4I)
        result = sim.run(program)
        _assert_identical(run_interpreted(sim, program), result)
        assert result == FastReplay(TPUV4I).run(
            lower_program(program, TPUV4I))

    def test_fast_result_carries_no_trace(self):
        result = TensorCoreSim(TPUV4I).run(self._mxm_program())
        assert not hasattr(result, "trace")  # spans go to a tracer
