"""Detailed tests for the simulator internals: reports and stalls."""

import pytest

from repro.arch import TPUV4I
from repro.compiler import RELEASES, compile_model
from repro.isa import Bundle, Instruction, Opcode, Program
from repro.sim import TensorCoreSim
from repro.sim.perf import PerfCounters, build_report

from tests.conftest import make_tiny_mlp


class TestPerfReport:
    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            build_report(TPUV4I, "x", PerfCounters())

    def test_counters_accumulate_bytes(self):
        counters = PerfCounters()
        counters.add_bytes("hbm", 10)
        counters.add_bytes("hbm", 5)
        assert counters.bytes_by_level == {"hbm": 15}

    def test_report_derives_rates(self):
        counters = PerfCounters(cycles=1_050_000, macs=10**9,
                                mxu_busy_cycles=500_000)
        report = build_report(TPUV4I, "x", counters)
        assert report.seconds == pytest.approx(0.001)
        assert report.achieved_tops == pytest.approx(2.0, rel=0.01)
        assert report.mxu_utilization == pytest.approx(500_000 / 1_050_000)
        assert report.tops_per_watt > 0
        assert "x on TPUv4i" in report.describe()


class TestSimulatorEdgeCases:
    def _program(self, *instructions):
        program = Program("hand", generation=4)
        for inst in instructions:
            program.append(Bundle((inst,)))
        program.append(Bundle((Instruction(Opcode.HALT),)))
        return program

    def test_wait_on_never_set_flag_is_free(self):
        program = self._program(Instruction(Opcode.SYNC_WAIT, (7,)))
        result = TensorCoreSim(TPUV4I).run(program)
        assert result.counters.sync_stall_cycles == 0

    def test_dma_then_wait_stalls(self):
        program = self._program(
            Instruction(Opcode.DMA_IN, (0, 64 * 2**20, 3)),  # 64 MiB from HBM
            Instruction(Opcode.SYNC_WAIT, (3,)),
        )
        result = TensorCoreSim(TPUV4I).run(program)
        assert result.counters.sync_stall_cycles > 10_000

    def test_dma_to_an_unknown_level_is_named(self):
        program = self._program(Instruction(Opcode.DMA_IN, (7, 4096, 0)))
        with pytest.raises(ValueError, match=r"dma\.in level operand 7 "
                           r".*known: 0 \(hbm\), 1 \(cmem\), 2 \(vmem\)"):
            TensorCoreSim(TPUV4I).run(program)

    def test_back_to_back_mxms_serialize_on_mxu(self):
        one = self._program(Instruction(Opcode.MXM, (512, 512, 512)))
        two = self._program(Instruction(Opcode.MXM, (512, 512, 512)),
                            Instruction(Opcode.MXM, (512, 512, 512)))
        sim = TensorCoreSim(TPUV4I)
        assert sim.run(two).cycles >= 2 * sim.run(one).cycles - 4

    def test_vector_and_matrix_overlap(self):
        """Independent VPU work hides behind a long matmul."""
        mxm_only = self._program(Instruction(Opcode.MXM, (2048, 2048, 2048)))
        mixed = self._program(Instruction(Opcode.MXM, (2048, 2048, 2048)),
                              Instruction(Opcode.VADD, (100_000,)))
        sim = TensorCoreSim(TPUV4I)
        assert sim.run(mixed).cycles <= sim.run(mxm_only).cycles + 10

    def test_scalar_ops_counted(self):
        program = self._program(Instruction(Opcode.SADD, (1, 2, 3)))
        result = TensorCoreSim(TPUV4I).run(program)
        assert result.counters.scalar_ops == 1

    def test_mxm_loadw_occupies_mxu(self):
        program = self._program(Instruction(Opcode.MXM_LOADW, (128, 128)))
        result = TensorCoreSim(TPUV4I).run(program)
        assert result.counters.mxu_busy_cycles >= 128

    def test_halt_stops_execution(self):
        program = Program("h", generation=4)
        program.append(Bundle((Instruction(Opcode.HALT),)))
        program.append(Bundle((Instruction(Opcode.MXM, (512, 512, 512)),)))
        result = TensorCoreSim(TPUV4I).run(program)
        assert result.counters.macs == 0

    def test_fresh_state_between_runs(self, tiny_mlp):
        sim = TensorCoreSim(TPUV4I)
        program = compile_model(tiny_mlp, TPUV4I).program
        first = sim.run(program)
        second = sim.run(program)
        assert first.cycles == second.cycles
        assert (first.counters.bytes_by_level
                == second.counters.bytes_by_level)
