"""Tests for the end-to-end compile pipeline and the simulator."""

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.compiler import RELEASES, compile_model
from repro.compiler.pipeline import UnsupportedDtypeError, retarget_dtype
from repro.graph import GraphBuilder, Shape
from repro.isa.instructions import Opcode
from repro.sim import TensorCoreSim

from tests.conftest import make_tiny_mlp


class TestPipeline:
    def test_compiles_and_carries_metadata(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I)
        assert compiled.program.generation == 4
        assert compiled.program.metadata["compiler_version"] == "v2021.2"
        assert compiled.weight_bytes == tiny_mlp.total_weight_bytes()

    def test_program_macs_match_module_flops(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I)
        matmul_flops = sum(
            tiny_mlp.instruction_flops(i)
            for i in tiny_mlp.instructions_of_kind("matmul"))
        assert 2 * compiled.program.total_macs() >= matmul_flops

    def test_bf16_rejected_on_tpuv1(self, tiny_mlp):
        with pytest.raises(UnsupportedDtypeError, match="TPUv1"):
            compile_model(tiny_mlp, TPUV1)

    def test_retarget_enables_tpuv1(self, tiny_mlp):
        quantized = retarget_dtype(tiny_mlp, "int8")
        compiled = compile_model(quantized, TPUV1)
        assert compiled.program.generation == 1

    def test_retarget_keeps_index_dtypes(self):
        b = GraphBuilder("m")
        table = b.constant(Shape((100, 8)))
        ids = b.parameter(Shape((2, 2), "int32"))
        b.embedding_lookup(table, ids)
        out = retarget_dtype(b.build(), "int8")
        dtypes = {i.shape.dtype_name for i in out.instructions}
        assert "int32" in dtypes and "int8" in dtypes

    def test_halt_terminates_program(self, tiny_mlp):
        program = compile_model(tiny_mlp, TPUV4I).program
        assert list(program.instructions())[-1].opcode is Opcode.HALT

    def test_cmem_budget_respected(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I, cmem_budget_bytes=0)
        assert compiled.memory.cmem_weight_bytes == 0

    def test_summary_fields(self, tiny_mlp):
        summary = compile_model(tiny_mlp, TPUV4I).summary()
        assert summary["chip"] == "TPUv4i"
        assert summary["bundles"] > 0

    @pytest.mark.parametrize("chip", [TPUV2, TPUV3, TPUV4I])
    def test_all_bf16_generations_compile(self, tiny_mlp, chip):
        compiled = compile_model(tiny_mlp, chip)
        assert compiled.program.generation == chip.generation


class TestSimulator:
    def test_runs_and_counts(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I)
        result = TensorCoreSim(TPUV4I).run(compiled.program)
        assert result.cycles > 0
        assert result.counters.macs == compiled.program.total_macs()
        assert result.report.seconds > 0

    def test_rejects_cross_generation_binary(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV3)
        with pytest.raises(ValueError, match="Recompile"):
            TensorCoreSim(TPUV4I).run(compiled.program)

    def test_rejects_unsupported_dtype(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I)
        with pytest.raises(ValueError):
            TensorCoreSim(TPUV4I).run(compiled.program, dtype="fp64")

    def test_deterministic(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I)
        sim = TensorCoreSim(TPUV4I)
        assert sim.run(compiled.program).cycles == sim.run(compiled.program).cycles

    def test_trace_records_units(self, tiny_mlp):
        from repro.obs.tracer import SpanTracer

        compiled = compile_model(tiny_mlp, TPUV4I)
        tracer = SpanTracer()
        TensorCoreSim(TPUV4I).run(compiled.program, tracer=tracer)
        units = {span.track for span in tracer.spans}
        assert "mxu" in units
        assert any(u.startswith("dma.") for u in units)

    def test_traffic_flows_through_levels(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV4I)
        result = TensorCoreSim(TPUV4I).run(compiled.program)
        assert result.counters.bytes_by_level.get("vmem", 0) > 0
        assert result.counters.bytes_by_level.get("hbm", 0) > 0

    def test_bigger_batch_more_cycles(self):
        sim = TensorCoreSim(TPUV4I)
        small = sim.run(compile_model(make_tiny_mlp(batch=256), TPUV4I).program)
        large = sim.run(compile_model(make_tiny_mlp(batch=4096), TPUV4I).program)
        assert large.cycles > small.cycles

    def test_weight_load_seconds(self):
        sim = TensorCoreSim(TPUV4I)
        assert sim.weight_load_seconds(TPUV4I.hbm_bw) == pytest.approx(1.0)
        assert sim.weight_load_seconds(0, "hbm") == 0.0
        with pytest.raises(ValueError):
            sim.weight_load_seconds(-1)
        with pytest.raises(ValueError):
            TensorCoreSim(TPUV3).weight_load_seconds(10, "cmem")

    def test_mxu_utilization_in_unit_range(self, tiny_mlp):
        result = TensorCoreSim(TPUV4I).run(compile_model(tiny_mlp, TPUV4I).program)
        assert 0 < result.report.mxu_utilization <= 1.0
        assert 0 < result.report.compute_efficiency <= 1.0


class TestVersionEffects:
    """Later compiler releases never slow a workload down."""

    def test_monotone_latency_tiny(self, tiny_mlp):
        sim = TensorCoreSim(TPUV4I)
        lats = [sim.run(compile_model(tiny_mlp, TPUV4I, version=v).program).seconds
                for v in RELEASES]
        assert lats[-1] <= lats[0] * 1.001

    def test_sync_dma_stalls_without_prefetch(self, tiny_mlp):
        sim = TensorCoreSim(TPUV4I)
        early = sim.run(compile_model(tiny_mlp, TPUV4I,
                                      version=RELEASES[0]).program)
        late = sim.run(compile_model(tiny_mlp, TPUV4I,
                                     version=RELEASES[-1]).program)
        assert early.counters.sync_stall_cycles >= late.counters.sync_stall_cycles

    def test_dense_scheduling_fewer_bundles(self, tiny_mlp):
        sparse = compile_model(tiny_mlp, TPUV4I, version=RELEASES[-2])
        dense = compile_model(tiny_mlp, TPUV4I, version=RELEASES[-1])
        assert len(dense.program) <= len(sparse.program)
