"""Direct unit tests for the lowering and scheduling passes."""

import pytest

from repro.arch import TPUV3, TPUV4I
from repro.compiler import (
    expand_composites,
    lower_module,
    plan_fusion,
    plan_memory,
    release_by_name,
    schedule,
    LATEST,
)
from repro.graph import GraphBuilder, Shape
from repro.isa.instructions import (LEVEL_IDS, Opcode,
                                    slot_layout_for_generation)
from repro.isa.program import Program

from tests.conftest import make_tiny_mlp

EARLY = release_by_name("v2020.1")
WITH_CMEM = release_by_name("v2020.2")


def lower(module, chip=TPUV4I, version=LATEST, cmem_budget=None):
    expanded = expand_composites(module)
    fusion = plan_fusion(expanded, enabled=version.has("fusion"))
    memory = plan_memory(expanded, chip, cmem_budget_bytes=cmem_budget,
                         use_cmem=version.has("cmem_alloc"))
    return expanded, lower_module(expanded, fusion, chip, version).bind(memory)


def as_program(lowered, generation, version):
    return Program("t", generation, *schedule(lowered, generation,
                                              version.has("dual_issue")))


def all_instructions(lowered):
    out = []
    for op in lowered:
        out.extend(op.all_instructions())
    return out


class TestMatmulLowering:
    def test_weights_stream_from_cmem_when_resident(self, tiny_mlp):
        _, lowered = lower(tiny_mlp)
        loads = [i for i in all_instructions(lowered)
                 if i.opcode is Opcode.DMA_IN]
        levels = {i.args[0] for i in loads}
        assert LEVEL_IDS["cmem"] in levels  # weights
        assert LEVEL_IDS["hbm"] in levels   # request input

    def test_weights_stream_from_hbm_without_cmem_alloc(self, tiny_mlp):
        _, lowered = lower(tiny_mlp, version=EARLY)
        loads = [i for i in all_instructions(lowered)
                 if i.opcode is Opcode.DMA_IN]
        assert all(i.args[0] == LEVEL_IDS["hbm"] for i in loads)

    def test_every_mxm_preceded_by_wait_when_data_is_remote(self, tiny_mlp):
        _, lowered = lower(tiny_mlp)
        for op in lowered:
            body_ops = [i.opcode for i in op.body]
            if Opcode.MXM in body_ops:
                first_mxm = body_ops.index(Opcode.MXM)
                assert Opcode.SYNC_WAIT in body_ops[:first_mxm]

    def test_mxm_dims_match_module(self, tiny_mlp):
        _, lowered = lower(tiny_mlp)
        mxms = [i for i in all_instructions(lowered)
                if i.opcode is Opcode.MXM]
        macs = sum(m * k * n for m, k, n in (i.args for i in mxms))
        expected = 4 * 256 * 128 + 4 * 128 * 16
        assert macs == expected

    def test_prefetch_hoists_dmas_to_prologue(self, tiny_mlp):
        _, eager = lower(tiny_mlp, version=LATEST)
        _, sync = lower(tiny_mlp, version=WITH_CMEM)  # no prefetch yet
        eager_prologue_dmas = sum(
            1 for op in eager for i in op.prologue
            if i.opcode is Opcode.DMA_IN)
        sync_prologue_dmas = sum(
            1 for op in sync for i in op.prologue
            if i.opcode is Opcode.DMA_IN)
        assert eager_prologue_dmas > sync_prologue_dmas

    def test_synchronous_dma_waits_immediately(self, tiny_mlp):
        _, lowered = lower(tiny_mlp, version=EARLY)
        for op in lowered:
            body = op.body
            for index, inst in enumerate(body):
                if inst.opcode is Opcode.DMA_IN:
                    assert body[index + 1].opcode is Opcode.SYNC_WAIT
                    assert body[index + 1].args == (inst.args[2],)


class TestConvAndGather:
    def test_conv_lowering_im2col_dims(self):
        b = GraphBuilder("conv")
        x = b.parameter(Shape((2, 16, 16, 32)))
        f = b.constant(Shape((3, 3, 32, 64)))
        b.conv2d(x, f)
        _, lowered = lower(b.build())
        mxms = [i for i in all_instructions(lowered)
                if i.opcode is Opcode.MXM]
        macs = sum(m * k * n for m, k, n in (i.args for i in mxms))
        assert macs == 2 * 16 * 16 * 9 * 32 * 64

    def test_gather_reads_touched_rows_with_burst_padding(self):
        b = GraphBuilder("emb")
        table = b.constant(Shape((1_000_000, 64)))  # 122 MiB table
        ids = b.parameter(Shape((8, 4), "int32"))
        b.embedding_lookup(table, ids)
        _, lowered = lower(b.build(), cmem_budget=0)
        loads = [i for i in all_instructions(lowered)
                 if i.opcode is Opcode.DMA_IN]
        # 32 rows of 128 B each pad to the 256 B DRAM burst.
        gathered = 8 * 4 * 256
        assert any(i.args[1] == gathered for i in loads)
        assert all(i.args[1] < 1_000_000 for i in loads)

    def test_wide_gather_rows_not_padded(self):
        b = GraphBuilder("emb")
        table = b.constant(Shape((10_000, 256)))  # 512 B rows > burst
        ids = b.parameter(Shape((4, 2), "int32"))
        b.embedding_lookup(table, ids)
        _, lowered = lower(b.build(), cmem_budget=0)
        loads = [i for i in all_instructions(lowered)
                 if i.opcode is Opcode.DMA_IN]
        assert any(i.args[1] == 4 * 2 * 256 * 2 for i in loads)

    def test_batched_dot_emits_one_mxm_per_batch(self):
        b = GraphBuilder("attn")
        q = b.parameter(Shape((24, 64, 32)))
        k = b.parameter(Shape((24, 32, 64)))
        b.batched_dot(q, k)
        _, lowered = lower(b.build())
        mxms = [i for i in all_instructions(lowered)
                if i.opcode is Opcode.MXM]
        assert len(mxms) == 24
        assert all(i.args == (64, 32, 64) for i in mxms)


class TestMaterialization:
    def _big_chain(self):
        b = GraphBuilder("chain")
        x = b.parameter(Shape((64, 65536)))  # 8 MiB tensor
        y = b.gelu(x)
        b.tanh(y)
        return b.build()

    def test_no_fusion_materializes_large_intermediates(self):
        module = self._big_chain()
        _, lowered = lower(module, version=WITH_CMEM)  # fusion off
        stores = [i for i in all_instructions(lowered)
                  if i.opcode is Opcode.DMA_OUT]
        assert len(stores) >= 2  # gelu materializes + root store

    def test_fusion_eliminates_materialization(self):
        module = self._big_chain()
        version = release_by_name("v2020.3")  # fusion on, no prefetch
        _, lowered = lower(module, version=version)
        stores = [i for i in all_instructions(lowered)
                  if i.opcode is Opcode.DMA_OUT]
        assert len(stores) == 1  # only the root store remains


class TestScheduler:
    def test_dense_packing_respects_slots(self, tiny_mlp):
        _, lowered = lower(tiny_mlp)
        program = as_program(lowered, 4, LATEST)
        for bundle in program.run_bundles:
            bundle.check_slots(slot_layout_for_generation(4), 4)

    def test_sparse_packing_one_per_bundle(self, tiny_mlp):
        _, lowered = lower(tiny_mlp, version=EARLY)
        program = as_program(lowered, 4, EARLY)
        assert all(len(b.instructions) == 1 for b in program.bundles)

    def test_halt_is_last(self, tiny_mlp):
        _, lowered = lower(tiny_mlp)
        program = as_program(lowered, 4, LATEST)
        assert list(program.instructions())[-1].opcode is Opcode.HALT

    def test_order_preserved(self, tiny_mlp):
        _, lowered = lower(tiny_mlp)
        flat = [i for op in lowered for i in op.all_instructions()]
        program = as_program(lowered, 4, LATEST)
        scheduled = [i for i in program.instructions()
                     if i.opcode is not Opcode.HALT]
        assert scheduled == flat

    def test_cross_generation_scheduling(self, tiny_mlp):
        for chip in (TPUV3, TPUV4I):
            _, lowered = lower(tiny_mlp, chip=chip)
            program = as_program(lowered, chip.generation, LATEST)
            layout = slot_layout_for_generation(chip.generation)
            for bundle in program.run_bundles:
                bundle.check_slots(layout, chip.generation)
