"""Tests for expansion, fusion, allocation, tiling, and versions."""

import pytest

from repro.arch import TPUV3, TPUV4I
from repro.compiler import (
    RELEASES,
    LATEST,
    expand_composites,
    plan_fusion,
    plan_memory,
    plan_matmul_tiles,
    release_by_name,
)
from repro.compiler.versions import ALL_FEATURES, CompilerVersion
from repro.graph import GraphBuilder, Shape
from repro.util.units import MIB

from tests.conftest import make_tiny_mlp


def softmax_module():
    b = GraphBuilder("sm")
    x = b.parameter(Shape((8, 128)))
    b.softmax(x)
    return b.build()


class TestExpansion:
    def test_softmax_becomes_primitives(self):
        out = expand_composites(softmax_module())
        ops = {i.opcode for i in out.instructions}
        assert "softmax" not in ops
        assert {"reduce_max", "sub", "exp", "reduce_sum", "div"} <= ops

    def test_layernorm_adds_gamma_beta(self):
        b = GraphBuilder("ln")
        x = b.parameter(Shape((8, 128)))
        b.layernorm(x)
        out = expand_composites(b.build())
        consts = [i for i in out.instructions if i.opcode == "constant"]
        assert len(consts) == 2  # gamma and beta

    def test_shapes_preserved(self):
        out = expand_composites(softmax_module())
        assert out.root.shape.dims == (8, 128)

    def test_noop_on_composite_free_module(self, tiny_mlp):
        out = expand_composites(tiny_mlp)
        assert [i.opcode for i in out.instructions] == [
            i.opcode for i in tiny_mlp.instructions]

    def test_flops_increase_with_expansion(self):
        src = softmax_module()
        out = expand_composites(src)
        assert out.total_flops() > 0
        assert out.validate() is None


class TestFusion:
    def test_relu_fuses_into_dot(self, tiny_mlp):
        plan = plan_fusion(tiny_mlp)
        dots = [i for i in tiny_mlp.instructions if i.kind == "matmul"]
        relus = [i for i in tiny_mlp.instructions if i.opcode == "relu"]
        assert plan.group_of[relus[0].uid] == plan.group_of[dots[0].uid]

    def test_disabled_gives_singletons(self, tiny_mlp):
        plan = plan_fusion(tiny_mlp, enabled=False)
        assert plan.fused_op_count() == 0
        assert len(plan.members) == len(tiny_mlp.instructions)

    def test_multi_consumer_producer_not_fused(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((8, 128)))
        w = b.constant(Shape((128, 128)))
        y = b.dot(x, w)
        r1 = b.relu(y)
        r2 = b.tanh(y)  # second consumer of y
        module = b.build()
        plan = plan_fusion(module)
        assert plan.group_of[r1.uid] != plan.group_of[y.uid]
        assert plan.group_of[r2.uid] != plan.group_of[y.uid]

    def test_never_fuses_into_data(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((8, 128)))
        r = b.relu(x)
        plan = plan_fusion(b.build())
        assert plan.group_of[r.uid] != plan.group_of[x.uid]

    def test_chain_fuses_transitively(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((8, 128)))
        w = b.constant(Shape((128, 128)))
        out = b.gelu(b.relu(b.dot(x, w)))
        plan = plan_fusion(b.build())
        gids = {plan.group_of[i] for i in (out.uid, out.operands[0].uid,
                                           out.operands[0].operands[0].uid)}
        assert len(gids) == 1


class TestAllocator:
    def test_small_weights_all_in_cmem(self, tiny_mlp):
        plan = plan_memory(tiny_mlp, TPUV4I)
        assert plan.cmem_hit_fraction == 1.0

    def test_budget_zero_forces_hbm(self, tiny_mlp):
        plan = plan_memory(tiny_mlp, TPUV4I, cmem_budget_bytes=0)
        assert plan.cmem_weight_bytes == 0
        assert plan.hbm_weight_bytes == tiny_mlp.total_weight_bytes()

    def test_no_cmem_chip(self, tiny_mlp):
        plan = plan_memory(tiny_mlp, TPUV3)
        assert plan.cmem_weight_bytes == 0

    def test_partial_fit_packs_greedily(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((8, 4096)))
        big = b.constant(Shape((4096, 8192)), "big")      # 64 MiB
        huge = b.constant(Shape((8192, 8192)), "huge")    # 128 MiB
        b.dot(b.dot(x, big), huge)
        module = b.build()
        plan = plan_memory(module, TPUV4I, cmem_budget_bytes=100 * MIB)
        assert plan.home_of(big.uid) == "cmem"
        assert plan.home_of(huge.uid) == "hbm"

    def test_budget_cannot_exceed_physical(self, tiny_mlp):
        plan = plan_memory(tiny_mlp, TPUV4I, cmem_budget_bytes=4096 * MIB)
        assert plan.cmem_budget_bytes <= TPUV4I.cmem_bytes

    def test_weight_load_bytes_split(self, tiny_mlp):
        plan = plan_memory(tiny_mlp, TPUV4I)
        assert plan.cmem_weight_bytes == tiny_mlp.total_weight_bytes()
        assert plan.hbm_weight_bytes == 0

    def test_negative_budget_rejected(self, tiny_mlp):
        with pytest.raises(ValueError):
            plan_memory(tiny_mlp, TPUV4I, cmem_budget_bytes=-1)


class TestTiling:
    def test_tiles_cover_m(self):
        tiles = plan_matmul_tiles(10_000, 1024, 1024, TPUV4I,
                                  vmem_budget=8 * MIB)
        assert sum(t.rows for t in tiles) == 10_000

    def test_good_tiling_fewer_tiles(self):
        good = plan_matmul_tiles(8192, 1024, 1024, TPUV4I, vmem_budget=8 * MIB)
        naive = plan_matmul_tiles(8192, 1024, 1024, TPUV4I,
                                  vmem_budget=8 * MIB, good_tiling=False)
        assert len(good) < len(naive)

    def test_small_m_single_tile(self):
        tiles = plan_matmul_tiles(16, 1024, 1024, TPUV4I, vmem_budget=8 * MIB)
        assert len(tiles) == 1
        assert tiles[0].rows == 16

    def test_chunk_fits_budget(self):
        budget = 8 * MIB
        tiles = plan_matmul_tiles(100_000, 2048, 2048, TPUV4I,
                                  vmem_budget=budget)
        t = tiles[0]
        working = (t.rows * t.k * 2 + t.rows * t.n * 2  # activations in, out
                   + 2048 * 128 * 2)  # one weight panel
        assert working <= budget

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            plan_matmul_tiles(0, 1, 1, TPUV4I, vmem_budget=1 * MIB)


class TestVersions:
    def test_latest_has_everything(self):
        assert LATEST.features == ALL_FEATURES

    def test_first_release_has_nothing(self):
        assert not RELEASES[0].features

    def test_features_only_accumulate(self):
        for older, newer in zip(RELEASES, RELEASES[1:]):
            assert older.features <= newer.features
            assert older.months_after_launch < newer.months_after_launch

    def test_lookup(self):
        assert release_by_name("v2021.2") is LATEST
        with pytest.raises(KeyError):
            release_by_name("v1999.1")

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            CompilerVersion("bad", 0, frozenset({"agi"}))
        with pytest.raises(KeyError):
            LATEST.has("agi")
