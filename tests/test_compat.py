"""Tests for compiler-vs-binary compatibility (Lesson 2, E13)."""

import pytest

from repro.arch import GENERATIONS, TPUV1, TPUV2, TPUV3, TPUV4I
from repro.compiler import binary_runs_on, compile_model, migrate_model
from repro.compiler.pipeline import retarget_dtype
from repro.engine.modules import built_module
from repro.graph import GraphBuilder, Shape
from repro.workloads.models import app_by_name


class TestBinaryPortability:
    def test_binary_stays_home(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV3)
        assert binary_runs_on(compiled, TPUV3)

    def test_binary_never_crosses(self, tiny_mlp):
        compiled = compile_model(tiny_mlp, TPUV3)
        for target in (TPUV2, TPUV4I):
            assert not binary_runs_on(compiled, target)


class TestMigration:
    def test_v3_to_v4i_recompiles(self, tiny_mlp):
        report = migrate_model(tiny_mlp, TPUV3, TPUV4I)
        assert not report.binary_portable
        assert report.recompiled
        assert report.retargeted_dtype is None
        assert "recompile" in report.notes

    def test_v3_to_v1_needs_quantization(self, tiny_mlp):
        report = migrate_model(tiny_mlp, TPUV3, TPUV4I.variant(
            "int8only", dtypes=("int8",), isa_version=4))
        assert report.recompiled
        assert report.retargeted_dtype == "int8"
        assert "re-validated" in report.notes

    def test_same_generation_binary_carries(self, tiny_mlp):
        report = migrate_model(tiny_mlp, TPUV3, TPUV3)
        assert report.binary_portable
        assert "carries over" in report.notes

    def test_v2_to_v3_upgrade_path(self, tiny_mlp):
        report = migrate_model(tiny_mlp, TPUV2, TPUV3)
        assert not report.binary_portable
        assert report.recompiled

    def test_full_cross_generation_matrix(self, tiny_mlp):
        """Every (bf16-capable source, target) pair recompiles; none ports."""
        chips = (TPUV2, TPUV3, TPUV4I)
        for source in chips:
            for target in chips:
                report = migrate_model(tiny_mlp, source, target)
                assert report.recompiled
                assert report.binary_portable == (source is target)

    def test_tpuv1_source_row(self):
        """An int8 TPUv1 model recompiles on every generation: as is where
        the target runs int8, widened to bf16 where it does not."""
        module = built_module(app_by_name("cnn0"), 1, "int8")
        for target in GENERATIONS:
            report = migrate_model(module, TPUV1, target)
            assert report.recompiled
            assert report.binary_portable == (target is TPUV1)
            want = None if target.supports_dtype("int8") else "bf16"
            assert report.retargeted_dtype == want


class TestRetarget:
    def test_int8_widens_and_indices_keep_int32(self):
        b = GraphBuilder("emb")
        table = b.constant(Shape((1000, 64), "int8"), "table")
        ids = b.parameter(Shape((8, 4), "int32"), "ids")
        b.embedding_lookup(table, ids)
        widened = retarget_dtype(b.build(), "bf16")
        dtypes = {inst.name: inst.shape.dtype_name
                  for inst in widened.instructions}
        assert dtypes["table"] == "bf16"
        assert dtypes["ids"] == "int32"
        assert widened.root.shape.dtype_name == "bf16"
        compile_model(widened, TPUV2)
