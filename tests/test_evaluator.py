"""Tests for the functional evaluator (what-bits semantics)."""

import numpy as np
import pytest

from repro.arch import TPUV2, TPUV3, TPUV4I
from repro.compiler import compile_model
from repro.graph import GraphBuilder, Shape, evaluate_module
from repro.mlcompat import model_numerics_match
from repro.numerics import snr_db
from repro.sim import TensorCoreSim
from repro.workloads.layers import transformer_layer
from repro.workloads.models import _build_lstm

from tests.conftest import make_tiny_mlp


def attention_module(batch=2, seq=8, hidden=64, heads=4):
    b = GraphBuilder("attn")
    x = b.parameter(Shape((batch, seq, hidden)), "x")
    y = transformer_layer(b, x, heads=heads, ffn_dim=2 * hidden)
    module = b.build()
    module.set_root(y)
    return module


class TestBasics:
    def test_output_shape_matches_root(self, tiny_mlp):
        out = evaluate_module(tiny_mlp, "fp32")
        assert out.shape == tiny_mlp.root.shape.dims

    def test_deterministic(self, tiny_mlp):
        a = evaluate_module(tiny_mlp, "bf16", seed=5)
        b = evaluate_module(tiny_mlp, "bf16", seed=5)
        assert np.array_equal(a, b)

    def test_seed_changes_tensors(self, tiny_mlp):
        a = evaluate_module(tiny_mlp, "bf16", seed=1)
        b = evaluate_module(tiny_mlp, "bf16", seed=2)
        assert not np.array_equal(a, b)

    def test_unknown_arithmetic_rejected(self, tiny_mlp):
        with pytest.raises(ValueError):
            evaluate_module(tiny_mlp, "fp16")

    def test_explicit_inputs_and_weights(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((1, 2)), "x")
        w = b.constant(Shape((2, 2)), "w")
        b.dot(x, w)
        module = b.build()
        out = evaluate_module(
            module, "fp32",
            inputs={"x": np.array([[1.0, 2.0]], dtype=np.float32)},
            weights={"w": np.eye(2, dtype=np.float32)})
        assert np.allclose(out, [[1.0, 2.0]])

    def test_wrong_input_shape_rejected(self):
        b = GraphBuilder("m")
        b.parameter(Shape((1, 2)), "x")
        module = b.build()
        with pytest.raises(ValueError, match="expected"):
            evaluate_module(module, "fp32",
                            inputs={"x": np.zeros((2, 2))})


class TestArithmetics:
    def test_bf16_close_to_fp32(self, tiny_mlp):
        ref = evaluate_module(tiny_mlp, "fp32", seed=3)
        bf = evaluate_module(tiny_mlp, "bf16", seed=3)
        assert snr_db(ref, bf) > 30

    def test_int8_noisier_than_bf16(self, tiny_mlp):
        ref = evaluate_module(tiny_mlp, "fp32", seed=3)
        bf = evaluate_module(tiny_mlp, "bf16", seed=3)
        q = evaluate_module(tiny_mlp, "int8", seed=3)
        assert snr_db(ref, q) < snr_db(ref, bf)
        assert snr_db(ref, q) > 10  # but still usable

    def test_bf16_outputs_are_bf16_representable(self, tiny_mlp):
        from repro.numerics.bfloat16 import is_bf16_exact

        out = evaluate_module(tiny_mlp, "bf16")
        assert np.all(is_bf16_exact(out))


class TestOpCoverage:
    def test_transformer_layer_runs_all_arithmetics(self):
        module = attention_module()
        for arithmetic in ("fp32", "bf16", "int8"):
            out = evaluate_module(module, arithmetic, seed=1)
            assert out.shape == (2, 8, 64)
            assert np.all(np.isfinite(out))

    def test_softmax_rows_sum_to_one(self):
        b = GraphBuilder("sm")
        x = b.parameter(Shape((4, 16)), "x")
        b.softmax(x)
        out = evaluate_module(b.build(), "fp32")
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)
        assert np.all(out >= 0)

    def test_layernorm_normalizes(self):
        b = GraphBuilder("ln")
        x = b.parameter(Shape((4, 64)), "x")
        b.layernorm(x)
        out = evaluate_module(b.build(), "fp32")
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_lstm_executes(self):
        module = _build_lstm("tiny", 2, seq=3, hidden=16, layers=2, vocab=8)
        out = evaluate_module(module, "bf16")
        assert out.shape == (2, 8)
        assert np.all(np.isfinite(out))

    def test_conv_matches_manual(self):
        b = GraphBuilder("c")
        img = b.parameter(Shape((1, 4, 4, 1)), "img")
        filt = b.constant(Shape((1, 1, 1, 1)), "f")
        b.conv2d(img, filt)
        module = b.build()
        image = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = evaluate_module(module, "fp32", inputs={"img": image},
                              weights={"f": np.full((1, 1, 1, 1), 2.0,
                                                    dtype=np.float32)})
        assert np.allclose(out, 2.0 * image)

    def test_strided_conv_shape(self):
        b = GraphBuilder("c")
        img = b.parameter(Shape((2, 8, 8, 3)), "img")
        filt = b.constant(Shape((3, 3, 3, 4)), "f")
        b.conv2d(img, filt, stride=2)
        out = evaluate_module(b.build(), "fp32")
        assert out.shape == (2, 4, 4, 4)

    def test_embedding_lookup_selects_rows(self):
        b = GraphBuilder("e")
        table = b.constant(Shape((10, 4)), "t")
        ids = b.parameter(Shape((1, 2), "int32"), "ids")
        b.embedding_lookup(table, ids)
        module = b.build()
        rows = np.arange(40, dtype=np.float32).reshape(10, 4)
        out = evaluate_module(
            module, "fp32",
            inputs={"ids": np.array([[3, 7]], dtype=np.int64)},
            weights={"t": rows})
        assert np.allclose(out[0, 0], rows[3])
        assert np.allclose(out[0, 1], rows[7])


class TestLesson10EndToEnd:
    def test_bf16_bit_exact_across_generations_whole_model(self):
        """The lesson's claim on a real (small) transformer."""
        module = attention_module()
        for source, target in ((TPUV2, TPUV3), (TPUV3, TPUV4I)):
            check = model_numerics_match(module, source, target)
            assert check.bit_exact
            assert check.est_quality_loss_pct == 0.0

    def test_int8_chip_shows_quality_gap(self):
        module = attention_module()
        int8_only = TPUV4I.variant("int8only", dtypes=("int8",))
        check = model_numerics_match(module, TPUV3, int8_only)
        assert not check.bit_exact
        assert check.needs_calibration
        assert check.snr_db < 60


class TestMaxPool:
    def test_shape_inference(self):
        b = GraphBuilder("p")
        x = b.parameter(Shape((2, 8, 8, 16)))
        assert b.max_pool2d(x, 2, 2).shape.dims == (2, 4, 4, 16)
        assert b.max_pool2d(x, 3, 2).shape.dims == (2, 4, 4, 16)

    def test_flops_counted(self):
        b = GraphBuilder("p")
        x = b.parameter(Shape((1, 8, 8, 4)))
        pool = b.max_pool2d(x)
        assert b.module.instruction_flops(pool) == 8 * 8 * 4

    def test_evaluator_matches_manual(self):
        b = GraphBuilder("p")
        x = b.parameter(Shape((1, 4, 4, 1)), "x")
        b.max_pool2d(x, 2, 2)
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = evaluate_module(b.module, "fp32", inputs={"x": img})
        assert np.array_equal(out.reshape(2, 2),
                              [[5.0, 7.0], [13.0, 15.0]])

    def test_compiles_and_simulates(self):
        b = GraphBuilder("p")
        x = b.parameter(Shape((2, 32, 32, 8)))
        b.max_pool2d(x, 3, 2)
        result = TensorCoreSim(TPUV4I).run(
            compile_model(b.build(), TPUV4I).program)
        assert result.counters.vpu_busy_cycles > 0

    def test_bad_window_rejected(self):
        b = GraphBuilder("p")
        x = b.parameter(Shape((2, 8, 8, 4)))
        with pytest.raises(ValueError):
            b.max_pool2d(x, 0, 1)
