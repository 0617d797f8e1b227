"""Tests for the HLO module/builder and its cost accounting."""

import pytest

from repro.graph import GraphBuilder, Shape
from repro.graph.ops import opdef

from tests.conftest import make_tiny_mlp


class TestBuilder:
    def test_uids_are_dense(self, tiny_mlp):
        assert [i.uid for i in tiny_mlp.instructions] == list(
            range(len(tiny_mlp.instructions)))

    def test_operands_must_belong(self):
        a = GraphBuilder("a")
        b = GraphBuilder("b")
        x = a.parameter(Shape((2, 2)))
        with pytest.raises(ValueError):
            b.relu(x)

    def test_root_defaults_to_last(self):
        b = GraphBuilder("m")
        b.parameter(Shape((2, 2)), "x")
        module = b.module
        assert module.root.opcode == "parameter"

    def test_set_root_rejects_foreign(self, tiny_mlp):
        other = make_tiny_mlp(name="other")
        with pytest.raises(ValueError):
            tiny_mlp.set_root(other.root)

    def test_bias_broadcast_allowed(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 16)))
        bias = b.constant(Shape((16,)))
        assert b.add(x, bias).shape.dims == (4, 16)

    def test_shape_mismatch_rejected(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 16)))
        y = b.parameter(Shape((4, 8)))
        with pytest.raises(ValueError):
            b.add(x, y)

    def test_reshape_conserves_elements(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 16)))
        assert b.reshape(x, (64,)).shape.dims == (64,)
        with pytest.raises(ValueError):
            b.reshape(x, (65,))

    def test_transpose_permutes(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((2, 3, 4)))
        assert b.transpose(x, (2, 0, 1)).shape.dims == (4, 2, 3)
        with pytest.raises(ValueError):
            b.transpose(x, (0, 0, 1))

    def test_concat(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((2, 3)))
        y = b.parameter(Shape((2, 5)))
        assert b.concat([x, y], axis=1).shape.dims == (2, 8)

    def test_embedding_lookup_shape(self):
        b = GraphBuilder("m")
        table = b.constant(Shape((1000, 64)))
        ids = b.parameter(Shape((8, 4), "int32"))
        assert b.embedding_lookup(table, ids).shape.dims == (8, 4, 64)


class TestAccounting:
    def test_tiny_mlp_flops(self, tiny_mlp):
        # dot(4x256x128)*2 + relu(4*128) + dot(4x128x16)*2
        expected = 2 * 4 * 256 * 128 + 4 * 128 + 2 * 4 * 128 * 16
        assert tiny_mlp.total_flops() == expected

    def test_weight_bytes_counts_constants_only(self, tiny_mlp):
        assert tiny_mlp.total_weight_bytes() == (256 * 128 + 128 * 16) * 2

    def test_io_bytes(self, tiny_mlp):
        assert tiny_mlp.io_bytes() == 4 * 256 * 2 + 4 * 16 * 2

    def test_operational_intensity_positive(self, tiny_mlp):
        assert tiny_mlp.operational_intensity() > 0

    def test_batched_dot_flops(self):
        b = GraphBuilder("m")
        q = b.parameter(Shape((96, 128, 64)))
        k = b.parameter(Shape((96, 64, 128)))
        scores = b.batched_dot(q, k)
        assert b.module.instruction_flops(scores) == 2 * 96 * 128 * 64 * 128

    def test_conv_flops(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((2, 8, 8, 16)))
        f = b.constant(Shape((3, 3, 16, 32)))
        conv = b.conv2d(x, f)
        assert b.module.instruction_flops(conv) == 2 * 2 * 8 * 8 * 32 * 3 * 3 * 16

    def test_shape_ops_free(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 4)))
        r = b.reshape(x, (16,))
        assert b.module.instruction_flops(r) == 0.0


class TestValidation:
    def test_validate_passes(self, tiny_mlp):
        tiny_mlp.validate()

    def test_kind_property(self, tiny_mlp):
        assert tiny_mlp.root.kind == opdef("dot").kind == "matmul"
