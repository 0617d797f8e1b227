"""Tests for the HLO module/builder and its cost accounting."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph import GraphBuilder, HloInstruction, HloModule, Shape
from repro.graph.ops import opdef

from tests.conftest import deadline, make_tiny_mlp

ROOT = Path(__file__).resolve().parent.parent

# Hashing is C-level recursion that no signal interrupts, so a hash
# that is exponential in the depth of shared subgraphs runs in a child
# process with a timeout.
_HASH_BERT0 = """
from repro.workloads import app_by_name
first, second = (app_by_name("bert0").build(1) for _ in range(2))
assert first.root is not second.root
assert hash(first.root) == hash(second.root)
assert len({inst: None for inst in first.instructions}) == len(first.instructions)
print("ok")
"""


def _diamonds(depth: int, leaf: str) -> HloInstruction:
    """A chain of ``depth`` diamonds (each value feeds two ops that meet
    again), so an unshared walk visits 2**depth paths."""
    b = GraphBuilder("diamonds")
    x = b.parameter(Shape((4, 8)), leaf)
    for _ in range(depth):
        x = b.add(b.relu(x), b.tanh(x))
    return x


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

    def test_concat_rejects_mismatched_dims(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 8)))
        y = b.parameter(Shape((5, 9)))
        with pytest.raises(ValueError, match=r"bf16\[5,9\].*bf16\[4,8\]"):
            b.concat([x, y], axis=0)

    def test_concat_rejects_mixed_dtypes(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 8)))
        y = b.parameter(Shape((4, 8), "int8"))
        with pytest.raises(ValueError, match=r"int8\[4,8\]"):
            b.concat([x, y], axis=1)

    def test_concat_rejects_mixed_ranks(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 8)))
        y = b.parameter(Shape((4, 8, 1)))
        with pytest.raises(ValueError, match="cannot concat"):
            b.concat([x, y], axis=0)

    @pytest.mark.parametrize("axis", [-1, 2, 5])
    def test_concat_rejects_axis_out_of_range(self, axis):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 8)))
        with pytest.raises(ValueError, match=f"axis {axis} out of range"):
            b.concat([x, x], axis=axis)

    def test_concat_many_parts(self):
        b = GraphBuilder("m")
        parts = [b.parameter(Shape((2, n, 3), "int8")) for n in (1, 4, 2)]
        out = b.concat(parts, axis=1)
        assert out.shape == Shape((2, 7, 3), "int8")

    def test_reshape_rejects_float_dims(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((4, 8)))
        with pytest.raises(ValueError, match="positive integers"):
            b.reshape(x, (2.0, 16))

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


class TestInstructionRecord:
    def _pair(self):
        a, b = (GraphBuilder("m") for _ in range(2))
        x = (a.parameter(Shape((2, 4)), "x"), b.parameter(Shape((2, 4)), "x"))
        return (a.transpose(x[0], (1, 0), "t"),
                b.transpose(x[1], (1, 0), "t"))

    def test_rejects_attribute_assignment(self, tiny_mlp):
        inst = tiny_mlp.root
        for field in ("uid", "opcode", "shape", "operands", "attrs", "name",
                      "extra"):
            with pytest.raises(AttributeError):
                setattr(inst, field, None)

    def test_equal_fields_give_equal_instructions_and_hashes(self):
        first, second = self._pair()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert first.attrs == (("perm", (1, 0)),)
        assert first != first._replace(name="u")

    def test_equals_only_another_instruction(self):
        first, _ = self._pair()
        assert first != tuple(first)
        assert tuple(first) != first

    def test_kind_follows_the_opcode(self):
        first, _ = self._pair()
        assert first.kind == "shape"
        assert first.operands[0].kind == "data"

    def test_pickle_round_trip(self, tiny_mlp):
        for inst in tiny_mlp.instructions:
            loaded = pickle.loads(pickle.dumps(inst))
            assert type(loaded) is HloInstruction
            assert loaded == inst and hash(loaded) == hash(inst)

    def test_add_keeps_its_checks(self):
        b = GraphBuilder("m")
        with pytest.raises(KeyError, match="unknown op 'frobnicate'"):
            b.module.add("frobnicate", Shape((2,)))
        x = b.parameter(Shape((2,)))
        assert b.module.add("scale", x.shape, (x,), factor=0.5,
                            alpha=1).attrs == (("alpha", 1), ("factor", 0.5))

    def test_add_rejects_a_shape_that_is_not_a_shape(self):
        module = HloModule("m")
        with pytest.raises(TypeError, match="shape must be a Shape"):
            module.add("parameter", (8, 128))
        assert module.instructions == []

    def test_hash_of_bert0_finishes(self):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
        proc = subprocess.run([sys.executable, "-c", _HASH_BERT0], env=env,
                              cwd=ROOT, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.strip() == b"ok"

    def test_equality_of_shared_graphs_is_linear(self):
        from repro.workloads import app_by_name

        with deadline(10):
            first, second = (app_by_name("bert0").build(1) for _ in range(2))
            assert first.root == second.root
            assert not first.root != second.root
            deep, twin = _diamonds(200, "x"), _diamonds(200, "x")
            assert deep == twin and hash(deep) == hash(twin)
            # The only difference is the leaf's name, 600 operands down.
            assert deep != _diamonds(200, "y")
            assert first.root != app_by_name("bert0").build(2).root
