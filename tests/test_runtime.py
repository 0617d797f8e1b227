"""Tests for the runtime: artifacts and the inference server."""

import numpy as np
import pytest

from repro.arch import TPUV1, TPUV3, TPUV4I
from repro.compiler import compile_model
from repro.graph.evaluator import Evaluator, evaluate_module
from repro.runtime import InferenceServer, load_artifact, save_artifact
from repro.runtime.artifact import artifact_from_compiled

from tests.conftest import make_tiny_mlp


class TestArtifacts:
    def test_roundtrip(self, tiny_mlp, tmp_path):
        compiled = compile_model(tiny_mlp, TPUV4I)
        path = save_artifact(compiled, tmp_path / "model.tpu")
        loaded = load_artifact(path)
        assert loaded.metadata["model"] == "tiny"
        assert loaded.metadata["chip"] == "TPUv4i"
        assert loaded.generation == 4
        assert len(loaded.program) == len(compiled.program)

    def test_runs_on_gate(self, tiny_mlp, tmp_path):
        compiled = compile_model(tiny_mlp, TPUV3)
        loaded = load_artifact(save_artifact(compiled, tmp_path / "m.tpu"))
        assert loaded.runs_on(TPUV3)
        assert not loaded.runs_on(TPUV4I)

    def test_loaded_program_simulates(self, tiny_mlp, tmp_path):
        from repro.sim import TensorCoreSim

        compiled = compile_model(tiny_mlp, TPUV4I)
        loaded = load_artifact(save_artifact(compiled, tmp_path / "m.tpu"))
        direct = TensorCoreSim(TPUV4I).run(compiled.program)
        via_artifact = TensorCoreSim(TPUV4I).run(loaded.program)
        assert via_artifact.cycles == direct.cycles

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tpu"
        path.write_bytes(b"not json\ngarbage")
        with pytest.raises(ValueError, match="corrupt|not an artifact"):
            load_artifact(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tpu"
        path.write_bytes(b'{"magic": "something-else", "generation": 4}\nxx')
        with pytest.raises(ValueError, match="repro-artifact"):
            load_artifact(path)

    def test_header_binary_mismatch_rejected(self, tiny_mlp, tmp_path):
        compiled = compile_model(tiny_mlp, TPUV4I)
        artifact = artifact_from_compiled(compiled)
        tampered = dict(artifact.metadata)
        tampered["generation"] = 3  # lie about the target
        path = save_artifact(
            type(artifact)(program=artifact.program, metadata=tampered),
            tmp_path / "lie.tpu")
        with pytest.raises(ValueError, match="does not match"):
            load_artifact(path)

    def test_no_header_line(self, tmp_path):
        path = tmp_path / "empty.tpu"
        path.write_bytes(b"no newline at all")
        with pytest.raises(ValueError):
            load_artifact(path)


class TestInferenceServer:
    def test_serves_outputs_and_latency(self, tiny_mlp):
        server = InferenceServer(tiny_mlp, TPUV4I)
        result = server.infer()
        assert result.output.shape == tiny_mlp.root.shape.dims
        assert result.latency_s > 0
        assert result.energy_j > 0

    def test_arithmetic_defaults_to_chip_best(self, tiny_mlp):
        assert InferenceServer(tiny_mlp, TPUV4I).arithmetic == "bf16"

    def test_explicit_inputs_change_outputs(self, tiny_mlp):
        server = InferenceServer(tiny_mlp, TPUV4I)
        a = server.infer().output
        custom = {"x": np.ones((4, 256), dtype=np.float32)}
        b = server.infer(inputs=custom).output
        assert not np.array_equal(a, b)

    def test_same_request_same_bits(self, tiny_mlp):
        """Lesson 10 at the serving API: deterministic answers."""
        server = InferenceServer(tiny_mlp, TPUV4I)
        assert np.array_equal(server.infer().output, server.infer().output)

    def test_default_weights_are_drawn_once(self, tiny_mlp, monkeypatch):
        """A server keeps its default weights resident between requests,
        and a request that supplies a weight leaves them as they were."""
        reference = evaluate_module(tiny_mlp, "bf16")
        drawn = []
        draw = Evaluator._default_tensor
        monkeypatch.setattr(Evaluator, "_default_tensor",
                            lambda self, inst: drawn.append(inst.uid)
                            or draw(self, inst))
        server = InferenceServer(tiny_mlp, TPUV4I)
        first = server.infer().output
        constants = [inst.uid for inst in tiny_mlp.instructions
                     if inst.opcode == "constant"]
        assert constants and set(constants) <= set(drawn)
        weight = tiny_mlp.instructions[constants[0]]
        server.infer(weights={weight.name: np.zeros(weight.shape.dims)})
        second = server.infer().output
        assert np.array_equal(first, second)
        assert np.array_equal(first, reference)
        assert sorted(uid for uid in drawn if uid in constants) == constants

    def test_cross_generation_same_bits(self, tiny_mlp):
        v3 = InferenceServer(tiny_mlp, TPUV3, seed=9)
        v4i = InferenceServer(tiny_mlp, TPUV4I, seed=9)
        assert np.array_equal(v3.infer().output, v4i.infer().output)

    def test_unsupported_arithmetic_rejected(self, tiny_mlp):
        with pytest.raises(ValueError):
            InferenceServer(tiny_mlp, TPUV4I, arithmetic="fp64")

    def test_describe(self, tiny_mlp):
        assert "TPUv4i" in InferenceServer(tiny_mlp, TPUV4I).describe()
