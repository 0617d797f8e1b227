"""Tests for pipeline-parallel multi-chip deployment."""

import pytest

from repro.arch import TPUV1, TPUV4I
from repro.compiler import compile_model
from repro.core import PipelineDeployment, partition_module
from repro.engine.modules import built_module
from repro.graph import GraphBuilder, Shape
from repro.sim.core import TensorCoreSim
from repro.workloads import app_by_name

from tests.conftest import make_tiny_mlp


def make_single_op_module():
    """One compute instruction (a lone matmul): the smallest
    partitionable module."""
    builder = GraphBuilder("single")
    x = builder.parameter(Shape((4, 64)), "x")
    w = builder.constant(Shape((64, 16)), "w")
    out = builder.dot(x, w, "out")
    module = builder.build()
    module.set_root(out)
    return module


class TestPartition:
    def test_single_stage_is_identity(self, tiny_mlp):
        stages, boundaries = partition_module(tiny_mlp, 1)
        assert stages == [tiny_mlp]
        assert boundaries == [0]

    def test_two_stages_validate_and_cover_flops(self):
        module = app_by_name("bert0").build(2)
        stages, boundaries = partition_module(module, 2)
        assert len(stages) == 2
        for stage in stages:
            stage.validate()
        total = sum(s.total_flops() for s in stages)
        assert total == pytest.approx(module.total_flops(), rel=0.01)

    def test_stages_are_roughly_balanced(self):
        module = app_by_name("bert0").build(2)
        stages, _ = partition_module(module, 4)
        flops = [s.total_flops() for s in stages]
        assert max(flops) < 2.5 * min(flops)

    def test_boundary_traffic_positive_after_first(self):
        module = app_by_name("cnn0").build(2)
        _, boundaries = partition_module(module, 2)
        assert boundaries[0] == 0
        assert boundaries[1] > 0

    def test_weights_partition_across_stages(self):
        module = app_by_name("rnn1").build(2)
        stages, _ = partition_module(module, 4)
        per_stage = [s.total_weight_bytes() for s in stages]
        # Each stage holds a strict subset of the weights.
        assert all(0 < w < module.total_weight_bytes() for w in per_stage)
        # Replication (a layer whose consumers span a boundary copies its
        # weights into both stages) stays bounded.
        assert sum(per_stage) < 2.0 * module.total_weight_bytes()

    def test_too_many_stages_rejected(self, tiny_mlp):
        with pytest.raises(ValueError):
            partition_module(tiny_mlp, 64)

    def test_stages_beyond_layer_count_name_the_empty_stage(self, tiny_mlp):
        """num_stages > layer count: the error says which stage is empty
        rather than failing downstream with a shapeless module."""
        with pytest.raises(ValueError, match="stage .* empty"):
            partition_module(tiny_mlp, 64)

    def test_single_op_module_partitions_only_to_one_stage(self):
        """A module whose graph is a single compute layer: p=1 is the
        identity, any p>1 must be a clean rejection."""
        module = make_single_op_module()
        stages, boundaries = partition_module(module, 1)
        assert stages == [module]
        assert boundaries == [0]
        with pytest.raises(ValueError):
            partition_module(module, 2)

    def test_stage_assignment_deterministic(self):
        """Same module, same p -> identical stage instruction lists and
        boundary bytes, across repeated partitions of rebuilt modules."""
        first = partition_module(app_by_name("bert0").build(2), 3)
        second = partition_module(app_by_name("bert0").build(2), 3)
        names_a = [[(inst.opcode, inst.name) for inst in stage.instructions]
                   for stage in first[0]]
        names_b = [[(inst.opcode, inst.name) for inst in stage.instructions]
                   for stage in second[0]]
        assert names_a == names_b
        assert first[1] == second[1]

    def test_zero_stages_rejected(self, tiny_mlp):
        with pytest.raises(ValueError):
            partition_module(tiny_mlp, 0)


class TestDeployment:
    def test_single_chip_matches_direct_sim(self):
        spec = app_by_name("bert0")
        deployment = PipelineDeployment()
        report = deployment.deploy(spec.build(4), 1, 4)
        assert report.num_chips == 1
        assert report.request_latency_s > 0
        assert report.stages[0].inbound_transfer_s == 0.0

    def test_throughput_scales_with_chips(self):
        spec = app_by_name("bert0")
        deployment = PipelineDeployment()
        reports = deployment.scaling_study(spec.build, 4, (1, 2))
        assert reports[1].throughput_qps > 1.5 * reports[0].throughput_qps

    def test_cmem_overflow_model_scales_superlinearly(self):
        """The headline multi-chip effect: slices newly fit CMEM."""
        spec = app_by_name("rnn1")
        deployment = PipelineDeployment()
        reports = deployment.scaling_study(spec.build, spec.default_batch,
                                           (1, 2))
        speedup = reports[1].throughput_qps / reports[0].throughput_qps
        assert speedup > 2.0
        assert reports[1].min_cmem_hit > reports[0].min_cmem_hit

    def test_latency_does_not_explode(self):
        spec = app_by_name("bert0")
        deployment = PipelineDeployment()
        one = deployment.deploy(spec.build(4), 1, 4)
        four = deployment.deploy(spec.build(4), 4, 4)
        assert four.request_latency_s < 1.5 * one.request_latency_s

    def test_one_chip_tpuv1_runs_in_module_dtype(self):
        # TPUv1 has no bf16: a one-chip deployment of an int8 model must
        # price the stage in int8, the same as compiling it directly.
        module = built_module(app_by_name("cnn0"), 2, "int8")
        report = PipelineDeployment(TPUV1).deploy(module, 1, 2)
        direct = TensorCoreSim(TPUV1).run(
            compile_model(module, TPUV1).program, dtype="int8")
        assert report.num_chips == 1
        assert report.stages[0].latency_s == direct.seconds
        assert report.stages[0].inbound_transfer_s == 0.0

    def test_no_ici_chip_rejected(self):
        deployment = PipelineDeployment(TPUV1)
        quantized = make_tiny_mlp()
        with pytest.raises(ValueError):
            deployment.deploy(quantized, 2, 4)
