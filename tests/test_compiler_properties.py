"""Property-based tests over the whole compile+simulate pipeline.

Random small MLP-like modules, random target chips, random compiler
releases — the invariants that must hold for *any* input, not just the
workload zoo.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.arch import TPUV2, TPUV3, TPUV4I
from repro.compiler import RELEASES, compile_model
from repro.graph import GraphBuilder, Shape
from repro.isa.instructions import slot_layout_for_generation
from repro.sim import TensorCoreSim

CHIPS = (TPUV2, TPUV3, TPUV4I)

layer_dims = st.integers(min_value=1, max_value=256)
batches = st.integers(min_value=1, max_value=32)
activations = st.sampled_from(["relu", "tanh", "gelu", None])


@st.composite
def random_mlp(draw):
    batch = draw(batches)
    in_dim = draw(layer_dims)
    depth = draw(st.integers(min_value=1, max_value=4))
    builder = GraphBuilder("prop-mlp")
    x = builder.parameter(Shape((batch, in_dim)), "x")
    expected_macs = 0
    current = in_dim
    for layer in range(depth):
        out_dim = draw(layer_dims)
        w = builder.constant(Shape((current, out_dim)), f"w{layer}")
        x = builder.dot(x, w)
        expected_macs += batch * current * out_dim
        act = draw(activations)
        if act is not None:
            x = getattr(builder, act)(x)
        current = out_dim
    module = builder.build()
    module.set_root(x)
    return module, expected_macs


class TestPipelineInvariants:
    @given(spec=random_mlp(), chip=st.sampled_from(CHIPS),
           release=st.sampled_from(RELEASES))
    @settings(max_examples=60, deadline=None)
    def test_compile_and_run_invariants(self, spec, chip, release):
        module, expected_macs = spec
        compiled = compile_model(module, chip, version=release)
        program = compiled.program
        layout = slot_layout_for_generation(program.generation)
        for bundle in program.run_bundles:
            bundle.check_slots(layout, program.generation)
        assert compiled.program.total_macs() == expected_macs

        result = TensorCoreSim(chip).run(compiled.program)
        counters = result.counters
        assert counters.macs == expected_macs
        # Cycles at least the MXU lower bound for the work.
        per_core_macs_per_cycle = (chip.mxus_per_core * chip.mxu_dim**2)
        assert counters.cycles >= expected_macs / per_core_macs_per_cycle / 2
        # Inputs always stream from HBM at least once.
        input_bytes = sum(i.shape.byte_size for i in module.instructions
                          if i.opcode == "parameter")
        assert counters.bytes_by_level.get("hbm", 0.0) >= input_bytes * 0.99
        # Reports are sane.
        assert 0 < result.report.compute_efficiency <= 1.0
        assert result.report.power.total_w >= chip.idle_w
        assert result.report.energy_j > 0

    @given(spec=random_mlp())
    @settings(max_examples=25, deadline=None)
    def test_deterministic_compilation(self, spec):
        module, _ = spec
        sim = TensorCoreSim(TPUV4I)
        first = sim.run(compile_model(module, TPUV4I).program)
        second = sim.run(compile_model(module, TPUV4I).program)
        assert first.cycles == second.cycles
        assert first.counters.bytes_by_level == second.counters.bytes_by_level

    @given(spec=random_mlp())
    @settings(max_examples=25, deadline=None)
    def test_weight_traffic_at_least_once(self, spec):
        """Every weight byte crosses some memory level at least once."""
        module, _ = spec
        compiled = compile_model(module, TPUV4I)
        result = TensorCoreSim(TPUV4I).run(compiled.program)
        moved = (result.counters.bytes_by_level.get("hbm", 0.0)
                 + result.counters.bytes_by_level.get("cmem", 0.0))
        assert moved >= module.total_weight_bytes() * 0.99

    @given(spec=random_mlp(), budget_mib=st.integers(min_value=0, max_value=128))
    @settings(max_examples=25, deadline=None)
    def test_cmem_budget_monotone(self, spec, budget_mib):
        """More CMEM never hurts (the E10 curve's global property)."""
        module, _ = spec
        sim = TensorCoreSim(TPUV4I)
        restricted = sim.run(compile_model(
            module, TPUV4I, cmem_budget_bytes=budget_mib * 2**20).program)
        full = sim.run(compile_model(module, TPUV4I).program)
        assert full.cycles <= restricted.cycles * 1.001 + 2
