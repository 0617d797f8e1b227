"""Level tables: a compiled program is a slotted program plus a table.

``compile_model`` schedules and checks one slotted program per
(lowering, generation, ``dual_issue``) and returns it read through the
memory plan's level table (``Program.from_slotted``). The bundles are
bound only when something reads them, and the grid kernel decodes the
slotted program once (a *body*) and relabels its DMA rows through each
table. These tests hold both to an eager binding — the program built by
``bind_bundles`` at compile time, decoded on its own — for every
production app and llm phase, every generation and four CMEM budgets.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.compiler import pipeline
from repro.compiler.pipeline import compile_model, retarget_dtype
from repro.compiler.versions import LATEST
from repro.core.design_point import clear_shared_design_points
from repro.core.dse import (DEFAULT_DSE_APPS, enumerate_candidates,
                            evaluate_candidates)
from repro.isa import Bundle, Instruction, Opcode, Program
from repro.isa.assembler import disassemble
from repro.isa.encoding import encode_program
from repro.sim.gridkernel import (GridPoint, _struct_for, clear_grid_kernel,
                                  evaluate_grid, grid_kernel_stats)
from repro.workloads import PRODUCTION_APPS, app_by_name
from repro.workloads.generative import (GENERATIVE_APPS, build_decode,
                                        build_prefill)

from tests.conftest import cold_engine
from tests.reference.gridkernel import build_struct
from tests.test_runs import assert_same_struct, identity_decode

CHIPS = (TPUV1, TPUV2, TPUV3, TPUV4I)


def _modules():
    """(label, builder) for every production app at its default batch
    and both phases of every llm."""
    out = [(spec.name, lambda spec=spec: spec.build(spec.default_batch))
           for spec in PRODUCTION_APPS]
    for spec in GENERATIVE_APPS:
        out.append((f"{spec.name}.prefill", lambda spec=spec: build_prefill(
            spec, spec.prompt_buckets[0], 4)))
        out.append((f"{spec.name}.decode", lambda spec=spec: build_decode(
            spec, spec.kv_buckets[0], 8)))
    return out


def _budgets(chip):
    return (0, chip.cmem_bytes // 2, chip.cmem_bytes, None)


def _module_for(chip, build):
    module = build()
    if not chip.supports_dtype("bf16"):
        module = retarget_dtype(module, "int8")
    return module


def bind_now(module, chip, budget) -> Program:
    """The eager binding: the compiled stream with every slot filled by
    ``bind_bundles`` at once, as one plain program."""
    expanded = pipeline._front_end(module).expanded
    memory = pipeline._memory(expanded, chip, LATEST, budget)
    lowered = pipeline._lowering(expanded, chip, LATEST)
    slotted = pipeline._slotted_program(expanded, chip, LATEST)
    return Program(
        module.name, chip.generation,
        pipeline.bind_bundles(slotted.run_bundles,
                              lowered.bound(lowered.levels(memory))),
        slotted.run_counts, metadata={
            "compiler_version": LATEST.name, "lowered_ops": len(lowered.ops),
            "weight_bytes": expanded.total_weight_bytes()})


def _outcome(result):
    return result.counters, result.report


@pytest.mark.parametrize("label,build", _modules(),
                         ids=[label for label, _ in _modules()])
@pytest.mark.parametrize("chip", CHIPS, ids=lambda chip: chip.name)
def test_relabelled_structure_equals_the_bound_programs(chip, label, build):
    module = _module_for(chip, build)
    lazy = [compile_model(module, chip, cmem_budget_bytes=budget).program
            for budget in _budgets(chip)]
    assert len({id(program.binding.slotted) for program in lazy}) == 1
    dtype = chip.native_dtype
    # Priced before anything reads a lazy program's bundles.
    got = evaluate_grid([GridPoint(program, chip, dtype) for program in lazy])
    structs = [_struct_for(program) for program in lazy]
    eager = [bind_now(module, chip, budget) for budget in _budgets(chip)]
    want = evaluate_grid([GridPoint(program, chip, dtype)
                          for program in eager])
    for program, struct, bound, a, b in zip(lazy, structs, eager, got, want):
        assert program.binding is not None
        assert bound.binding is None
        assert_same_struct(struct, identity_decode(bound))
        assert_same_struct(struct, build_struct(bound))
        assert _outcome(a) == _outcome(b)
        # Reading the bundles binds them and keeps the shared structure.
        assert list(program.bundles) == list(bound.bundles)
        assert program.binding is not None
        assert _struct_for(program) is struct


def _cnn0(budget=None):
    return compile_model(app_by_name("cnn0").build(8), TPUV4I,
                         cmem_budget_bytes=budget)


class TestValue:
    """A compiled program cannot change, so its binding cannot go stale."""

    def test_editing_the_run_counts_raises(self):
        program = _cnn0().program
        price = evaluate_grid([GridPoint(program, TPUV4I)])[0]
        with pytest.raises(TypeError):
            program.run_counts[0] += 50
        with pytest.raises(AttributeError):
            program.run_counts = (1,) * len(program.run_counts)
        assert isinstance(program.run_bundles, tuple)
        again = evaluate_grid([GridPoint(copy.copy(program), TPUV4I)])[0]
        assert _outcome(again) == _outcome(price)

    def test_the_shared_slotted_program_has_no_mutator(self):
        slotted = _cnn0().program.binding.slotted
        for name in ("append", "extend", "extend_runs", "validate"):
            assert not hasattr(slotted, name)
            assert not hasattr(slotted.bundles, name)
        assert type(slotted.run_bundles) is type(slotted.run_counts) is tuple
        for name in ("name", "run_counts", "metadata", "_binding"):
            with pytest.raises(AttributeError):
                setattr(slotted, name, None)

    def test_a_hand_built_binding_prices_its_bound_program(self):
        # A slotted stream with no HALT, so every bundle runs.
        dma = Instruction(Opcode.DMA_IN, (3, 1 << 20, 1))
        slotted = Program("hand", 4, [
            Bundle((dma,)), Bundle((Instruction(Opcode.SYNC_WAIT, (1,)),)),
            Bundle((Instruction(Opcode.MXM, (128, 128, 128)),))])

        def bind(bundles, levels):
            return [Bundle(tuple(
                Instruction(i.opcode, (levels[i.args[0]],) + i.args[1:])
                if i.opcode is Opcode.DMA_IN else i
                for i in bundle.instructions)) for bundle in bundles]

        program = Program.from_slotted(slotted, "hand", (0, 1, 2, 1), bind)
        got = evaluate_grid([GridPoint(program, TPUV4I)])[0]
        twin = Program("hand", 4, program.bundles)
        assert program.binding is not None and program == twin
        assert got.counters.bytes_by_level["cmem"] == 1 << 20
        assert _outcome(got) == _outcome(
            evaluate_grid([GridPoint(twin, TPUV4I)])[0])


class TestLazyBinding:
    """Each check reads a freshly compiled program, so it is the first
    thing to bind its bundles."""

    BUDGET = 32 << 20

    def _pair(self):
        module = app_by_name("cnn0").build(8)
        lazy = compile_model(module, TPUV4I,
                             cmem_budget_bytes=self.BUDGET).program
        assert lazy.binding is not None and "run_bundles" not in vars(lazy)
        return lazy, bind_now(module, TPUV4I, self.BUDGET)

    def test_equality(self):
        lazy, eager = self._pair()
        assert lazy == eager and eager == lazy

    def test_repr(self):
        lazy, eager = self._pair()
        assert repr(lazy) == repr(eager)

    def test_signature(self):
        lazy, eager = self._pair()
        assert lazy.signature() == eager.signature()

    def test_pickle_round_trip(self):
        lazy, eager = self._pair()
        data = pickle.dumps(lazy)
        assert data == pickle.dumps(eager)
        loaded = pickle.loads(data)
        assert loaded == eager and loaded.binding is None
        assert lazy.binding is not None
        assert copy.copy(lazy) == eager

    def test_encoding(self):
        lazy, eager = self._pair()
        assert encode_program(lazy) == encode_program(eager)

    def test_disassembly(self):
        lazy, eager = self._pair()
        assert disassemble(lazy) == disassemble(eager)

    def test_bundles_and_runs(self):
        lazy, eager = self._pair()
        assert len(lazy) == len(eager)
        assert lazy.runs == eager.runs

    def test_an_unbound_slot_raises_at_compile(self, monkeypatch):
        def unbound(name, memory):
            raise ValueError(f"level slot {name} is unbound in the memory "
                             "plan")

        monkeypatch.setattr("repro.compiler.lowering._slot_level", unbound)
        with pytest.raises(ValueError, match="unbound in the memory plan"):
            _cnn0()


class TestUnknownLevels:
    def _program(self, *bundles):
        return Program("levels", 4, [Bundle((inst,)) for inst in bundles])

    def test_the_first_bad_level_in_program_order_is_named(self):
        program = self._program(
            Instruction(Opcode.DMA_IN, (0, 64, 1)),
            Instruction(Opcode.DMA_OUT, (9, 64, 2)),
            Instruction(Opcode.DMA_IN, (7, 64, 3)))
        with pytest.raises(ValueError, match=r"dma\.out level operand 9 "):
            evaluate_grid([GridPoint(program, TPUV4I)])

    def test_a_bad_level_after_halt_is_dead(self):
        program = self._program(
            Instruction(Opcode.DMA_IN, (0, 64, 1)),
            Instruction(Opcode.HALT),
            Instruction(Opcode.DMA_IN, (7, 64, 3)))
        result = evaluate_grid([GridPoint(program, TPUV4I)])[0]
        assert result.counters.bytes_by_level["hbm"] == 64

    def test_a_slot_operand_is_no_level_without_a_table(self):
        # Operand 3 is slot 0 of a lowering, and no memory level.
        program = self._program(Instruction(Opcode.DMA_IN, (3, 64, 1)))
        with pytest.raises(ValueError, match=r"dma\.in level operand 3 "):
            evaluate_grid([GridPoint(program, TPUV4I)])


class TestSavedWork:
    def test_bundles_read_before_pricing_keep_the_shared_body(self):
        # perfbench's traced runs read every compiled program's bundles
        # before the kernel sees it.
        programs = [_cnn0(budget).program for budget in (0, 64 << 20, None)]
        for program in programs:
            assert len(list(program.bundles)) == len(program)
        clear_grid_kernel()
        evaluate_grid([GridPoint(program, TPUV4I) for program in programs])
        assert grid_kernel_stats().structs == 1
        assert all(program.binding is not None for program in programs)

    def test_dse_grid_decodes_one_body_per_app_and_binds_nothing(
            self, monkeypatch):
        """The perfbench ``dse`` grid at seed 0: 20 compiles over 4
        lowerings."""
        mxus = (2, 4, 8)
        cmem_mib = (0, 32, 64, 96, 128)
        clocks_ghz = (0.75, 0.9, 1.0, 1.05, 1.3, 1.4)

        binds = []
        real = pipeline.bind_bundles
        monkeypatch.setattr(pipeline, "bind_bundles",
                            lambda *args: binds.append(1) or real(*args))
        chips = enumerate_candidates(mxus, cmem_mib, clocks_ghz)
        clear_shared_design_points()
        clear_grid_kernel()
        with cold_engine():
            evaluate_candidates(chips, DEFAULT_DSE_APPS, workers=1)
        stats = grid_kernel_stats()
        assert len(DEFAULT_DSE_APPS) == 4
        assert stats.structs == 4
        assert stats.points == (len(DEFAULT_DSE_APPS) * len(cmem_mib)
                                * len(mxus) * len(clocks_ghz))
        assert binds == []
