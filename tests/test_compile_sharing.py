"""The staged compile memos and interned instructions change no output.

``compile_model`` validates and expands each module once, lowers once per
``lowering_key`` (with plan-dependent DMA levels left as level slots),
schedules once per (lowering, generation, ``dual_issue``), binds the
slots with each call's memory plan and interns repeated instructions and
bundles. These tests pin that down from five sides:

* **equality** — compiling shared (memoized) modules for every generation,
  in shuffled chip order, gives exactly what a compile of a freshly built
  module gives: same ``Program.signature()``, fusion groups and memory
  plan;
* **capacity sweep** — the DSE apps at every CMEM size lower and
  schedule once per (module, generation), and each bound program equals
  the unmemoized passes bound with that budget's plan;
* **invalidation** — ``HloModule.add``/``set_root`` after a compile
  empties the memo, so the next compile sees the new graph;
* **lowering-key coverage** — perturbing any chip field outside
  ``LOWERING_CHIP_FIELDS`` leaves the slotted stream unchanged (the memo
  key is sound) and the bound stream unchanged but for DMA levels, and
  perturbing a field inside it changes the key (and ``cmem_bytes`` the
  memory plan);
* **checks kept** — interning skips no validation: bad instructions and
  oversubscribed bundles still raise, and so does an unbound level slot.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest

from repro.arch import TPUV1, TPUV2, TPUV3, TPUV4I
from repro.compiler import LATEST, RELEASES, compile_model
from repro.compiler import pipeline
from repro.compiler.allocator import MemoryPlan, plan_memory
from repro.compiler.expansion import expand_composites
from repro.compiler.fusion import plan_fusion
from repro.compiler.lowering import lower_module
from repro.compiler.pipeline import (
    LOWERING_CHIP_FIELDS,
    lower_stages,
    lowering_key,
    retarget_dtype,
)
from repro.compiler.scheduler import schedule
from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates
from repro.engine.modules import built_module
from repro.graph.hlo import GraphBuilder
from repro.graph.shapes import Shape
from repro.isa.instructions import Bundle, Instruction, LEVEL_NAMES, Opcode
from repro.isa.program import Program
from repro.serving.batching import BatchPolicy
from repro.workloads.generative import generative_by_name
from repro.workloads.models import PRODUCTION_APPS, app_by_name

CHIPS = (TPUV1, TPUV2, TPUV3, TPUV4I)


def _cases():
    """(spec, batch): the production apps, then every llm phase x batch."""
    cases = [(spec, spec.default_batch) for spec in PRODUCTION_APPS]
    for name in ("llm0", "llm1"):
        gen = generative_by_name(name)
        cases += [(gen.prefill(b), 1) for b in gen.prompt_buckets]
        cases += [(gen.decode(b), step) for b in gen.kv_buckets
                  for step in BatchPolicy.batch_steps(gen.default_slots)]
    return cases


def _for_chip(module, chip):
    """The module as ``chip`` can run it (int8 on TPUv1)."""
    if chip.supports_dtype("bf16"):
        return module
    return retarget_dtype(module, "int8")


def _assert_same_compile(shared, fresh):
    assert shared.program.signature() == fresh.program.signature()
    assert shared.program.metadata == fresh.program.metadata
    assert shared.fusion == fresh.fusion
    assert shared.memory == fresh.memory


# ------------------------------------------------------------------ equality

class TestSharedEqualsFresh:

    def test_every_generation_app_and_phase(self):
        rng = random.Random(13)
        for spec, batch in _cases():
            shared = built_module(spec, batch)
            int8 = retarget_dtype(shared, "int8")
            chips = list(CHIPS)
            rng.shuffle(chips)
            compiled = {}
            # Two passes, so the second compile of each pair hits every
            # memo the first one filled.
            for chip in chips + chips:
                module = shared if chip.supports_dtype("bf16") else int8
                compiled[chip.name] = compile_model(module, chip)
            for chip in CHIPS:
                fresh_module = spec.build(batch)
                assert fresh_module is not shared
                fresh = compile_model(_for_chip(fresh_module, chip), chip)
                _assert_same_compile(compiled[chip.name], fresh)

    @pytest.mark.parametrize("spec", [app_by_name("mlp0"),
                                      app_by_name("cnn0"),
                                      generative_by_name("llm0").decode(128)],
                             ids=lambda spec: spec.name)
    def test_every_release_and_cmem_budget(self, spec):
        shared = built_module(spec, 2)
        targets = [(chip, version, budget)
                   for chip in (TPUV3, TPUV4I)
                   for version in RELEASES
                   for budget in (None, 0, 16 << 20)]
        random.Random(spec.name).shuffle(targets)
        for chip, version, budget in targets:
            fresh = compile_model(spec.build(2), chip, version=version,
                                  cmem_budget_bytes=budget)
            for _ in range(2):
                got = compile_model(shared, chip, version=version,
                                    cmem_budget_bytes=budget)
                _assert_same_compile(got, fresh)

    def test_v2_and_v3_share_one_lowering(self, passes):
        # TPUv4i shares it too: its CMEM reaches only the level slots.
        module = app_by_name("bert0").build(2)
        v2, v3, v4i = (lower_stages(module, chip)
                       for chip in (TPUV2, TPUV3, TPUV4I))
        assert passes["lower_module"] == 1
        assert all(a is b for a, b in zip(v2[:3], v3[:3]))
        assert _flat(v2[3]) == _flat(v3[3])
        _assert_differ_only_in_levels(_flat(v4i[3]), _flat(v3[3]))
        assert _flat(v4i[3]) != _flat(v3[3])

    def test_each_compile_owns_its_program(self):
        module = built_module(app_by_name("mlp0"), 8)
        first = compile_model(module, TPUV4I)
        second = compile_model(module, TPUV4I)
        assert first.program is not second.program
        assert first.program.signature() == second.program.signature()

    def test_repeated_bundles_are_one_object(self):
        program = compile_model(built_module(app_by_name("bert0"), 8),
                                TPUV4I).program
        distinct = {id(b) for b in program.bundles}
        assert len(distinct) < len(program.bundles)
        by_content = {}
        for bundle in program.bundles:
            assert by_content.setdefault(bundle.instructions,
                                         bundle) is bundle

    def test_negative_budget_still_rejected_on_a_warm_module(self):
        module = built_module(app_by_name("mlp0"), 4)
        compile_model(module, TPUV4I)
        with pytest.raises(ValueError, match="non-negative"):
            compile_model(module, TPUV4I, cmem_budget_bytes=-1)


# ----------------------------------------------------------- capacity sweep

def _flat(lowered):
    return [(inst.opcode, inst.args)
            for op in lowered for inst in op.all_instructions()]


def _assert_differ_only_in_levels(got, want):
    """Equal streams but for the level operand of DMAs."""
    assert len(got) == len(want)
    for (op, args), (want_op, want_args) in zip(got, want):
        assert op is want_op
        if op in (Opcode.DMA_IN, Opcode.DMA_OUT):
            assert args[1:] == want_args[1:]
            assert args[0] in LEVEL_NAMES
        else:
            assert args == want_args


@pytest.fixture
def passes(monkeypatch):
    """Counts of the lowering and scheduling passes ``compile_model`` runs."""
    counts = {"lower_module": 0, "schedule": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(pipeline, name,
                            counted(name, getattr(pipeline, name)))
    return counts


class TestCapacitySweep:

    @pytest.mark.parametrize("name", DEFAULT_DSE_APPS)
    def test_one_lowering_and_schedule_per_generation(self, name, passes):
        spec = app_by_name(name)
        module = spec.build(spec.default_batch)
        weights = module.total_weight_bytes()
        # The DSE grid's CMEM sizes, then one budget that splits the
        # weights between CMEM and HBM.
        targets = [(chip, None) for chip in
                   enumerate_candidates((4,), (0, 32, 64, 96, 128), (1.05,))]
        targets.append((TPUV4I, weights // 2))
        compiled = [compile_model(module, chip, cmem_budget_bytes=budget)
                    for chip, budget in targets]
        assert passes == {"lower_module": 1, "schedule": 1}
        split = compiled[-1].memory
        assert split.cmem_weight_bytes and split.hbm_weight_bytes

        dense = LATEST.has("dual_issue")
        for (chip, budget), got in zip(targets, compiled):
            bound = _bound_ops(module, chip, LATEST, budget)
            want = Program(module.name, chip.generation)
            want.extend(schedule(bound, chip.generation, dense))
            assert got.program.signature() == want.signature()
            assert ([(i.opcode, i.args) for i in got.program.instructions()]
                    == _flat(bound) + [(Opcode.HALT, ())])
        assert len({c.program.signature() for c in compiled}) > 1

    def test_generations_share_the_lowering_not_the_schedule(self, passes):
        module = app_by_name("cnn0").build(8)
        for chip in (TPUV2, TPUV3, TPUV4I, TPUV4I):
            compile_model(module, chip)
        assert passes == {"lower_module": 1, "schedule": 3}

    def test_unbound_slot_raises(self):
        b = GraphBuilder("spill")
        x = b.parameter(Shape((128, 65536)), "x")   # 16 MiB: spills
        b.dot(b.tanh(x), b.constant(Shape((65536, 128)), "w"))
        module = b.build()
        lowered = lower_module(module, plan_fusion(module), TPUV4I, LATEST)
        assert ("spill", module.instructions[1].uid) in lowered.slots
        with pytest.raises(ValueError, match="unbound"):
            lowered.bind(MemoryPlan())
        bound = lowered.bind(plan_memory(module, TPUV4I))
        assert all(inst.args[0] in LEVEL_NAMES
                   for op in bound for inst in op.all_instructions()
                   if inst.opcode in (Opcode.DMA_IN, Opcode.DMA_OUT))


# -------------------------------------------------------------- invalidation

def _small_module():
    b = GraphBuilder("tiny")
    x = b.parameter(Shape((64, 256)), "x")
    w = b.constant(Shape((256, 256)), "w")
    b.relu(b.dot(x, w), "h")
    return b.build()


class TestInvalidation:

    def test_add_after_compile_misses_the_memo(self):
        module = _small_module()
        before = compile_model(module, TPUV4I)
        assert module.memo
        h = module.root
        v = module.add("constant", Shape((256, 128)), name="v")
        assert not module.memo
        module.add("dot", Shape((64, 128)), (h, v), name="out")
        after = compile_model(module, TPUV4I)
        assert after.program.signature() != before.program.signature()
        assert after.module.root.shape.dims == (64, 128)

        fresh = _small_module()
        v = fresh.add("constant", Shape((256, 128)), name="v")
        fresh.add("dot", Shape((64, 128)), (fresh.instructions[-2], v),
                  name="out")
        _assert_same_compile(after, compile_model(fresh, TPUV4I))

    def test_set_root_after_compile_misses_the_memo(self):
        module = _small_module()
        before = compile_model(module, TPUV4I)
        module.set_root(module.instructions[2])   # the dot, not the relu
        assert not module.memo
        after = compile_model(module, TPUV4I)
        assert after.program.signature() != before.program.signature()
        assert after.module.root.opcode == "dot"

    def test_memo_dies_with_the_module(self):
        module = _small_module()
        compile_model(module, TPUV4I)
        expanded = weakref.ref(lower_stages(module, TPUV4I)[0])
        del module
        gc.collect()
        assert expanded() is None


# ------------------------------------------------------ lowering-key coverage

def _perturbed(chip, name):
    """``chip`` with field ``name`` changed to another valid value."""
    value = getattr(chip, name)
    if name == "cooling":
        new = "liquid" if value == "air" else "air"
    elif name == "dtypes":
        new = value + ("fp8",)
    elif name == "idle_w":
        new = value / 2
    elif isinstance(value, str):
        new = value + "-x"
    elif isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + 1 if name != "cmem_bytes" else value + (8 << 20)
    elif isinstance(value, float):
        new = value * 1.5
    else:  # pragma: no cover - a new field type needs a rule here
        raise AssertionError(f"no perturbation for {name}={value!r}")
    return dataclasses.replace(chip, **{name: new})


def _bound_ops(module, chip, version, budget=None, bind=True):
    """Lower without any memo: the passes called directly, then bound
    with the budget's plan (or left slotted)."""
    expanded = expand_composites(module)
    fusion = plan_fusion(expanded, enabled=version.has("fusion"))
    lowered = lower_module(expanded, fusion, chip, version)
    if not bind:
        return lowered.ops
    return lowered.bind(plan_memory(expanded, chip, cmem_budget_bytes=budget,
                                    use_cmem=version.has("cmem_alloc")))


def _lowered_stream(module, chip, version, budget=None):
    """The unmemoized bound stream as ``(opcode, args)`` pairs."""
    return _flat(_bound_ops(module, chip, version, budget))


def _slotted_stream(module, chip, version):
    return _flat(_bound_ops(module, chip, version, bind=False))


_OUTSIDE_KEY = sorted(f.name for f in dataclasses.fields(TPUV4I)
                      if f.name not in LOWERING_CHIP_FIELDS)


class TestLoweringKeyCoverage:

    def test_key_fields_are_chip_fields(self):
        names = {f.name for f in dataclasses.fields(TPUV4I)}
        assert LOWERING_CHIP_FIELDS < names

    @pytest.mark.parametrize("field", _OUTSIDE_KEY)
    def test_field_outside_key_leaves_stream_unchanged(self, field):
        for chip in (TPUV3, TPUV4I):
            variant = _perturbed(chip, field)
            for version in (RELEASES[0], RELEASES[-1]):
                assert (lowering_key(variant, version)
                        == lowering_key(chip, version))
                for spec in (app_by_name("cnn0"),
                             generative_by_name("llm0").decode(128)):
                    module = spec.build(1)
                    assert (_slotted_stream(module, variant, version)
                            == _slotted_stream(module, chip, version))
                    got = _lowered_stream(module, variant, version)
                    want = _lowered_stream(module, chip, version)
                    if field == "cmem_bytes":
                        # The memory plan moves only DMA level operands.
                        _assert_differ_only_in_levels(got, want)
                    else:
                        assert got == want

    # ``cmem_bytes`` is outside the lowering key but keys the memory plan
    # that binds the slots, so a warm module must not serve a stale plan.
    @pytest.mark.parametrize("field",
                             sorted(LOWERING_CHIP_FIELDS | {"cmem_bytes"}))
    def test_field_inside_key_changes_key(self, field):
        variant = _perturbed(TPUV4I, field)
        if field in LOWERING_CHIP_FIELDS:
            assert (lowering_key(variant, RELEASES[-1])
                    != lowering_key(TPUV4I, RELEASES[-1]))
            return
        module = app_by_name("cnn0").build(1)
        base = compile_model(module, TPUV4I)
        got = compile_model(module, variant)
        assert got.memory.cmem_budget_bytes == variant.cmem_bytes
        assert got.memory != base.memory
        assert got.memory == plan_memory(expand_composites(module), variant)

    def test_dual_issue_is_outside_the_key(self):
        with_it, without = RELEASES[-1], RELEASES[-2]
        assert with_it.features - without.features == {"dual_issue"}
        assert lowering_key(TPUV4I, with_it) == lowering_key(TPUV4I, without)


# ---------------------------------------------------------------- checks kept

class TestChecksKept:

    def test_bad_arity_instruction_raises(self):
        with pytest.raises(ValueError, match="takes 3 operands"):
            Instruction(Opcode.MXM, (1, 2))

    def test_negative_operand_instruction_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            Instruction(Opcode.VADD, (-4,))

    def _oversubscribed(self):
        mxm = Instruction(Opcode.MXM, (128, 128, 128))
        return Bundle((mxm, mxm, mxm))   # generation 4 has two MXU slots

    def test_oversubscribed_bundle_raises_on_append(self):
        program = Program("bad", generation=4)
        with pytest.raises(ValueError, match="matrix slots"):
            program.append(self._oversubscribed())

    def test_oversubscribed_bundle_raises_on_extend(self):
        ok = Bundle((Instruction(Opcode.HALT),))
        program = Program("bad", generation=4)
        with pytest.raises(ValueError, match="matrix slots"):
            program.extend([ok, ok, self._oversubscribed(), ok])
        assert len(program) == 0

    def test_validate_still_checks_every_bundle(self):
        program = Program("bad", generation=4)
        program.bundles.append(self._oversubscribed())
        with pytest.raises(ValueError, match="bundle 0"):
            program.validate()

    def test_bundles_are_immutable(self):
        bundle = Bundle((Instruction(Opcode.HALT),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.instructions = ()
