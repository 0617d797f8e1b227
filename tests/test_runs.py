"""Run-length programs: the run form against its position-by-position
oracles, and the contracts of :class:`~repro.isa.program.Program` runs.

The packer (:func:`repro.compiler.scheduler._pack`) packs each run of one
instruction in closed form and the structure build
(:func:`repro.sim.gridkernel._build_struct`, a body that the identity
level table relabels) fills unit-only runs in closed form;
``tests/reference/scheduler.py`` and ``tests/reference/gridkernel.py``
do both one position at a time.
"""

from __future__ import annotations

import dataclasses
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.chip import TPUV4I
from repro.compiler.pipeline import compile_model, lower_stages
from repro.compiler.scheduler import _pack
from repro.isa.encoding import decode_program, encode_program
from repro.isa.instructions import (Bundle, Instruction, Opcode,
                                    slot_layout_for_generation)
from repro.isa.program import IDENTITY_LEVELS, Program
from repro.sim.gridkernel import _build_struct, _relabel, _Struct, _struct_for
from repro.workloads.generative import (build_decode, build_prefill,
                                        generative_by_name)
from tests.reference.gridkernel import build_struct
from tests.reference.scheduler import pack

# One object per value, as lowering interns them, plus an equal twin of
# the matmul so that equal-but-distinct objects meet in a stream.
_POOL = {
    "mxu": [Instruction(Opcode.MXM, (128, 128, 128)),
            Instruction(Opcode.MXM, (64, 256, 32)),
            Instruction(Opcode.MXM, (128, 128, 128)),
            Instruction(Opcode.MXM_LOADW, (128, 64))],
    "vpu": [Instruction(Opcode.VADD, (1024,)),
            Instruction(Opcode.VREDUCE, (4096, 8)),
            Instruction(Opcode.VGELU, (2048,))],
    "dma": [Instruction(Opcode.DMA_IN, (0, 4096, 1)),
            Instruction(Opcode.DMA_IN, (1, 65536, 2)),
            Instruction(Opcode.DMA_OUT, (0, 2048, 3))],
    "sync": [Instruction(Opcode.SYNC_WAIT, (1,)),
             Instruction(Opcode.SYNC_WAIT, (3,)),
             Instruction(Opcode.SYNC_SET, (5,))],
    "scalar": [Instruction(Opcode.NOP)],
}
_HALT = Instruction(Opcode.HALT)

_run = st.tuples(st.sampled_from(sorted(_POOL)), st.integers(0, 3),
                 st.integers(1, 300))


@st.composite
def streams(draw):
    """Runs of pool instructions, maybe with a HALT inside one run."""
    runs = [(_POOL[kind][i % len(_POOL[kind])], count)
            for kind, i, count in draw(st.lists(_run, min_size=1,
                                                max_size=8))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(runs) - 1))
        inst, count = runs[at]
        split = draw(st.integers(0, count))
        runs[at:at + 1] = [r for r in ((inst, split), (_HALT, 1),
                                       (inst, count - split)) if r[1]]
    return runs


def _expand(items, counts):
    return list(chain.from_iterable(map(repeat, items, counts)))


def _identity_pattern(objects):
    """Each object as the index of its first occurrence by identity."""
    first = {}
    return [first.setdefault(id(o), i) for i, o in enumerate(objects)]


_STRUCT_FIELDS = [f.name for f in dataclasses.fields(_Struct)
                  if f.name not in ("mxu_priced", "vpu_priced", "scans",
                                    "issues", "finals", "pool_ids")]


def assert_same_struct(got: _Struct, want: _Struct) -> None:
    for name in _STRUCT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


def identity_decode(program: Program) -> _Struct:
    """The production decode of a program that holds its own runs: its
    body relabelled through the identity level table."""
    return _relabel(_build_struct(program), program.name, IDENTITY_LEVELS)


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=streams())
    @pytest.mark.parametrize("generation", [1, 2, 3, 4])
    @pytest.mark.parametrize("dense", [True, False])
    def test_pack_and_struct_match_position_by_position(
            self, stream, generation, dense):
        bundles, counts = _pack(stream, generation, dense)
        assert min(counts) >= 1
        expanded = _expand(bundles, counts)
        want = pack(_expand(*zip(*stream)), generation, dense)
        assert expanded == want
        assert _identity_pattern(expanded) == _identity_pattern(want)

        program = Program("runs", generation, bundles, counts)
        assert list(program.bundles) == want
        assert all(a != b for a, b in zip(program.run_bundles,
                                          program.run_bundles[1:]))
        assert_same_struct(identity_decode(program), build_struct(program))

    @settings(max_examples=150, deadline=None)
    @given(runs=st.lists(st.tuples(
        st.lists(st.sampled_from(sorted(_POOL) + ["halt"]), min_size=1,
                 max_size=3),
        st.integers(1, 40)), min_size=1, max_size=10))
    def test_struct_of_any_bundle_runs(self, runs):
        # Bundles drawn directly, so a run may repeat a bundle that holds
        # a hard row, or a HALT in the middle of the program. A bundle
        # that over-subscribes a slot class cannot be in a program.
        bundles = []
        for kinds, count in runs:
            bundle = Bundle(tuple(_HALT if kind == "halt" else _POOL[kind][0]
                                  for kind in kinds))
            try:
                bundle.check_slots(slot_layout_for_generation(4), 4)
            except ValueError:
                continue
            bundles += [bundle] * count
        program = Program("bundles", 4, bundles)
        assert_same_struct(identity_decode(program), build_struct(program))

    @pytest.mark.parametrize("name", ["llm0", "llm1"])
    def test_compiled_generative_programs(self, name):
        spec = generative_by_name(name)
        for module in (build_prefill(spec, 128, 4),
                       build_decode(spec, 256, 8)):
            program = compile_model(module, TPUV4I).program
            assert len(program.run_counts) < len(program)
            assert_same_struct(identity_decode(program), build_struct(program))
            assert_same_struct(_struct_for(program), build_struct(program))


class TestLowering:
    def test_batched_dot_is_one_run(self):
        spec = generative_by_name("llm0")
        ops = lower_stages(build_decode(spec, 256, 8), TPUV4I)[3]
        mxm_runs = [count for op in ops for inst, count in op.body_runs
                    if inst.opcode is Opcode.MXM]
        assert max(mxm_runs) > 1
        for op in ops:
            assert all(a is not b for (a, _), (b, _)
                       in zip(op.body_runs, op.body_runs[1:]))
            assert op.body == _expand([i for i, _ in op.body_runs],
                                      [c for _, c in op.body_runs])


def _mxm():
    return Bundle((Instruction(Opcode.MXM, (128, 128, 128)),))


def _wait():
    return Bundle((Instruction(Opcode.SYNC_WAIT, (1,)),))


class TestProgramRuns:
    def test_equal_expansions_give_equal_signatures(self):
        by_runs = Program("p", 4, [_mxm(), _mxm(), _wait()], [3, 2, 1])
        one_by_one = Program("p", 4, [_mxm() for _ in range(5)] + [_wait()])
        assert by_runs.run_counts == one_by_one.run_counts == (5, 1)
        assert by_runs.signature() == one_by_one.signature()
        assert _struct_for(by_runs) is _struct_for(one_by_one)
        # A compiled program's runs, rebuilt both ways.
        compiled = compile_model(build_decode(generative_by_name("llm0"),
                                              128, 4), TPUV4I).program
        expanded = Program(compiled.name, 4, compiled.bundles)
        rebuilt = Program(compiled.name, 4, compiled.run_bundles,
                          compiled.run_counts)
        assert expanded.runs == rebuilt.runs == compiled.runs
        assert (expanded.signature() == rebuilt.signature()
                == compiled.signature())

    def test_construction_merges_equal_neighbours(self):
        mxm = _mxm()
        program = Program("p", 4, [mxm, _mxm(), _mxm(), mxm, _mxm(), _wait(),
                                   _wait(), mxm], [1, 1, 1, 1, 3, 1, 1, 1])
        assert program.runs == [(mxm, 7), (_wait(), 2), (mxm, 1)]
        assert program.run_counts == (7, 2, 1)
        assert len(program) == len(program.bundles) == 10
        bundles = list(program.bundles)
        assert bundles[7] == _wait()
        assert bundles[-1] is mxm
        assert bundles[2:4] == [mxm, mxm]

    @pytest.mark.parametrize("count", [0, -1, 1.0, True])
    def test_bad_run_counts_are_rejected(self, count):
        with pytest.raises(ValueError, match="run count"):
            Program("p", 4, [_mxm(), _wait()], [2, count])

    def test_encode_decode_round_trip_keeps_the_program(self):
        module = build_decode(generative_by_name("llm1"), 128, 8)
        program = compile_model(module, TPUV4I).program
        decoded = decode_program(encode_program(program), 4)
        assert decoded.name == program.name
        assert decoded.run_counts == program.run_counts
        assert decoded.run_bundles == program.run_bundles
        assert decoded.signature() == program.signature()
        # The compiled program is priced from its slotted body, the
        # decoded one from its own: equal structures, not one object.
        assert_same_struct(_struct_for(decoded), _struct_for(program))
        again = decode_program(encode_program(decoded), 4)
        assert _struct_for(again) is _struct_for(decoded)
