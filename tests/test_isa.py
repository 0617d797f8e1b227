"""Tests for the VLIW ISA: instructions, bundles, programs."""

import pytest

from repro.isa import (
    Bundle,
    Instruction,
    Opcode,
    Program,
    SlotClass,
    slot_layout_for_generation,
)


class TestInstruction:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.MXM, (1, 2))  # needs 3
        with pytest.raises(ValueError):
            Instruction(Opcode.HALT, (1,))

    def test_negative_operand_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.VADD, (-5,))

    def test_slot_from_opcode(self):
        assert Instruction(Opcode.MXM, (1, 1, 1)).slot is SlotClass.MATRIX
        assert Instruction(Opcode.VEXP, (10,)).slot is SlotClass.VECTOR
        assert Instruction(Opcode.DMA_IN, (0, 1, 2)).slot is SlotClass.DMA

    def test_str(self):
        assert str(Instruction(Opcode.MXM, (8, 16, 32))) == "mxm 8, 16, 32"
        assert str(Instruction(Opcode.HALT)) == "halt"


class TestBundle:
    def test_slot_usage(self):
        bundle = Bundle((Instruction(Opcode.MXM, (1, 1, 1)),
                         Instruction(Opcode.VADD, (8,))))
        usage = bundle.slot_usage()
        assert usage[SlotClass.MATRIX] == 1
        assert usage[SlotClass.VECTOR] == 1

    def test_gen1_rejects_two_matrix_ops(self):
        bundle = Bundle((Instruction(Opcode.MXM, (1, 1, 1)),
                         Instruction(Opcode.MXM, (2, 2, 2))))
        with pytest.raises(ValueError):
            bundle.check_slots(slot_layout_for_generation(1), 1)
        # gen4 has 2 matrix slots
        bundle.check_slots(slot_layout_for_generation(4), 4)

    def test_layouts_grow_over_generations(self):
        g1 = slot_layout_for_generation(1)
        g4 = slot_layout_for_generation(4)
        assert sum(g4.values()) > sum(g1.values())

    def test_unknown_generation(self):
        with pytest.raises(KeyError):
            slot_layout_for_generation(5)

    def test_empty_bundle(self):
        assert str(Bundle()) == "nop"


class TestProgram:
    def _program(self):
        return Program("test", 4, [
            Bundle((Instruction(Opcode.DMA_IN, (0, 4096, 1)),)),
            Bundle((Instruction(Opcode.SYNC_WAIT, (1,)),
                    Instruction(Opcode.MXM, (64, 128, 128)))),
            Bundle((Instruction(Opcode.DMA_OUT, (0, 2048, 2)),
                    Instruction(Opcode.HALT)))])

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="bundle 0: .* matrix slots"):
            Program("x", 1, [Bundle((Instruction(Opcode.MXM, (1, 1, 1)),
                                     Instruction(Opcode.MXM, (1, 1, 1))))])

    def test_total_macs(self):
        assert self._program().total_macs() == 64 * 128 * 128

    def test_iteration_flattens(self):
        assert len(list(self._program().instructions())) == 5

    def test_rebuilding_from_the_runs_gives_an_equal_program(self):
        program = self._program()
        again = Program(program.name, program.generation,
                        program.run_bundles, program.run_counts)
        assert again == program and hash(again) == hash(program)
