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
            bundle.validate_for(1)
        bundle.validate_for(4)  # gen4 has 2 matrix slots

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
        p = Program("test", generation=4)
        p.append(Bundle((Instruction(Opcode.DMA_IN, (0, 4096, 1)),)))
        p.append(Bundle((Instruction(Opcode.SYNC_WAIT, (1,)),
                         Instruction(Opcode.MXM, (64, 128, 128)))))
        p.append(Bundle((Instruction(Opcode.DMA_OUT, (0, 2048, 2)),
                         Instruction(Opcode.HALT))))
        return p

    def test_append_validates(self):
        p = Program("x", generation=1)
        with pytest.raises(ValueError):
            p.append(Bundle((Instruction(Opcode.MXM, (1, 1, 1)),
                             Instruction(Opcode.MXM, (1, 1, 1)))))

    def test_total_macs(self):
        assert self._program().total_macs() == 64 * 128 * 128

    def test_iteration_flattens(self):
        assert len(list(self._program().instructions())) == 5

    def test_validate_passes(self):
        self._program().validate()
