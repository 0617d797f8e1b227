"""Tests for binary encoding — the executable form of Lesson 2."""

import pytest

from repro.isa import (
    Bundle,
    IncompatibleBinaryError,
    Instruction,
    Opcode,
    Program,
    decode_program,
    encode_program,
    format_for_generation,
)


def sample_program(generation: int = 4) -> Program:
    return Program("kernel", generation, [
        Bundle((Instruction(Opcode.DMA_IN, (0, 65536, 3)),)),
        Bundle((Instruction(Opcode.SYNC_WAIT, (3,)),
                Instruction(Opcode.MXM, (128, 256, 512)))),
        Bundle((Instruction(Opcode.HALT),))])


class TestRoundTrip:
    @pytest.mark.parametrize("generation", [1, 2, 3, 4])
    def test_encode_decode_identity(self, generation):
        p = Program("k", generation, [
            Bundle((Instruction(Opcode.VADD, (1024,)),)),
            Bundle((Instruction(Opcode.HALT),))])
        decoded = decode_program(encode_program(p), generation)
        assert decoded.name == "k"
        assert [str(b) for b in decoded.bundles] == [str(b) for b in p.bundles]

    def test_operands_preserved(self):
        decoded = decode_program(encode_program(sample_program()), 4)
        mxm = [i for i in decoded.instructions() if i.opcode is Opcode.MXM][0]
        assert mxm.args == (128, 256, 512)


class TestIncompatibility:
    """A binary never crosses generations — why ship-the-binary failed."""

    @pytest.mark.parametrize("target", [1, 2, 3])
    def test_gen4_binary_rejected_elsewhere(self, target):
        binary = encode_program(sample_program(4))
        with pytest.raises(IncompatibleBinaryError):
            decode_program(binary, target)

    def test_every_pair_incompatible(self):
        for source in (1, 2, 3, 4):
            binary = encode_program(sample_program(source))
            for target in (1, 2, 3, 4):
                if target == source:
                    continue
                with pytest.raises(IncompatibleBinaryError):
                    decode_program(binary, target)

    def test_magics_differ(self):
        magics = {format_for_generation(g).magic for g in (1, 2, 3, 4)}
        assert len(magics) == 4

    def test_operand_widths_grew(self):
        assert (format_for_generation(1).operand_bytes
                < format_for_generation(4).operand_bytes)

    def test_program_generation_must_match_format(self):
        fmt = format_for_generation(3)
        with pytest.raises(IncompatibleBinaryError):
            fmt.encode(sample_program(4))

    def test_truncated_binary_rejected(self):
        binary = encode_program(sample_program())
        with pytest.raises(IncompatibleBinaryError):
            decode_program(binary[:-3], 4)

    def test_trailing_garbage_rejected(self):
        binary = encode_program(sample_program())
        with pytest.raises(IncompatibleBinaryError):
            decode_program(binary + b"\x00", 4)

    def test_short_blob_rejected(self):
        with pytest.raises(IncompatibleBinaryError):
            decode_program(b"TP4I", 4)

    def test_operand_overflow_rejected(self):
        # Generation 1 has 3-byte operands: 2^24 does not fit.
        p = Program("big", 1, [Bundle((Instruction(Opcode.VADD, (1 << 24,)),))])
        with pytest.raises(ValueError):
            encode_program(p)

    def test_unknown_generation(self):
        with pytest.raises(KeyError):
            format_for_generation(9)
