"""Per-generation binary encodings (the sharp edge of Lesson 2).

Each generation encodes bundles differently: a different magic word,
different opcode numbering, different operand field widths, and different
slot layouts. None of it is gratuitous in the real machines — fields grow
when memories grow, opcodes renumber when units are added — but the effect
is that a binary compiled for generation N is *undecodable* on generation
N+1. The paper's response is to guarantee compatibility one level up, at
the graph/compiler interface (see ``repro.compiler.compat``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.isa.instructions import Bundle, Instruction, Opcode
from repro.isa.program import Program


class IncompatibleBinaryError(Exception):
    """A binary cannot be decoded by this generation's format."""


@dataclass(frozen=True)
class BinaryFormat:
    """The binary bundle format of one chip generation.

    Attributes:
        generation: 1-4.
        magic: 4-byte magic word at the head of every binary.
        operand_bytes: width of each operand field (grew with memory sizes).
        opcode_salt: per-generation opcode renumbering offset.
    """

    generation: int
    magic: bytes
    operand_bytes: int
    opcode_salt: int

    def __post_init__(self) -> None:
        if len(self.magic) != 4:
            raise ValueError("magic must be exactly 4 bytes")
        if self.operand_bytes not in (3, 4, 5, 6, 8):
            raise ValueError(f"unsupported operand width {self.operand_bytes}")

    # Opcode numbering: stable order of the Opcode enum, rotated by the salt.
    def _opcode_table(self) -> Dict[Opcode, int]:
        ops = list(Opcode)
        return {op: (idx + self.opcode_salt) % 251 for idx, op in enumerate(ops)}

    def _reverse_table(self) -> Dict[int, Opcode]:
        return {code: op for op, code in self._opcode_table().items()}

    def _pack_operand(self, value: int) -> bytes:
        limit = 1 << (8 * self.operand_bytes)
        if not 0 <= value < limit:
            raise ValueError(
                f"operand {value} does not fit in {self.operand_bytes} bytes "
                f"(generation {self.generation})"
            )
        return value.to_bytes(self.operand_bytes, "little")

    def encode(self, program: Program) -> bytes:
        """Serialize a program scheduled for this generation."""
        if program.generation != self.generation:
            raise IncompatibleBinaryError(
                f"program was scheduled for generation {program.generation}, "
                f"this format is generation {self.generation}"
            )
        table = self._opcode_table()
        out = bytearray()
        out += self.magic
        out += struct.pack("<BI", self.generation, len(program))
        name_bytes = program.name.encode("utf-8")[:255]
        out += struct.pack("<B", len(name_bytes))
        out += name_bytes
        for bundle, count in program.runs:
            encoded = bytearray(struct.pack("<B", len(bundle.instructions)))
            for inst in bundle.instructions:
                encoded += struct.pack("<B", table[inst.opcode])
                for operand in inst.args:
                    encoded += self._pack_operand(operand)
            out += encoded * count
        return bytes(out)

    def decode(self, data: bytes) -> Program:
        """Deserialize; raises :class:`IncompatibleBinaryError` for foreign
        binaries and ``ValueError`` for a bundle that over-subscribes a
        slot class of this generation."""
        if len(data) < 10:
            raise IncompatibleBinaryError("binary too short to contain a header")
        if data[:4] != self.magic:
            raise IncompatibleBinaryError(
                f"magic mismatch: this is not a generation-{self.generation} binary"
            )
        generation, bundle_count = struct.unpack_from("<BI", data, 4)
        if generation != self.generation:
            raise IncompatibleBinaryError(
                f"binary declares generation {generation}, decoder is "
                f"generation {self.generation}"
            )
        offset = 9
        (name_len,) = struct.unpack_from("<B", data, offset)
        offset += 1
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        reverse = self._reverse_table()
        bundles: List[Bundle] = []
        for _ in range(bundle_count):
            if offset >= len(data):
                raise IncompatibleBinaryError("truncated binary: missing bundles")
            (inst_count,) = struct.unpack_from("<B", data, offset)
            offset += 1
            instructions: List[Instruction] = []
            for _ in range(inst_count):
                (code,) = struct.unpack_from("<B", data, offset)
                offset += 1
                opcode = reverse.get(code)
                if opcode is None:
                    raise IncompatibleBinaryError(f"unknown opcode byte {code}")
                args: List[int] = []
                for _ in range(opcode.arity):
                    chunk = data[offset:offset + self.operand_bytes]
                    if len(chunk) != self.operand_bytes:
                        raise IncompatibleBinaryError("truncated operand field")
                    args.append(int.from_bytes(chunk, "little"))
                    offset += self.operand_bytes
                instructions.append(Instruction(opcode, tuple(args)))
            bundles.append(Bundle(tuple(instructions)))
        if offset != len(data):
            raise IncompatibleBinaryError("trailing bytes after last bundle")
        return Program(name, self.generation, bundles)


_FORMATS: Dict[int, BinaryFormat] = {
    1: BinaryFormat(1, b"TPU1", 3, 17),
    2: BinaryFormat(2, b"TPU2", 4, 59),
    3: BinaryFormat(3, b"TPU3", 4, 113),
    4: BinaryFormat(4, b"TP4I", 5, 211),
}


def format_for_generation(generation: int) -> BinaryFormat:
    """The binary format of a chip generation."""
    try:
        return _FORMATS[generation]
    except KeyError:
        raise KeyError(f"no binary format for generation {generation}") from None


def encode_program(program: Program) -> bytes:
    """Encode with the format matching the program's generation."""
    return format_for_generation(program.generation).encode(program)


def decode_program(data: bytes, generation: int) -> Program:
    """Decode ``data`` as a generation-``generation`` binary."""
    return format_for_generation(generation).decode(data)
