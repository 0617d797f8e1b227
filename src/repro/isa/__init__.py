"""VLIW ISA for the TPU TensorCore family (Lesson 2 substrate).

The TensorCore is a VLIW machine: each cycle issues one *bundle* with slots
for scalar, vector, matrix, DMA, and sync operations. Crucially for Lesson 2,
the *binary* bundle format changed every generation (slot counts, field
widths, opcode numbering), so shipped binaries never survive a generation —
only programs recompiled from the graph IR do. This package defines the
instructions, bundles, per-generation binary encodings, and a textual
disassembler (``repro dump --format asm``).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.isa.instructions": ("Instruction", "Bundle", "Opcode", "SlotClass",
                               "SLOT_LAYOUTS", "slot_layout_for_generation"),
    "repro.isa.program": ("Program",),
    "repro.isa.encoding": ("BinaryFormat", "IncompatibleBinaryError",
                           "encode_program", "decode_program",
                           "format_for_generation"),
    "repro.isa.assembler": ("disassemble",),
})
