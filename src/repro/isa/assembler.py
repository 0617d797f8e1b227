"""Textual disassembler for TensorCore programs (``repro dump --format asm``).

The format is one bundle per line; instructions within a bundle are
separated by `` ; ``. Operands are comma-separated non-negative integers,
and a leading directive names the program and generation:

    .program my_kernel gen 4
    dma.in 1, 65536, 0 ; mxm.loadw 128, 128
    sync.wait 0
    mxm 256, 128, 128 ; vrelu 32768
    halt
"""

from __future__ import annotations

from repro.isa.program import Program


def disassemble(program: Program) -> str:
    """Render a program as assembly text, one bundle per line."""
    lines = [f".program {program.name} gen {program.generation}"]
    lines.extend(str(bundle) for bundle in program.bundles)
    return "\n".join(lines) + "\n"
