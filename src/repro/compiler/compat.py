"""Compiler compatibility vs binary compatibility (Lesson 2, experiment E13).

Two facts, demonstrated executably:

* ``binary_runs_on``: a compiled binary only decodes on its own generation —
  the VLIW formats are mutually unintelligible, so "ship binaries" was never
  an option across TPU generations;
* ``migrate_model``: the HLO graph recompiles onto any generation — as
  is where the target has the model's dtypes, otherwise after an
  explicit, quality-tracked retarget to the target's native dtype (int8
  on TPUv1, bf16 when a TPUv1 model moves up) — and the recompiled
  program immediately benefits from the target's compiler features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.chip import ChipConfig
from repro.compiler.pipeline import (
    CompiledModel,
    UnsupportedDtypeError,
    compile_model,
    retarget_dtype,
)
from repro.compiler.versions import CompilerVersion, LATEST
from repro.graph.hlo import HloModule
from repro.isa.encoding import IncompatibleBinaryError, decode_program, encode_program


@dataclass(frozen=True)
class CompatReport:
    """Outcome of moving one model from one chip to another.

    Attributes:
        source_chip / target_chip: the migration endpoints.
        binary_portable: whether the source binary decodes on the target
            (False whenever generations differ).
        recompiled: whether HLO recompilation succeeded (a failure
            raises, so a returned report says True).
        retargeted_dtype: dtype forced during migration (the target's
            native dtype: ``"int8"`` when moving a bf16 model to TPUv1,
            ``"bf16"`` when moving an int8 model to TPUv2/v3), or None.
        notes: human-readable explanation.
    """

    source_chip: str
    target_chip: str
    binary_portable: bool
    recompiled: bool
    retargeted_dtype: Optional[str]
    notes: str


def binary_runs_on(compiled: CompiledModel, target: ChipConfig) -> bool:
    """Whether a compiled binary is even decodable on ``target``.

    Round-trips the real encoder: encode with the source format, attempt to
    decode with the target's.
    """
    binary = encode_program(compiled.program)
    try:
        decode_program(binary, target.generation)
        return True
    except IncompatibleBinaryError:
        return False


def migrate_model(module: HloModule, source: ChipConfig, target: ChipConfig,
                  *, version: CompilerVersion = LATEST) -> CompatReport:
    """Move a model across generations the way production actually did.

    Step 1: try carrying the binary (fails across generations).
    Step 2: recompile the graph for the target, retargeting to the
    target's native dtype if it lacks the model's formats.
    """
    source_compiled = compile_model(module, source, version=version)
    portable = binary_runs_on(source_compiled, target)

    retargeted: Optional[str] = None
    try:
        compile_model(module, target, version=version)
    except UnsupportedDtypeError:
        retargeted = target.native_dtype
        compile_model(retarget_dtype(module, retargeted), target,
                      version=version)

    if portable:
        notes = "same generation: binary carries over"
    elif retargeted:
        notes = (f"binary incompatible; recompiled from HLO with dtype "
                 f"retarget to {retargeted} (quality must be re-validated)")
    else:
        notes = "binary incompatible; clean recompile from HLO succeeded"
    return CompatReport(
        source_chip=source.name,
        target_chip=target.name,
        binary_portable=portable,
        recompiled=True,
        retargeted_dtype=retargeted,
        notes=notes,
    )
