"""Compiled-artifact serialization.

A production serving stack compiles ahead of time and ships artifacts to
hosts. An artifact bundles the encoded VLIW binary (generation-specific —
Lesson 2 applies to files too) with the JSON metadata a loader needs to
check compatibility before attempting to run: target generation, chip
name, compiler release, batch size, dtype, and weight placement summary.

Format: a JSON header line, then the raw program binary.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, Union

from repro.arch.chip import ChipConfig
from repro.compiler.pipeline import CompiledModel
from repro.isa.encoding import IncompatibleBinaryError, decode_program, encode_program
from repro.isa.program import Program

_MAGIC = "repro-artifact-v1"


@dataclass(frozen=True)
class CompiledArtifact:
    """A loadable compiled model."""

    program: Program
    metadata: Dict[str, object]

    @property
    def generation(self) -> int:
        return int(self.metadata["generation"])

    def runs_on(self, chip: ChipConfig) -> bool:
        """Generation check — the load-time compatibility gate."""
        return chip.generation == self.generation


def artifact_from_compiled(compiled: CompiledModel) -> CompiledArtifact:
    """Wrap a fresh compile result as an artifact."""
    metadata = {
        "model": compiled.source.name,
        "chip": compiled.chip.name,
        "generation": compiled.chip.generation,
        "compiler": compiled.version.name,
        "dtype": compiled.module.root.shape.dtype_name,
        "weight_bytes": compiled.weight_bytes,
        "cmem_weight_bytes": compiled.memory.cmem_weight_bytes,
        "bundles": len(compiled.program),
    }
    return CompiledArtifact(program=compiled.program, metadata=metadata)


def save_artifact(compiled_or_artifact: Union[CompiledModel, CompiledArtifact],
                  path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Serialize to ``path``; returns the path written."""
    if isinstance(compiled_or_artifact, CompiledModel):
        artifact = artifact_from_compiled(compiled_or_artifact)
    else:
        artifact = compiled_or_artifact
    header = dict(artifact.metadata)
    header["magic"] = _MAGIC
    binary = encode_program(artifact.program)
    out = pathlib.Path(path)
    with out.open("wb") as handle:
        handle.write(json.dumps(header).encode("utf-8"))
        handle.write(b"\n")
        handle.write(binary)
    return out


def load_artifact(path: Union[str, pathlib.Path]) -> CompiledArtifact:
    """Read an artifact; raises on corrupt headers or foreign binaries."""
    data = pathlib.Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: not an artifact (no header line)")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt artifact header") from exc
    if header.get("magic") != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    generation = int(header["generation"])
    try:
        program = decode_program(data[newline + 1:], generation)
    except IncompatibleBinaryError as exc:
        raise ValueError(f"{path}: binary does not match its header "
                         f"(generation {generation})") from exc
    header.pop("magic")
    return CompiledArtifact(program=program, metadata=header)
