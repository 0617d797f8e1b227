"""Stable, content-addressed cache keys for compile/simulate results.

A cache entry must outlive the Python process that wrote it, so keys
cannot use ``hash()`` (salted per process) or ``id()``-based identity.
Instead every key is the SHA-256 of a canonical JSON rendering of the
inputs that determine an evaluation:

* every field of the :class:`~repro.arch.chip.ChipConfig` dataclass
  (clock, MXU organization, memory hierarchy, ... — change any field and
  the key changes);
* the compiler release (name and feature set);
* the workload name and batch size;
* the CMEM budget override, if any;
* the arithmetic dtype;
* for generative workloads only: the phase (prefill/decode) and the
  decode KV-length bucket — omitted entirely for classic workloads, so
  pre-generative keys (and on-disk entries) are byte-for-byte unchanged.

Two processes — or two runs a week apart — that evaluate the same
(chip, compiler, workload, batch, budget, dtype) tuple therefore compute
the same key and share the on-disk tier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

#: Bump when the *meaning* of cached payloads changes (e.g. a simulator
#: fidelity fix, or a field dropped from a pickled result such as
#: ``SimResult.trace``): old entries are then unreachable rather than
#: wrong.
SCHEMA_VERSION = 2


def canonicalize(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives (deterministic ordering)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (frozenset, set)):
        return sorted(canonicalize(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [canonicalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for a cache key")


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    payload = json.dumps(canonicalize(value), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chip_fingerprint(chip: Any) -> str:
    """Digest over *every* ChipConfig field — any change invalidates."""
    return fingerprint(chip)


def compiler_fingerprint(version: Any) -> str:
    """Digest over a CompilerVersion (name, age, feature set)."""
    return fingerprint(version)


def eval_key(kind: str, chip_fp: str, compiler_fp: str, workload: str,
             batch: int, cmem_budget_bytes: int | None = None,
             dtype: str = "bf16", *, phase: str | None = None,
             kv_bucket: int | None = None) -> str:
    """The cache key for one evaluation record.

    ``kind`` separates payload types sharing the same inputs
    (``"sim"`` for :class:`SimResult`, ``"eval"`` for
    :class:`Evaluation`); ``chip_fp``/``compiler_fp`` are precomputed
    :func:`chip_fingerprint`/:func:`compiler_fingerprint` digests so hot
    paths hash the (small) outer payload only.

    ``phase``/``kv_bucket`` identify one phase of a generative workload
    (prefill vs decode, and the decode step's KV-length bucket). They
    enter the payload *only when set*: a ``None`` phase produces exactly
    the pre-generative key bytes, so every legacy entry — including
    on-disk tiers written before phases existed — stays reachable.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "chip": chip_fp,
        "compiler": compiler_fp,
        "workload": workload,
        "batch": batch,
        "cmem_budget_bytes": cmem_budget_bytes,
        "dtype": dtype,
    }
    if phase is not None:
        payload["phase"] = phase
    if kv_bucket is not None:
        payload["kv_bucket"] = kv_bucket
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def key_meta(kind: str, chip_name: str, compiler_name: str, workload: str,
             batch: int, cmem_budget_bytes: int | None,
             dtype: str, *, phase: str | None = None,
             kv_bucket: int | None = None) -> dict[str, Any]:
    """Human-readable description stored with each disk-tier record."""
    meta = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "chip": chip_name,
        "compiler": compiler_name,
        "workload": workload,
        "batch": batch,
        "cmem_budget_bytes": cmem_budget_bytes,
        "dtype": dtype,
    }
    if phase is not None:
        meta["phase"] = phase
    if kv_bucket is not None:
        meta["kv_bucket"] = kv_bucket
    return meta
