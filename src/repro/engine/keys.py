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
import functools
import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Optional, Tuple

#: Bump when the *meaning* of cached payloads changes (e.g. a simulator
#: fidelity fix, or a field dropped from a pickled result such as
#: ``SimResult.trace``): old entries are then unreachable rather than
#: wrong.
SCHEMA_VERSION = 2

#: Exact types :func:`canonicalize` returns unchanged.
_PRIMITIVES = frozenset({str, int, float, bool, type(None)})

#: Per class: its dataclass field names, or ``None`` for a class that
#: is not a dataclass.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}

#: The encoder ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
#: builds on every call, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (tuple(f.name for f in dataclasses.fields(cls))
                 if dataclasses.is_dataclass(cls) else None)
        _FIELD_NAMES[cls] = names
        return names


def canonicalize(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives (deterministic ordering)."""
    cls = type(value)
    if cls in _PRIMITIVES:
        return value
    names = _field_names(cls)
    if names is not None:
        out = {}
        for name in names:
            item = getattr(value, name)
            out[name] = (item if type(item) in _PRIMITIVES
                         else canonicalize(item))
        return out
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
    """SHA-256 hex digest of a value's canonical JSON form.

    The JSON text is ``json.dumps(canonicalize(value), sort_keys=True,
    separators=(",", ":"))``.
    """
    payload = _ENCODER.encode(canonicalize(value))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chip_fingerprint(chip: Any) -> str:
    """Digest over *every* ChipConfig field — any change invalidates."""
    return fingerprint(chip)


@functools.cache
def compiler_fingerprint(version: Any) -> str:
    """Digest over a CompilerVersion (name, age, feature set).

    Computed once per release value: a process has a handful of
    releases and every DesignPoint asks for one.
    """
    return fingerprint(version)


#: Chip fields a compiled program's *content* cannot depend on: the
#: compiler reads memory sizes/dtypes/tile geometry and the ISA
#: generation, never the clock, the MXU replication count (sharding is
#: an execution-time split), or power/cooling provisioning.
_COMPILE_IRRELEVANT = frozenset(
    {"name", "clock_hz", "mxus_per_core", "tdp_w", "idle_w", "cooling"})


def compile_chip_fingerprint(chip: Any) -> str:
    """Digest over the chip fields that determine compiled content.

    Two chips with equal fingerprints compile any workload to programs
    with identical ``Program.signature()`` and identical memory planning
    (``cmem_hit_fraction``); ``tests/test_gridsim.py`` asserts this for
    every excluded field. The grid's compile dedupe reads it through
    :attr:`DesignPoint.compile_fp`, once per design point.
    """
    fields = {f.name: getattr(chip, f.name)
              for f in dataclasses.fields(chip)
              if f.name not in _COMPILE_IRRELEVANT}
    return fingerprint(fields)


def _json_int(value: int) -> str:
    # json renders bools as true/false, which int.__repr__ would not.
    if type(value) is bool:
        raise TypeError("a cache-key integer cannot be a bool")
    return int.__repr__(value)


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

    The key is the SHA-256 of the text ``json.dumps(payload,
    sort_keys=True, separators=(",", ":"))`` gives for the payload dict
    ``{"schema", "kind", "chip", "compiler", "workload", "batch",
    "cmem_budget_bytes", "dtype"[, "phase"][, "kv_bucket"]}``, written
    out directly: keys in sorted order, strings through the encoder
    ``json.dumps`` uses, integers through ``int.__repr__``. The string
    arguments must be ``str`` and the integer ones ``int`` (a bool is
    rejected); anything else raises ``TypeError``. The ``keys`` golden
    suite pins the bytes.
    """
    budget = ("null" if cmem_budget_bytes is None
              else _json_int(cmem_budget_bytes))
    kv = ("" if kv_bucket is None
          else f',"kv_bucket":{_json_int(kv_bucket)}')
    ph = ("" if phase is None
          else f',"phase":{encode_basestring_ascii(phase)}')
    blob = (f'{{"batch":{_json_int(batch)},'
            f'"chip":{encode_basestring_ascii(chip_fp)},'
            f'"cmem_budget_bytes":{budget},'
            f'"compiler":{encode_basestring_ascii(compiler_fp)},'
            f'"dtype":{encode_basestring_ascii(dtype)},'
            f'"kind":{encode_basestring_ascii(kind)}{kv}{ph},'
            f'"schema":{SCHEMA_VERSION},'
            f'"workload":{encode_basestring_ascii(workload)}}}')
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


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
