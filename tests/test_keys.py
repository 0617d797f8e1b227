"""The cache-key path: byte contracts and how often keys are computed.

``eval_key`` writes its JSON text directly and ``canonicalize`` caches
per-class field readers; both must produce exactly the bytes of the
``json.dumps`` construction they replaced, or every on-disk cache entry
would be orphaned. The reference constructions below are test-only
oracles; ``tests/golden/keys.json`` pins concrete keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GENERATIONS, TPUV4I, ChipConfig
from repro.compiler.versions import LATEST, RELEASES, CompilerVersion
from repro.core.design_point import DesignPoint, clear_shared_design_points
from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates, \
    evaluate_candidates
from repro.engine import EvalCache, keys
from repro.engine.keys import SCHEMA_VERSION, canonicalize, eval_key, \
    fingerprint
from repro.workloads import app_by_name
from tests.conftest import cold_engine


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_eval_key(kind, chip_fp, compiler_fp, workload, batch,
                       cmem_budget_bytes=None, dtype="bf16", *, phase=None,
                       kv_bucket=None) -> str:
    payload = {"schema": SCHEMA_VERSION, "kind": kind, "chip": chip_fp,
               "compiler": compiler_fp, "workload": workload,
               "batch": batch, "cmem_budget_bytes": cmem_budget_bytes,
               "dtype": dtype}
    if phase is not None:
        payload["phase"] = phase
    if kv_bucket is not None:
        payload["kv_bucket"] = kv_bucket
    return _sha(_dumps(payload))


def reference_canonicalize(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: reference_canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (frozenset, set)):
        return sorted(reference_canonicalize(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [reference_canonicalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference_canonicalize(v)
                for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(type(value).__name__)


# Any code point, lone surrogates included: quotes, backslashes,
# control characters and non-ASCII all go through the string encoder.
names = st.text(st.characters(blacklist_categories=()), max_size=12)
big_ints = st.integers(min_value=-(2 ** 200), max_value=2 ** 200)


class TestEvalKeyBytes:
    @settings(max_examples=400, deadline=None)
    @given(kind=names, chip_fp=names, compiler_fp=names, workload=names,
           batch=big_ints, budget=st.none() | big_ints, dtype=names,
           phase=st.none() | names, kv_bucket=st.none() | big_ints)
    def test_matches_json_dumps(self, kind, chip_fp, compiler_fp, workload,
                                batch, budget, dtype, phase, kv_bucket):
        args = (kind, chip_fp, compiler_fp, workload, batch, budget, dtype)
        assert eval_key(*args, phase=phase, kv_bucket=kv_bucket) \
            == reference_eval_key(*args, phase=phase, kv_bucket=kv_bucket)

    def test_defaults_match(self):
        assert eval_key("sim", "c", "v", "cnn0", 8) \
            == reference_eval_key("sim", "c", "v", "cnn0", 8)

    @pytest.mark.parametrize("override", [
        {"batch": True}, {"cmem_budget_bytes": False}, {"kv_bucket": True},
        {"batch": 8.0}, {"cmem_budget_bytes": 1.5}, {"workload": 3},
        {"phase": b"decode"}])
    def test_non_json_types_are_rejected(self, override):
        args = {"kind": "sim", "chip_fp": "c", "compiler_fp": "v",
                "workload": "cnn0", "batch": 8, **override}
        with pytest.raises(TypeError):
            eval_key(**args)


@dataclasses.dataclass(frozen=True)
class _Empty:
    pass


@dataclasses.dataclass(frozen=True)
class _One:
    only: Any


@dataclasses.dataclass(frozen=True)
class _Pair:
    left: Any
    right: Any


leaves = (st.none() | st.booleans() | big_ints | names
          | st.floats(allow_nan=False))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.frozensets(big_ints, max_size=4)
                   | st.sets(names, max_size=4)
                   | st.dictionaries(names, inner, max_size=4)
                   | st.builds(_One, inner)
                   | st.builds(_Pair, inner, inner)
                   | st.just(_Empty())),
    max_leaves=20)


class TestFingerprintBytes:
    @settings(max_examples=300, deadline=None)
    @given(value=values)
    def test_matches_reference(self, value):
        assert canonicalize(value) == reference_canonicalize(value)
        assert fingerprint(value) == _sha(_dumps(
            reference_canonicalize(value)))

    def test_configs_match_reference(self):
        grid = enumerate_candidates((2, 4, 8), (0, 64, 128), (0.7, 1.05))
        for value in (*GENERATIONS, *grid, *RELEASES):
            assert fingerprint(value) == _sha(_dumps(
                reference_canonicalize(value)))

    def test_primitive_subclasses_keep_their_json_form(self):
        value = {"f": np.float64(0.1), "t": (np.float64(2.5), 3)}
        assert fingerprint(value) == _sha(_dumps(
            reference_canonicalize(value)))

    def test_unsupported_values_raise(self):
        for bad in (object(), ChipConfig, b"bytes"):
            with pytest.raises(TypeError):
                canonicalize(bad)


class TestComputedOnce:
    """A 360-job DSE grid fingerprints each value once."""

    def test_grid_fingerprint_counts(self, monkeypatch):
        real = keys.fingerprint
        calls: dict = {}

        def counting(value):
            kind = type(value).__name__
            calls[kind] = calls.get(kind, 0) + 1
            return real(value)

        chips = enumerate_candidates((2, 4, 8), (0, 32, 64, 96, 128),
                                     (0.7, 0.8, 0.9, 1.0, 1.1, 1.2))
        assert len(chips) * len(DEFAULT_DSE_APPS) == 360
        monkeypatch.setattr(keys, "fingerprint", counting)
        keys.compiler_fingerprint.cache_clear()
        clear_shared_design_points()
        try:
            with cold_engine():
                cold = evaluate_candidates(chips, DEFAULT_DSE_APPS)
                # Compiler: once per CompilerVersion. Chip and compile
                # content: once per design point.
                assert calls == {"CompilerVersion": 1,
                                 "ChipConfig": len(chips),
                                 "dict": len(chips)}
                calls.clear()
                assert evaluate_candidates(chips, DEFAULT_DSE_APPS) == cold
                assert calls == {}
        finally:
            clear_shared_design_points()

    def test_compiler_fingerprint_is_memoised_per_release(self):
        keys.compiler_fingerprint.cache_clear()
        twin = CompilerVersion(LATEST.name, LATEST.months_after_launch,
                               frozenset(LATEST.features))
        assert twin is not LATEST
        assert keys.compiler_fingerprint(twin) \
            == keys.compiler_fingerprint(LATEST)
        assert keys.compiler_fingerprint.cache_info().misses == 1

    def test_release_age_must_be_an_int(self):
        with pytest.raises(ValueError, match="months_after_launch"):
            CompilerVersion("x", 3.0, frozenset())
        with pytest.raises(ValueError, match="months_after_launch"):
            CompilerVersion("x", True, frozenset())

    def test_hit_builds_no_simulator(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path)
        spec = app_by_name("cnn0")
        DesignPoint(TPUV4I, cache=cache).evaluate(spec, batch=2)
        warm = DesignPoint(TPUV4I, cache=cache)
        warm.evaluate(spec, batch=2)
        assert "sim" not in vars(warm) and "compile_fp" not in vars(warm)
