"""Tests for chip JSON serialization and the CLI --chip-file path."""

import json

import pytest

from repro.arch import (
    GENERATIONS,
    TPUV4I,
    chip_from_json,
    chip_to_json,
    load_chip,
    save_chip,
)
from repro.cli import main


class TestChipJson:
    def test_roundtrip_all_generations(self):
        for chip in GENERATIONS:
            restored = chip_from_json(chip_to_json(chip))
            assert restored == chip

    def test_file_roundtrip(self, tmp_path):
        path = save_chip(TPUV4I, tmp_path / "v4i.json")
        assert load_chip(path) == TPUV4I

    def test_custom_chip_works_end_to_end(self, tmp_path):
        from repro.core import DesignPoint
        from repro.workloads import app_by_name

        custom = TPUV4I.variant("v4-lite", mxus_per_core=2, tdp_w=110.0)
        path = save_chip(custom, tmp_path / "lite.json")
        loaded = load_chip(path)
        evaluation = DesignPoint(loaded).evaluate(app_by_name("cnn0"),
                                                  batch=2)
        assert evaluation.chip == "v4-lite"
        assert evaluation.chip_qps > 0

    def test_unknown_field_rejected(self):
        payload = json.loads(chip_to_json(TPUV4I))
        payload["turbo_mode"] = True
        with pytest.raises(ValueError, match="unknown chip fields"):
            chip_from_json(json.dumps(payload))

    def test_missing_field_rejected(self):
        payload = json.loads(chip_to_json(TPUV4I))
        del payload["tdp_w"]
        with pytest.raises(ValueError, match="missing chip fields"):
            chip_from_json(json.dumps(payload))

    def test_unknown_process_rejected(self):
        payload = json.loads(chip_to_json(TPUV4I))
        payload["process"] = "3nm"
        with pytest.raises(KeyError):
            chip_from_json(json.dumps(payload))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            chip_from_json("not json at all")
        with pytest.raises(ValueError):
            chip_from_json("[1, 2, 3]")

    def test_field_validation_still_applies(self):
        payload = json.loads(chip_to_json(TPUV4I))
        payload["cooling"] = "fans"
        with pytest.raises(ValueError):
            chip_from_json(json.dumps(payload))

    def test_integer_json_values_give_the_catalog_key(self):
        """A hand-written ``"tdp_w": 175`` is the catalog's 175.0."""
        from repro.engine import chip_fingerprint

        for chip in GENERATIONS:
            payload = json.loads(chip_to_json(chip))
            for name, value in payload.items():
                if isinstance(value, float) and value.is_integer():
                    payload[name] = int(value)
            assert any(type(v) is int and type(getattr(chip, k)) is float
                       for k, v in payload.items())
            loaded = chip_from_json(json.dumps(payload))
            assert chip_fingerprint(loaded) == chip_fingerprint(chip)


class TestCliChipFile:
    def test_evaluate_with_chip_file(self, tmp_path, capsys):
        path = save_chip(TPUV4I.variant("filechip", tdp_w=150.0),
                         tmp_path / "c.json")
        code = main(["evaluate", "--app", "cnn0", "--batch", "2",
                     "--chip-file", str(path)])
        assert code == 0
        assert "filechip" in capsys.readouterr().out

    def test_evaluate_with_missing_file(self, capsys):
        assert main(["evaluate", "--app", "cnn0",
                     "--chip-file", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err
