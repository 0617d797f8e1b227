"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestCli:
    def test_chips(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        assert "TPUv4i" in out and "TPUv1" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "bert0" in out and "SLO" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "--app", "cnn0", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "TCO" in out

    def test_evaluate_unknown_app_fails_cleanly(self, capsys):
        assert main(["evaluate", "--app", "gpt5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_evaluate_unknown_chip_fails_cleanly(self, capsys):
        assert main(["evaluate", "--app", "cnn0", "--chip", "TPUv9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "--app", "cnn0", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "TPUv2" in out and "TPUv4i" in out

    def test_migrate(self, capsys):
        assert main(["migrate", "--app", "cnn0", "--source", "TPUv3",
                     "--target", "TPUv4i"]) == 0
        out = capsys.readouterr().out
        assert "binary portable: False" in out
        assert "recompiled:      True" in out

    def test_migrate_from_tpuv1_widens_to_bf16(self, capsys):
        assert main(["migrate", "--app", "cnn0", "--source", "TPUv1",
                     "--target", "TPUv2"]) == 0
        out = capsys.readouterr().out
        assert "recompiled:      True" in out
        assert "dtype retarget:  bf16" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestNameResolution:
    """Every command resolves app and chip names through one path."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--app", "resnet50", "--chip", "tpuv4i", "--batch", "1"],
        ["compare", "--app", "bert", "--batch", "1"],
        ["profile", "--app", "CNN0", "--chip", "tpuv4i", "--batch", "1",
         "--top", "1"],
        ["dump", "--app", "resnet", "--format", "asm", "--chip", "tpuv4i",
         "--batch", "1"],
        ["migrate", "--app", "lstm", "--source", "tpuv3",
         "--target", "tpuv4i"],
    ], ids=["evaluate", "compare", "profile", "dump", "migrate"])
    def test_aliases_and_any_case(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_alias_names_the_canonical_app(self, capsys):
        assert main(["evaluate", "--app", "resnet50", "--chip", "TPUV4I",
                     "--batch", "1"]) == 0
        assert capsys.readouterr().out.startswith(
            "cnn0 on TPUv4i (batch 1):")

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--app", "cnn0", "--chip", "TPUv9"],
        ["profile", "--app", "cnn0", "--chip", "TPUv9"],
        ["dump", "--app", "cnn0", "--format", "asm", "--chip", "TPUv9"],
        ["migrate", "--app", "cnn0", "--source", "TPUv9",
         "--target", "TPUv4i"],
        ["migrate", "--app", "cnn0", "--source", "TPUv3",
         "--target", "TPUv9"],
    ], ids=["evaluate", "profile", "dump", "migrate-source",
            "migrate-target"])
    def test_unknown_chip_exits_2_with_canonical_message(self, argv,
                                                         capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown chip 'TPUv9'; known: TPUv1, TPUv2, TPUv3, TPUv4i" \
            in err

    @pytest.mark.parametrize("command", [
        ["evaluate"], ["compare"], ["profile"], ["dump"],
        ["migrate", "--source", "TPUv3", "--target", "TPUv4i"],
    ], ids=["evaluate", "compare", "profile", "dump", "migrate"])
    def test_unknown_app_exits_2_with_canonical_message(self, command,
                                                        capsys):
        assert main([command[0], "--app", "gpt5", *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown app 'gpt5'; known: bert0," in err
        assert "aliases: bert, lstm, resnet, resnet50" in err


class TestDump:
    def test_dump_hlo(self, capsys):
        assert main(["dump", "--app", "cnn0", "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hlo_module cnn0")
        assert "conv2d" in out

    def test_dump_asm(self, capsys):
        assert main(["dump", "--app", "cnn0", "--batch", "1",
                     "--format", "asm"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(".program cnn0 gen 4")
        assert "mxm" in out

    def test_dump_hlo_lists_every_instruction(self, capsys):
        from repro.workloads import app_by_name

        main(["dump", "--app", "rnn0", "--batch", "1"])
        lines = capsys.readouterr().out.splitlines()
        module = app_by_name("rnn0").build(1)
        assert lines[0] == "hlo_module rnn0 {"
        body = lines[1:-2]
        assert len(body) == len(module.instructions)
        for line, inst in zip(body, module.instructions):
            assert line.startswith(f"  %{inst.uid} = {inst.opcode}(")
            assert f": {inst.shape}" in line
        assert lines[-2:] == [f"  root %{module.root.uid}", "}"]

    def test_dump_asm_matches_disassembly(self, capsys):
        from repro.arch import TPUV4I
        from repro.compiler import compile_model
        from repro.isa import disassemble
        from repro.workloads import app_by_name

        main(["dump", "--app", "cnn0", "--batch", "1", "--format", "asm"])
        module = app_by_name("cnn0").build(1)
        assert capsys.readouterr().out == disassemble(
            compile_model(module, TPUV4I).program)

    def test_dump_asm_tpuv1_compiles_int8(self, capsys):
        from repro.arch import TPUV1
        from repro.compiler import compile_model
        from repro.compiler.pipeline import retarget_dtype
        from repro.isa import disassemble
        from repro.workloads import app_by_name

        assert main(["dump", "--app", "cnn0", "--batch", "1",
                     "--format", "asm", "--chip", "TPUv1"]) == 0
        module = retarget_dtype(app_by_name("cnn0").build(1), "int8")
        assert capsys.readouterr().out == disassemble(
            compile_model(module, TPUV1).program)


class TestNativeDtype:
    """TPUv1 has no bf16: every chip-taking command runs it in int8."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--app", "cnn0", "--chip", "TPUv1"],
        ["profile", "--app", "cnn0", "--chip", "tpuv1", "--top", "2"],
        ["metrics", "--app", "cnn0", "--chip", "TPUv1",
         "--duration", "0.05"],
        ["migrate", "--app", "cnn0", "--source", "TPUv1"],
    ])
    def test_tpuv1_commands_succeed(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_evaluate_tpuv1_reports_the_int8_evaluation(self, capsys):
        from repro.arch import TPUV1
        from repro.core.design_point import shared_design_point
        from repro.workloads import app_by_name

        main(["evaluate", "--app", "cnn0", "--chip", "TPUv1"])
        evaluation = shared_design_point(TPUV1).evaluate(
            app_by_name("cnn0"), dtype="int8")
        assert (f"latency:   {evaluation.latency_s * 1e3:.3f} ms"
                in capsys.readouterr().out)

    def test_compare_labels_the_tpuv1_row(self, capsys):
        assert main(["compare", "--app", "cnn0"]) == 0
        rows = [line.split("|")[0].strip()
                for line in capsys.readouterr().out.splitlines()[3:]]
        assert rows == ["TPUv1 (int8)", "TPUv2", "TPUv3", "TPUv4i"]


class TestProfile:
    def test_profile_command(self, capsys):
        assert main(["profile", "--app", "cnn0", "--batch", "2",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "split:" in out
        assert "simulated latency" in out


class TestTraceCommand:
    def test_trace_writes_deterministic_json(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["trace", "mlp0", "TPUv4i", "--batch", "2",
                     "--out", str(first)]) == 0
        assert main(["trace", "mlp0", "TPUv4i", "--batch", "2",
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["otherData"]["truncated"] is False
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        out = capsys.readouterr().out
        assert "mxu busy" in out

    def test_trace_accepts_aliases(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["trace", "resnet50", "tpuv4i", "--batch", "1",
                     "--no-serve", "--out", str(out_path)]) == 0
        assert "cnn0 on TPUv4i" in capsys.readouterr().out

    def test_trace_unknown_app_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "gpt5", "TPUv4i",
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown app" in err and "resnet50" in err


class TestMetricsCommand:
    def test_metrics_reports_tiers_and_counters(self, capsys):
        assert main(["metrics", "--app", "mlp0", "--batch", "2",
                     "--duration", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "wall-time tiers" in out
        assert "serving.requests_served" in out
        assert "tier.compile_s" in out

    def test_metrics_leaves_registry_disabled(self):
        from repro.obs import metrics as global_metrics

        main(["metrics", "--app", "mlp0", "--batch", "2",
              "--duration", "0.02"])
        assert not global_metrics().enabled


class TestFaultsCommand:
    def test_faults_reports_lost_capacity_column(self, capsys):
        assert main(["faults", "--seed", "1", "--duration", "0.2",
                     "--apps", "cnn0"]) == 0
        out = capsys.readouterr().out
        assert "capacity down %" in out
        assert "p99 faulted" in out
        assert "TPUv4i" in out

    def test_faults_rejects_bad_duration(self, capsys):
        assert main(["faults", "--duration", "-1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_runs_and_reports_columns(self, capsys):
        assert main(["cluster", "--seed", "3", "--duration", "0.1",
                     "--apps", "cnn0"]) == 0
        out = capsys.readouterr().out
        for column in ("scenario", "policy", "avail %", "shed %",
                       "p99 ms", "hedged", "ejected", "failover",
                       "degraded s"):
            assert column in out
        for scenario in ("faultless", "kill-1", "chip-outages",
                         "slowdowns", "overload"):
            assert scenario in out
        assert "resilient" in out and "static" in out

    def test_cluster_output_byte_identical_across_runs(self, capsys):
        args = ["cluster", "--seed", "3", "--duration", "0.1",
                "--apps", "cnn0"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cluster_rejects_bad_replicas(self, capsys):
        assert main(["cluster", "--replicas", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEngineCommand:
    def test_stats_prints_only_the_cache_line(self, tmp_path, capsys):
        from repro.arch import TPUV4I
        from repro.core.design_point import DesignPoint
        from repro.engine.cache import EvalCache, get_cache, set_cache
        from repro.workloads import app_by_name

        DesignPoint(TPUV4I, cache=EvalCache(disk_dir=tmp_path)).evaluate(
            app_by_name("mlp0"), 1)
        previous = get_cache()
        try:
            assert main(["engine", "stats", "--dir", str(tmp_path)]) == 0
        finally:
            set_cache(previous)
        lines = capsys.readouterr().out.splitlines()
        # One line, read from the packs another cache wrote; no
        # per-process counters that a fresh process always reports as 0.
        assert len(lines) == 1
        assert lines[0].startswith("EvalCache (enabled)")
        assert re.search(r"disk [1-9][0-9]* entries", lines[0])
        assert "quarantined" not in lines[0]


class TestNonFiniteDuration:
    """Regression: a NaN or infinite duration used to hang the sweeps."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["cluster"], ["faults"], ["pod"],
                                         ["llm"], ["llm", "--faults"]],
                             ids=" ".join)
    def test_cli_exits_with_error(self, command, value, capsys):
        assert main([*command, "--duration", value]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and value in err

    def test_sweeps_name_the_value(self):
        from repro.cluster import chaos_sweep
        from repro.faults import FaultModel, fault_sweep
        from repro.pod.sweep import pod_chaos_sweep
        from repro.serving.continuous import llm_chaos_sweep, llm_sweep

        for sweep in (chaos_sweep, pod_chaos_sweep, llm_sweep,
                      llm_chaos_sweep,
                      lambda **kw: fault_sweep(FaultModel(), **kw)):
            for value in (float("nan"), float("inf"), -1.0):
                with pytest.raises(ValueError, match="duration .*finite"):
                    sweep(duration_s=value)


class TestPodCommand:
    def test_pod_runs_and_reports_columns(self, capsys):
        assert main(["pod", "--seed", "3", "--duration", "0.1",
                     "--apps", "cnn0"]) == 0
        out = capsys.readouterr().out
        for column in ("topology", "scenario", "policy", "avail %",
                       "p99 ms", "ejected", "failover"):
            assert column in out
        for scenario in ("faultless", "kill-1-link", "kill-1-chip",
                         "ocs-reconfig-race", "link-slowdown"):
            assert scenario in out
        assert "torus" in out and "ocs" in out

    def test_pod_output_byte_identical_across_runs(self, capsys):
        args = ["pod", "--seed", "3", "--duration", "0.1",
                "--apps", "cnn0"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_pod_rejects_bad_arguments(self, capsys):
        assert main(["pod", "--slices", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["pod", "--slice-chips", "1"]) == 2
        assert "error:" in capsys.readouterr().err
