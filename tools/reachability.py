"""Fail on functions under src/repro that no user-facing entry point calls.

Runs every CLI subcommand (once per ``choices=`` value of each option,
once per chip generation where it takes ``--chip``, and ``evaluate
--chip-file``), the examples, the perfbench workloads and the paper
benches under ``sys.setprofile``, then prints each function whose code
never ran. It discards the entry points' own output. Benches run with
``--benchmark-disable``, since ``benchmark.pedantic`` hides their calls
from the profiler; they rewrite ``benchmarks/artifacts`` as any bench
run does.

``tools/reachability_allow.txt`` lists the unreached functions that
stay, one ``path qualname  # reason`` line each. The run exits non-zero
if an entry point fails, if an unreached function is not listed, or if a
listed one is now reached or no longer exists.

    PYTHONPATH=src python tools/reachability.py
"""

import ast
import contextlib
import os
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
ALLOW = ROOT / "tools" / "reachability_allow.txt"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions(node, path, prefix=""):
    """(file, first line, qualname, lines) of every def below ``node``."""
    for child in ast.iter_child_nodes(node):
        name = prefix + getattr(child, "name", "")
        if isinstance(child, DEFS):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            yield path, first, name, child.end_lineno - child.lineno + 1
        if isinstance(child, DEFS + (ast.ClassDef,)):
            yield from functions(child, path, name + ".")


def allowed():
    """The ``(path, qualname)`` pairs ``ALLOW`` keeps, each with a reason."""
    entries = set()
    for number, line in enumerate(ALLOW.read_text().splitlines(), 1):
        entry, _, reason = line.partition("#")
        if not entry.strip():
            continue
        path, qualname = entry.split()
        if not reason.strip() or (path, qualname) in entries:
            sys.exit(f"{ALLOW.name}:{number}: {path} {qualname} "
                     f"has no reason or is listed twice")
        entries.add((path, qualname))
    return entries


def cli_runs(tmp):
    from repro.arch.chip import GENERATIONS, TPUV4I
    from repro.arch.config_io import save_chip
    from repro.cli import build_parser

    chip_file = str(save_chip(TPUV4I, tmp / "chip.json"))
    base = {  # the first argv of each command is the one varied below
        "chips": [[]], "apps": [[]], "engine": [[]],
        "evaluate": [["--app", "cnn0"], ["--app", "bert0",
                                         "--chip-file", chip_file]],
        "compare": [["--app", "cnn0"]],
        "profile": [["--app", "cnn0", "--top", "5"]],
        "dump": [["--app", "cnn0", "--format", "asm"],
                 ["--app", "cnn0", "--batch", "1"]],
        "migrate": [["--app", "cnn0"]],
        "faults": [["--duration", "0.2", "--apps", "cnn0"]],
        "cluster": [["--duration", "0.2"]], "pod": [["--duration", "0.2"]],
        "llm": [["--duration", "0.2"], ["--faults", "--duration", "0.2"]],
        "trace": [["cnn0", "tpuv4i", "--out", str(tmp / "trace.json")]],
        "metrics": [["--utilization", "0.5"]],
    }
    commands = build_parser()._subparsers._group_actions[0].choices
    for name, parser in commands.items():
        yield from ([name] + argv for argv in base[name])
        for action in parser._actions:
            flag = action.option_strings[-1:]
            for value in action.choices or ():
                yield [name] + base[name][0] + flag + [value]
            if "--chip" in action.option_strings:
                for chip in GENERATIONS:
                    yield [name] + base[name][0] + ["--chip", chip.name]


def main():
    keep = allowed()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pytest
    from perfbench.workloads import WORKLOADS
    from repro.cli import main as cli

    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            tempfile.TemporaryDirectory() as tmp:
        for argv in cli_runs(pathlib.Path(tmp)):
            if cli(argv) != 0:
                sys.exit(f"repro {' '.join(argv)} failed")
        for example in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
        for workload in WORKLOADS.values():
            workload.make_call(0)()
        if pytest.main([str(ROOT / "benchmarks"), "-p", "no:cacheprovider",
                        "--benchmark-disable"]) != 0:
            sys.exit("benchmarks failed")
    sys.setprofile(None)
    threading.setprofile(None)

    defs = [d for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for d in functions(ast.parse(path.read_text()), str(path))]
    missed = [d for d in defs if d[:2] not in seen]
    unlisted = []
    for path, line, name, _ in missed:
        where = str(pathlib.Path(path).relative_to(ROOT))
        print(f"{where}:{line} {name}")
        if (where, name) in keep:
            keep.remove((where, name))
        else:
            unlisted.append(f"{where}:{line} {name}")
    print(f"unreached: {len(missed)} of {len(defs)} functions, "
          f"{sum(d[3] for d in missed)} of {sum(d[3] for d in defs)} lines")
    failures = [f"unreached and not in {ALLOW.name}: {entry}"
                for entry in unlisted]
    failures += [f"in {ALLOW.name} but reached or gone: {path} {name}"
                 for path, name in sorted(keep)]
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
