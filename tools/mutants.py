"""Mutation gate: every listed mutant must be killed by its named test.

Usage (from the repository root)::

    python tools/mutants.py               # run every mutant
    python tools/mutants.py --only M5 P1  # run the named mutants

The mutants are listed in ``tools/mutants.json``. Each entry has an
``id``, a repo-relative ``file``, the ``old`` text (a list of lines that
must occur exactly once in that file), the ``new`` text that replaces it,
the mutant's ``meaning`` and its ``killer``, a pytest node id. Entries
under ``equivalent`` are mutants known to change no result; they carry
a ``reason`` and are not run, but their ``old`` text must still match.

Each mutant runs in a fresh temporary directory holding copies of
``src/`` and ``tests/`` (every other top-level entry is linked, so the
tests find ``examples/`` and the pytest settings): the mutant is
applied there and its killer is run. A mutant is killed when the killer
fails. Before any mutant runs, every killer runs once on an unmutated
copy and must pass there, so a killer that was deleted, renamed or
broken fails the job and names its mutants instead of counting as a
kill. The exit status is 0 only when every mutant is killed.

Standard library only; one pytest process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "mutants.json"
COPIED = ("src", "tests")
SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
           ".repro_cache", ".perfbench_work"}
TIMEOUT_S = 900


def _text(lines: List[str]) -> str:
    return "\n".join(lines)


def _check_entry(entry: dict) -> None:
    """Exit if ``entry``'s old text does not occur exactly once."""
    count = (ROOT / entry["file"]).read_text().count(_text(entry["old"]))
    if count != 1:
        raise SystemExit(f"{entry['id']}: the old text occurs {count} times "
                         f"in {entry['file']}, not once")


def _workspace() -> Path:
    """A temporary tree: copies of src/ and tests/, links to the rest."""
    work = Path(tempfile.mkdtemp(prefix="mutants-"))
    ignore = shutil.ignore_patterns(*SKIPPED)
    for entry in ROOT.iterdir():
        if entry.name in SKIPPED:
            continue
        if entry.name in COPIED:
            shutil.copytree(entry, work / entry.name, ignore=ignore)
        else:
            (work / entry.name).symlink_to(entry)
    return work


def _pytest(work: Path, node_ids: List[str]) -> int:
    """pytest's exit status for ``node_ids`` in ``work`` (a timeout is
    reported as status -1)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(work / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *node_ids], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def _run_in_workspace(node_ids: List[str],
                      mutant: Optional[dict] = None) -> int:
    """pytest's status for ``node_ids`` in a fresh workspace, with
    ``mutant`` applied when given."""
    work = _workspace()
    try:
        if mutant is not None:
            target = work / mutant["file"]
            text = target.read_text()
            target.write_text(text.replace(_text(mutant["old"]),
                                           _text(mutant["new"])))
        return _pytest(work, node_ids)
    finally:
        shutil.rmtree(work)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="+", metavar="ID",
                        help="run only these mutants")
    args = parser.parse_args(argv)

    table = json.loads(TABLE.read_text())
    mutants = table["mutants"]
    ids = [m["id"] for m in mutants + table["equivalent"]]
    if len(set(ids)) != len(ids):
        raise SystemExit("mutant ids must be unique")
    if args.only:
        unknown = set(args.only) - set(ids)
        if unknown:
            raise SystemExit(f"unknown mutant ids: {sorted(unknown)}")
        mutants = [m for m in mutants if m["id"] in args.only]
    for entry in mutants + table["equivalent"]:
        _check_entry(entry)
    for entry in table["equivalent"]:
        print(f"{entry['id']}: equivalent, not run ({entry['reason']})")

    failed: List[str] = []
    # Every killer passes on the unmutated tree; one run for all of them,
    # then one per killer only to name the ones that do not.
    killers: Dict[str, List[str]] = {}
    for mutant in mutants:
        killers.setdefault(mutant["killer"], []).append(mutant["id"])
    if killers and _run_in_workspace(list(killers)) != 0:
        for killer, owners in killers.items():
            status = _run_in_workspace([killer])
            if status != 0:
                for owner in owners:
                    failed.append(owner)
                    print(f"{owner}: FAILED: its killer {killer} does not "
                          f"pass on the unmutated tree (pytest status "
                          f"{status}; status 4 or 5: no such test)")

    for mutant in mutants:
        if mutant["id"] in failed:
            continue
        status = _run_in_workspace([mutant["killer"]], mutant)
        if status == 1 or status == -1:
            how = "timed out" if status == -1 else "failed"
            print(f"{mutant['id']}: killed ({mutant['killer']} {how})")
        else:
            failed.append(mutant["id"])
            print(f"{mutant['id']}: SURVIVED: {mutant['meaning']}; "
                  f"{mutant['killer']} gave pytest status {status}")

    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed")
    if failed:
        print(f"not killed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
