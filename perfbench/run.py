#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dse --seed 0 --seconds 30 --trace 0

``--trace 0`` times the end-to-end metrics: every sample runs in a fresh
interpreter with every ``REPRO_*`` variable scrubbed and a private cache
directory, and rounds of (cold + warm, disk-cold, disk-warm) samples
repeat until ``--seconds`` is used up. Each time metric is the mean of
its samples in the run, reported at the reference host speed: scaled by
``REFERENCE_SPIN_S`` over the mean time of the drift probe, which every
sample runs before and after each call (README.md, "Host noise").
``--trace 1`` instead runs the traced rounds and prints the per-layer
metrics (see ``tracer.py``).

Every sample's sweep rows are hashed and compared with ``golden.json``; a
mismatch or an exception is a failed operation. Human-readable lines go
first, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Per-sample
details, the probe times and the raw medians go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import workloads as wl  # noqa: E402
from perfbench.tracer import COUNTS  # noqa: E402

END_TO_END = {"setup_s": "s", "cold_s": "s", "disk_cold_s": "s",
              "warm_s": "s", "disk_warm_s": "s", "peak_rss_mb": "MiB"}

#: Phases of a traced round; the cold phase's metrics are unprefixed.
PHASES = ("cold", "warm", "disk_cold", "disk_warm")

#: Per-layer names reported for the disk-cold phase (the cold phase
#: reports every metric :func:`tracer.phase_metrics` has).
PHASE_SUBSET = (
    "workloads.build.calls", "compiler.calls", "gridkernel.calls",
    "cache.get.calls", "cache.hits", "cache.disk_hits", "cache.misses",
    "cache.put.calls", "workloads.build.s", "workloads.traffic.s",
    "compiler.s", "sim.lower.s", "sim.replay.s", "gridkernel.s",
    "cache.get.s", "cache.put.s", "engine.grid.s", "engine.keys.s",
    "faults.schedule.s", "cluster.simulate.s", "fastserve.replay.s",
    "continuous.simulate.s", "continuous.tables.s", "other.s", "wall.s",
)

#: Times of work a phase with full caches must not do; the warm and
#: disk-warm phases report the matching counts instead.
NOT_WARM = ("workloads.build.s", "compiler.s", "sim.lower.s", "gridkernel.s",
            "cache.put.s")


def phase_subset(phase: str) -> tuple:
    if phase in ("warm", "disk_warm"):
        return tuple(n for n in PHASE_SUBSET if n not in NOT_WARM)
    return PHASE_SUBSET


#: The drift probe's time (``child.spin_s``) on an uncontended vCPU of
#: the 2-vCPU Xeon VM the benchmark was tuned on. Time metrics are
#: reported at this host speed; see README.md, "Host noise".
REFERENCE_SPIN_S = 0.0135

#: Traced cold wall time that no span may leave uncovered.
MAX_OTHER_SHARE = 0.05

#: A run never starts a round that could end after this many seconds.
HARD_LIMIT_S = 150.0

CHILD_TIMEOUT_S = 120.0


def per_layer_names() -> List[str]:
    from perfbench.tracer import LAYERS
    cold = list(COUNTS) + [f"{layer}.s" for layer in LAYERS] + [
        "cache.hit_ratio", "continuous.goodput_fraction", "other.s", "wall.s",
        "trace.overhead_s"]
    rest = [f"{phase}.{name}" for phase in PHASES[1:]
            for name in phase_subset(phase)]
    return cold + rest


def per_layer_units() -> Dict[str, str]:
    return {name: ("count" if count_metric(name) else
                   "ratio" if name.endswith(("ratio", "fraction")) else "s")
            for name in per_layer_names()}


def count_metric(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly between runs."""
    base = name.split(".", 1)[1] if name.startswith(tuple(
        p + "." for p in PHASES[1:])) else name
    return base in COUNTS


# ------------------------------------------------------------------ samples

class Bench:
    """One run: child processes, private cache dirs, collected samples."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int,
                 golden: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._dirs = 0

    def env(self, cache_dir: Optional[Path]) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"cache{self._dirs}"
        path.mkdir(parents=True)
        return path

    def child(self, mode: str, *, warm: int = 0, trace: bool = False,
              preimport: bool = False, cache_dir: Optional[Path] = None,
              spans: Optional[Path] = None) -> Optional[dict]:
        """Run one sample process; None (and failures counted) on error."""
        args = [f"workload={self.workload.name}",
                f"entry={self.workload.entry_module}", f"seed={self.seed}",
                f"mode={mode}", f"warm={warm}", f"trace={int(trace)}",
                f"preimport={int(preimport)}"]
        if spans is not None:
            args.append(f"spans={spans}")
        calls = 0 if mode == "prime" else 1 + warm
        self.attempted += calls
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.child", *args],
                cwd=self.root, env=self.env(cache_dir), capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(calls, f"{mode}: timed out")
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            return self._fail(calls, f"{mode}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return self.accept(mode, out, calls)

    def accept(self, mode: str, out: dict, calls: int) -> Optional[dict]:
        """Check one sample's output: every sweep call's rows must hash
        to the golden digest; an error fails every call of the sample."""
        if "error" in out:
            return self._fail(calls, f"{mode}: {out['error']}")
        bad = calls - sum(d == self.golden for d in out.get("digests", []))
        if bad:
            self.failed += bad
            self.problems.append(f"{mode}: {bad} row digest(s) differ from "
                                 f"golden {self.golden[:12]}")
        log(f"{mode:9s} setup {out['setup_s']:.4f}s"
            + (f" first {out['first_s']:.4f}s" if "first_s" in out else "")
            + (" warm " + " ".join(f"{w:.4f}" for w in out["warm_s"]) + "s"
               if out.get("warm_s") else "")
            + (" spin " + " ".join(f"{1e3 * s:.1f}" for s in out["spins"])
               + "ms" if out.get("spins") else ""))
        return out

    def _fail(self, calls: int, message: str) -> None:
        self.failed += calls
        self.problems.append(message)
        log("FAILED " + message)
        return None

    def check(self, ok: bool, message: str) -> None:
        """A sanity check: one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
            log("CHECK FAILED " + message)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def rounds(seconds: float, run_round, min_rounds: int) -> int:
    """Run rounds while the next one would end nearer to ``seconds``
    than this one did (by the mean round time so far)."""
    start = time.monotonic()
    done = 0
    while True:
        run_round()
        done += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / done
        if done >= min_rounds and elapsed + per_round / 2 > seconds:
            return done
        if elapsed + per_round > HARD_LIMIT_S:
            return done


# --------------------------------------------------------------- timed run

def timed_run(bench: Bench, seconds: float) -> Dict[str, float]:
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    spins: List[float] = []

    def take(out: Optional[dict], metric: str) -> None:
        if out is None:
            return
        spins.extend(out["spins"])
        samples["setup_s"].append(out["setup_s"])
        samples[metric].append(out["first_s"])
        if metric == "cold_s":
            samples["peak_rss_mb"].append(out["peak_rss_mb"])
            samples["warm_s"].extend(out["warm_s"])

    def one_round() -> None:
        take(bench.child("cold", warm=bench.workload.warm_reps), "cold_s")
        cache_dir = bench.fresh_dir()
        take(bench.child("disk_cold", cache_dir=cache_dir), "disk_cold_s")
        take(bench.child("disk_warm", cache_dir=cache_dir), "disk_warm_s")
        shutil.rmtree(cache_dir, ignore_errors=True)

    n = rounds(seconds, one_round, min_rounds=2)
    if not spins:
        return {}
    speed = REFERENCE_SPIN_S / statistics.fmean(spins)
    log(f"{n} rounds; {len(spins)} spins, mean {1e3 * statistics.fmean(spins):.2f}"
        f" ms, host speed factor {speed:.4f}")
    result = {}
    for name, values in samples.items():
        if not values:
            continue
        if name == "peak_rss_mb":
            result[name] = median(values)
            continue
        result[name] = statistics.fmean(values) * speed
        log(f"  {name}: {len(values)} samples, raw median {median(values):.4f}"
            f" s, raw mean {statistics.fmean(values):.4f} s, reported "
            f"{result[name]:.4f} s")
    return result


# -------------------------------------------------------------- traced run

def traced_run(bench: Bench, seconds: float,
               spans_out: Optional[Path]) -> Dict[str, float]:
    traced: List[Dict[str, Dict[str, float]]] = []
    untraced: List[float] = []

    def one_round() -> None:
        phases: Dict[str, Dict[str, float]] = {}
        unwrapped: List[str] = []
        spans = spans_out if not traced else None
        cold = bench.child("cold", warm=1, trace=True, spans=spans)
        cache_dir = bench.fresh_dir()
        disk_cold = bench.child("disk_cold", trace=True, cache_dir=cache_dir)
        disk_warm = bench.child("disk_warm", trace=True, cache_dir=cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        plain = bench.child("cold", preimport=True)
        for out in (cold, disk_cold, disk_warm):
            if out is not None:
                phases.update(out["phases"])
                unwrapped += out["unwrapped"]
        bench.check(not unwrapped,
                    f"unwrapped bindings of traced functions: {unwrapped}")
        if plain is not None:
            untraced.append(plain["first_s"])
        if len(phases) == len(PHASES):
            traced.append(phases)

    n = rounds(seconds, one_round, min_rounds=2)
    log(f"{n} traced rounds, {len(traced)} complete")
    if not traced:
        return {}
    names = per_layer_names()
    first = flatten(traced[0])
    for other in traced[1:]:
        flat = flatten(other)
        differ = [name for name in names
                  if count_metric(name) and flat.get(name) != first.get(name)]
        bench.check(not differ, f"counts differ between traced rounds: {differ}")

    phases = traced[0]
    for phase in ("cold", "disk_cold"):
        bench.check(phases[phase]["cache.disk_hits"] == 0,
                    f"{phase}: cache.disk_hits is "
                    f"{phases[phase]['cache.disk_hits']}, expected 0")
    for phase in PHASES:
        m = phases[phase]
        bench.check(m["cache.get.calls"] == m["cache.hits"]
                    + m["cache.disk_hits"] + m["cache.misses"],
                    f"{phase}: cache gets do not add up to hits + misses")
    if bench.workload.name == "dse":
        m = phases["disk_warm"]
        bench.check(m["compiler.calls"] == 0 and m["cache.misses"] == 0,
                    f"dse disk_warm: compiler.calls {m['compiler.calls']}, "
                    f"cache.misses {m['cache.misses']}, expected 0 and 0")

    result = {}
    for name in names:
        if name == "trace.overhead_s":
            continue
        values = [flatten(phases)[name] for phases in traced]
        result[name] = values[0] if count_metric(name) else median(values)
    if untraced:
        result["trace.overhead_s"] = median(
            [p["cold"]["wall.s"] for p in traced]) - median(untraced)
    share = result["other.s"] / result["wall.s"]
    bench.check(share <= MAX_OTHER_SHARE,
                f"other.s is {share:.1%} of the traced cold wall time, "
                f"above {MAX_OTHER_SHARE:.0%}")
    return result


def flatten(phases: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    flat = dict(phases["cold"])
    for phase in PHASES[1:]:
        for name in phase_subset(phase):
            flat[f"{phase}.{name}"] = phases[phase][name]
    return flat


# -------------------------------------------------------------------- main

def load_golden(workload: str, seed: int) -> str:
    table = json.loads((HERE / "golden.json").read_text())
    return table[workload][wl.input_seed(seed)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="traced runs: write the first round's cold and "
                             "warm spans here as Chrome trace events")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        log(f"error: {root} has no src/repro; run from the repository root")
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = wl.WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed,
                  load_golden(args.workload, args.seed))
    units = END_TO_END
    try:
        bench.child("prime")
        if args.trace:
            metrics = traced_run(bench, args.seconds, args.spans_out)
            units = per_layer_units()
        else:
            metrics = timed_run(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    missing = [name for name in units if name not in metrics]
    if missing:
        log(f"error: no samples for {missing}: " + "; ".join(bench.problems))
        return 1
    for problem in bench.problems:
        log("problem: " + problem)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"{args.workload} failed/attempted: "
          f"{bench.failed}/{bench.attempted}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
