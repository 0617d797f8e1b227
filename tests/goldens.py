"""Checked-in output digests (``tests/golden/*.json``) and how to rebuild them.

Each suite maps case names to a value the library computes — a stats
dataclass or a list of sweep rows — and the golden file stores every
case's :func:`~repro.engine.keys.fingerprint`: SHA-256 over its
canonical JSON, where floats keep their shortest round-trip ``repr``,
so two runs agree bit for bit or not at all. ``tests/test_goldens.py``
recomputes every case and compares.

Regenerate, from the checkout root, only when a change is *meant* to
alter outputs::

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict

from repro.arch import GENERATIONS, TPUV1, TPUV3, TPUV4I
from repro.cli import main as cli_main
from repro.cluster import chaos_sweep
from repro.compiler.versions import RELEASES
from repro.core.design_point import DesignPoint, shared_design_point
from repro.core.dse import DEFAULT_DSE_APPS, enumerate_candidates
from repro.engine import EvalCache, GridJob, chip_fingerprint, \
    compile_chip_fingerprint, compiler_fingerprint, fingerprint, run_grid
from repro.faults import fault_sweep, latency_table
from repro.faults.model import FaultModel, FaultSchedule
from repro.pod import pod_chaos_sweep
from repro.serving import BatchPolicy, ContinuousBatchingSimulator, \
    RecoveryPolicy, llm_chaos_sweep, llm_sweep, phase_latency_table
from repro.util.units import MIB
from repro.workloads import GenRequest, app_by_name, generative_by_name, \
    sample_gen_requests

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# ----------------------------------------------------- continuous batching

def _synthetic_sim(chip, *, slots=None, max_decode_len=None, recovery=None):
    """A continuous-batching simulator with synthetic step latencies.

    Every (phase, bucket, padded batch) gets its own non-dyadic
    latency, so a run that picks the wrong bucket or batch, or sums
    step times in a different order, changes the digest.
    """
    spec = generative_by_name("llm0")
    sim = ContinuousBatchingSimulator(
        shared_design_point(chip), spec, slots=slots,
        max_decode_len=max_decode_len, recovery=recovery)
    table = {}
    for bucket in spec.prompt_buckets:
        table[("prefill", bucket, 1)] = 0.0031 + 1.7e-5 * bucket
    for bucket in spec.kv_buckets:
        for step in BatchPolicy.batch_steps(sim.slots):
            table[("decode", bucket, step)] = (
                7.1e-4 + 1.3e-4 * step + 3.1e-6 * bucket)
            table[("snapshot", bucket, step)] = (
                2.9e-4 + 4.3e-5 * step + 1.1e-6 * bucket)
    sim.seed_latencies(table)
    return sim


def _completions(start: float, latency: float, steps: int) -> float:
    """``start`` plus ``steps`` sequential additions of ``latency``.

    The engine loop advances its clock the same way, so the result is
    bit-for-bit the completion time of the last of those steps.
    """
    t = start
    for _ in range(steps):
        t += latency
    return t


def continuous_cases() -> Dict[str, Callable[[], Any]]:
    """Edge cases of the continuous-batching loop, one thunk per case."""
    spec = generative_by_name("llm0")
    stream = sample_gen_requests(spec, seed=11, rate_qps=250.0,
                                 duration_s=0.3)
    wide = sample_gen_requests(spec, seed=5, rate_qps=500.0, duration_s=0.3)
    end = stream[-1].arrival_s + 1.0
    ckpt4 = RecoveryPolicy(checkpoint_every=4)
    ckpt8 = RecoveryPolicy(checkpoint_every=8)
    no_migrate = RecoveryPolicy(checkpoint_every=8, migrate=False)
    kills = FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.01,
                       retry_budget=4)

    # A burst of three 20-token prompts at t=0 on one core: three
    # prefills back to back, then decode steps at padded batch 4 (the
    # 64-token prompt and 128-token KV buckets). Its step completions
    # are known exactly, so faults can land on them.
    burst = [GenRequest(0.0, 20, 30), GenRequest(0.0, 20, 12),
             GenRequest(0.0, 20, 40)]
    prefill = 0.0031 + 1.7e-5 * 64
    decode4 = 7.1e-4 + 1.3e-4 * 4 + 3.1e-6 * 128
    prefilled = _completions(0.0, prefill, 3)
    fifth = _completions(prefilled, decode4, 5)
    slow_stop = _completions(fifth, decode4 * 3.0, 4)
    # One request alone decodes at padded batch 1.
    decode1 = 7.1e-4 + 1.3e-4 * 1 + 3.1e-6 * 128
    fifth_alone = _completions(prefill, decode1, 5)

    def run(chip=TPUV4I, requests=stream, faults=None, schedule=None,
            **kwargs):
        return lambda: _synthetic_sim(chip, **kwargs).simulate(
            requests, faults=faults, schedule=schedule)

    def one_core(down=(), slowdowns=()):
        return FaultSchedule(1, end, down=down, slowdowns=slowdowns)

    return {
        "faultless": run(),
        "faultless_ckpt4": run(recovery=ckpt4),
        "faultless_two_cores": run(chip=TPUV3, requests=wide),
        "slowdowns_mid_run": run(schedule=one_core(slowdowns=(
            (0, 0.05, 0.09, 2.5), (0, 0.12, 0.125, 1.5),
            (0, 0.2, 0.26, 3.0), (0, 0.22, 0.3, 1.25)))),
        "slowdowns_mid_run_ckpt4": run(recovery=ckpt4, schedule=one_core(
            slowdowns=((0, 0.05, 0.09, 2.5), (0, 0.2, 0.26, 3.0)))),
        "slowdown_at_completions": run(requests=burst, schedule=one_core(
            slowdowns=((0, fifth, slow_stop, 3.0),))),
        "slowdown_from_zero": run(schedule=one_core(
            slowdowns=((0, 0.0, 0.1, 2.0),))),
        "abutting_outages": run(schedule=one_core(
            down=((0, 0.1, 0.13), (0, 0.13, 0.15)))),
        "abutting_outages_ckpt4": run(recovery=ckpt4, schedule=one_core(
            down=((0, 0.1, 0.13), (0, 0.13, 0.15)))),
        "outage_at_completion": run(requests=burst, schedule=one_core(
            down=((0, fifth, fifth + 0.004),))),
        # The first outage cuts no step; the step after it starts
        # inside the second one and must not repeat.
        "abutting_outages_at_completion": run(
            requests=burst, schedule=one_core(down=(
                (0, fifth, fifth + 0.004), (0, fifth + 0.004, fifth + 0.008)))),
        "outage_at_completion_ckpt4": run(
            requests=burst, recovery=ckpt4,
            schedule=one_core(down=((0, fifth, fifth + 0.004),))),
        "arrival_at_completion": run(
            requests=burst[:1] + [GenRequest(fifth_alone, 30, 9)], slots=2),
        "death_at_zero": run(schedule=one_core(down=((0, 0.0, math.inf),))),
        "death_at_zero_migrate": run(
            chip=TPUV3, requests=wide, recovery=ckpt8,
            schedule=FaultSchedule(2, end, down=((0, 0.0, math.inf),))),
        "death_permanent_migrate": run(
            chip=TPUV3, requests=wide, recovery=ckpt8,
            schedule=FaultSchedule(2, end, down=((1, 0.1, math.inf),))),
        "death_permanent_no_migrate": run(
            chip=TPUV3, requests=wide, recovery=no_migrate,
            schedule=FaultSchedule(2, end, down=((1, 0.1, math.inf),))),
        "death_permanent_no_policy": run(
            chip=TPUV3, requests=wide,
            schedule=FaultSchedule(2, end, down=((1, 0.1, math.inf),))),
        "kills": run(faults=kills),
        "kills_ckpt8": run(faults=kills, recovery=ckpt8),
        "kills_slowdowns_two_cores": run(
            chip=TPUV3, requests=wide, recovery=ckpt8,
            faults=FaultModel(seed=3, core_mtbf_s=0.08, core_repair_s=0.02,
                              slowdown_mtbf_s=0.04, slowdown_s=0.03,
                              slowdown_factor=1.75, retry_budget=3)),
        "slots_1": run(slots=1, faults=kills),
        "max_decode_len_1": run(max_decode_len=1, faults=kills),
        "checkpoint_every_1": run(faults=kills,
                                  recovery=RecoveryPolicy(checkpoint_every=1)),
        "small_retry_timeout": run(
            recovery=ckpt4,
            faults=FaultModel(seed=7, core_mtbf_s=0.05, core_repair_s=0.01,
                              retry_budget=4, retry_timeout_s=0.02)),
        "empty_stream": run(requests=[]),
        "llm_sweep_seed3": lambda: llm_sweep(3, duration_s=0.5),
        "llm_chaos_sweep_seed3": lambda: llm_chaos_sweep(3, duration_s=0.5),
    }


# ------------------------------------------------------------ fleet sweeps

def faults_cases() -> Dict[str, Callable[[], Any]]:
    """The sweep behind ``repro faults --seed 3 --duration 1``."""
    model = FaultModel(seed=3, core_mtbf_s=0.5, core_repair_s=0.1,
                       chip_mtbf_s=math.inf, slowdown_mtbf_s=math.inf,
                       retry_budget=2)
    return {"fault_sweep_seed3": lambda: fault_sweep(model, duration_s=1.0)}


def cluster_cases() -> Dict[str, Callable[[], Any]]:
    """The chaos sweep behind ``repro cluster --seed 3 --duration 0.3``."""
    return {"chaos_sweep_seed3": lambda: chaos_sweep(seed=3, duration_s=0.3)}


def pod_cases() -> Dict[str, Callable[[], Any]]:
    """The pod chaos sweep behind ``repro pod --seed 3 --duration 0.3``."""
    return {"pod_chaos_sweep_seed3":
            lambda: pod_chaos_sweep(seed=3, duration_s=0.3)}


# ----------------------------------------------------------------- DSE grid

def _dse_grid() -> list:
    """The candidate grid the ``keys`` and ``dse`` suites freeze."""
    return enumerate_candidates((2, 4, 8), (0, 32, 64, 96, 128),
                                (0.7, 1.05, 1.4))


def _dse_pairs() -> list:
    """(chip, dtype) for the grid and the four generations, every dtype
    each chip serves."""
    return [(chip, dtype) for chip in _dse_grid() + list(GENERATIONS)
            for dtype in ("bf16", "int8") if chip.supports_dtype(dtype)]


@functools.cache
def _dse_results() -> Dict[str, list]:
    """``run_grid`` SimResults of the DSE apps, by ``<chip>_<dtype>``.

    One grid batch on fresh points with a disk-less cache, so the kernel
    computes every result.
    """
    apps = [app_by_name(name) for name in DEFAULT_DSE_APPS]
    cache = EvalCache()
    points = {}
    jobs = []
    for chip, dtype in _dse_pairs():
        point = points.setdefault(chip, DesignPoint(chip, cache=cache))
        jobs.extend(GridJob(point, spec, dtype=dtype) for spec in apps)
    results = run_grid(jobs)
    n = len(apps)
    return {f"{chip.name}_{dtype}": results[i * n:(i + 1) * n]
            for i, (chip, dtype) in enumerate(_dse_pairs())}


def dse_cases() -> Dict[str, Callable[[], Any]]:
    """Per-point ``SimResult`` counters of the DSE grid.

    Each case is the ``DEFAULT_DSE_APPS`` results of one (chip, dtype)
    at their default batch; every counter, per-level byte and report
    field is in the digest.
    """
    return {label: (lambda label=label: _dse_results()[label])
            for label in (f"{chip.name}_{dtype}"
                          for chip, dtype in _dse_pairs())}


# ------------------------------------------------------------ trace export

def _trace_json(*argv: str) -> str:
    """The JSON file ``repro trace <argv> --out <file>`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["trace", *argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"repro trace {' '.join(argv)} exited {code}")
        return out.read_text()


def trace_cases() -> Dict[str, Callable[[], Any]]:
    """The two trace exports ``cli-determinism`` byte-compares."""
    return {
        "resnet50_tpuv4i": lambda: _trace_json("resnet50", "tpuv4i"),
        "cnn0_tpuv4i_int8": lambda: _trace_json("cnn0", "tpuv4i",
                                                "--dtype", "int8"),
    }


# --------------------------------------------------------- latency tables

def tables_cases() -> Dict[str, Callable[[], Any]]:
    """Serving latency tables at every dtype each generation serves.

    Covers the int8 tier of the bf16 chips (the cluster's degraded
    precision) as well as TPUv1, which serves int8 only.
    """
    cnn0 = app_by_name("cnn0")
    steps = BatchPolicy.batch_steps(16)
    cases: Dict[str, Callable[[], Any]] = {}
    for chip in GENERATIONS:
        for dtype in ("bf16", "int8"):
            if chip.supports_dtype(dtype):
                cases[f"cnn0_{chip.name}_{dtype}"] = (
                    lambda chip=chip, dtype=dtype: latency_table(
                        shared_design_point(chip), cnn0, steps, dtype=dtype))
    llm0 = generative_by_name("llm0")
    cases["llm0_TPUv1_phases"] = lambda: sorted(phase_latency_table(
        shared_design_point(TPUV1), llm0, llm0.default_slots).items())
    return cases


# -------------------------------------------------------------- cache keys

def keys_cases() -> Dict[str, Callable[[], Any]]:
    """Every kind of cache key, so a key's bytes cannot drift unnoticed.

    Chip fingerprints of the four generations and of a DSE grid, the
    fingerprint of every compiler release, the compile-content
    fingerprint, and the EvalCache key over kind x dtype x CMEM budget
    x plain/phase spec. Keys address on-disk cache entries, so a
    change here orphans every existing ``.repro_cache``: regenerate
    this suite only together with a deliberate key change.
    """
    grid = _dse_grid()
    cases: Dict[str, Callable[[], Any]] = {}
    for chip in GENERATIONS:
        cases[f"chip_{chip.name}"] = (
            lambda chip=chip: chip_fingerprint(chip))
        cases[f"compile_chip_{chip.name}"] = (
            lambda chip=chip: compile_chip_fingerprint(chip))
    cases["chip_dse_grid"] = lambda: [chip_fingerprint(c) for c in grid]
    cases["compile_chip_dse_grid"] = lambda: [
        compile_chip_fingerprint(c) for c in grid]
    for version in RELEASES:
        cases[f"compiler_{version.name}"] = (
            lambda version=version: compiler_fingerprint(version))
    point = DesignPoint(TPUV4I, cache=EvalCache())
    specs = {"plain": app_by_name("cnn0"),
             "decode": generative_by_name("llm0").decode(256)}
    for kind in ("sim", "eval"):
        for dtype in ("bf16", "int8"):
            for budget in (None, 64 * MIB):
                for label, spec in specs.items():
                    name = f"eval_key_{kind}_{dtype}_{budget}_{label}"
                    cases[name] = (
                        lambda kind=kind, spec=spec, budget=budget,
                        dtype=dtype: point.key(kind, spec, 8, budget, dtype))
    return cases


#: Golden file stem -> the cases it freezes.
SUITES: Dict[str, Callable[[], Dict[str, Callable[[], Any]]]] = {
    "continuous": continuous_cases,
    "faults": faults_cases,
    "cluster": cluster_cases,
    "tables": tables_cases,
    "keys": keys_cases,
    "pod": pod_cases,
    "dse": dse_cases,
    "trace": trace_cases,
}


def compute(suite: str) -> Dict[str, str]:
    """Case name -> digest for every case of one suite."""
    return {name: fingerprint(case())
            for name, case in SUITES[suite]().items()}


def load(suite: str) -> Dict[str, str]:
    return json.loads((GOLDEN_DIR / f"{suite}.json").read_text())


def main(names: list) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for suite in names or list(SUITES):
        table = compute(suite)
        (GOLDEN_DIR / f"{suite}.json").write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{suite}: {len(table)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
