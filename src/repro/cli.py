"""Command-line interface: quick looks at chips, apps, and evaluations.

Examples::

    python -m repro chips
    python -m repro apps
    python -m repro evaluate --app bert0 --chip TPUv4i --batch 8
    python -m repro compare --app cnn0
    python -m repro migrate --app cnn0 --source TPUv3 --target TPUv4i
    python -m repro engine stats
    python -m repro faults --seed 3 --core-mtbf 0.5 --repair 0.1
    python -m repro cluster --seed 3 --replicas 3 --duration 0.5
    python -m repro llm --seed 3 --duration 0.5
    python -m repro trace resnet50 tpuv4i --out trace.json
    python -m repro metrics --app cnn0 --chip TPUv4i

The CLI is a thin veneer over the public API; anything it prints can be
reproduced programmatically with a few lines of `repro` calls. Each
subcommand imports what it runs, so ``chips`` and ``apps`` load neither
the compiler, the simulator nor numpy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


#: Friendly aliases for app names, which are typed by hand far more
#: often than scripted: the paper's model names map onto the zoo's
#: internal ones.
_APP_ALIASES = {
    "resnet50": "cnn0",
    "resnet": "cnn0",
    "bert": "bert0",
    "lstm": "rnn0",
}


def _resolve_app(name: str):
    """App lookup, case-insensitive and alias-aware."""
    from repro.workloads.models import app_by_name

    lowered = name.lower()
    try:
        return app_by_name(_APP_ALIASES.get(lowered, lowered))
    except KeyError as exc:
        raise KeyError(f"{exc.args[0]}; aliases: "
                       f"{', '.join(sorted(_APP_ALIASES))}") from None


def _resolve_chip(name: str):
    """Chip lookup, case-insensitive."""
    from repro.arch.chip import GENERATIONS, chip_by_name

    for chip in GENERATIONS:
        if chip.name.lower() == name.lower():
            return chip
    return chip_by_name(name)  # preserves the canonical error message


def _cmd_chips(_: argparse.Namespace) -> int:
    from repro.arch.chip import GENERATIONS
    from repro.util.tables import Table
    from repro.util.units import GIB, GIGA, MIB

    table = Table(["chip", "year", "process", "peak TOPS", "on-chip MiB",
                   "HBM GiB", "HBM GB/s", "TDP W", "cooling"])
    for chip in GENERATIONS:
        table.add_row([
            chip.name, chip.year_deployed, chip.process, chip.peak_tops,
            chip.on_chip_bytes / MIB, chip.hbm_bytes / GIB,
            chip.hbm_bw / GIGA, chip.tdp_w, chip.cooling,
        ])
    print(table.render())
    return 0


def _cmd_apps(_: argparse.Namespace) -> int:
    from repro.util.tables import Table
    from repro.workloads.models import PRODUCTION_APPS

    table = Table(["app", "family", "weights MiB", "ops:byte", "batch",
                   "SLO ms", "description"])
    for spec in PRODUCTION_APPS:
        table.add_row([
            spec.name, spec.category, spec.weight_mib(),
            spec.ops_per_byte(), spec.default_batch, spec.slo_ms,
            spec.description,
        ])
    print(table.render())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.arch.config_io import load_chip
    from repro.core.design_point import DesignPoint
    from repro.tco.model import chip_tco, perf_per_tco

    spec = _resolve_app(args.app)
    if args.chip_file:
        chip = load_chip(args.chip_file)
    else:
        chip = _resolve_chip(args.chip)
    point = DesignPoint(chip)
    evaluation = point.evaluate(spec, batch=args.batch)
    tco = chip_tco(chip, evaluation.chip_power_w)
    print(f"{spec.name} on {chip.name} (batch {evaluation.batch}):")
    print(f"  latency:   {evaluation.latency_s * 1e3:.3f} ms")
    print(f"  chip qps:  {evaluation.chip_qps:.0f}")
    print(f"  power:     {evaluation.chip_power_w:.1f} W")
    print(f"  TOPS:      {evaluation.achieved_tops_chip:.1f} "
          f"({evaluation.achieved_tops_chip / chip.peak_tops:.0%} of peak)")
    print(f"  perf/W:    {evaluation.samples_per_joule:.1f} qps/W")
    print(f"  3-yr TCO:  ${tco.total_usd:,.0f} "
          f"({perf_per_tco(evaluation.chip_qps, tco):.2f} qps per TCO $)")
    print(f"  CMEM hit:  {evaluation.cmem_hit_fraction:.0%} of weight bytes")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.arch.chip import GENERATIONS
    from repro.core.design_point import DesignPoint
    from repro.tco.model import chip_tco, perf_per_tco
    from repro.util.tables import Table

    spec = _resolve_app(args.app)
    table = Table(["chip", "latency ms", "chip qps", "power W", "qps/W",
                   "qps/TCO$"],
                  title=f"{spec.name} across generations (batch "
                        f"{args.batch or spec.default_batch})")
    for chip in GENERATIONS:
        if not chip.supports_dtype("bf16"):
            continue
        evaluation = DesignPoint(chip).evaluate(spec, batch=args.batch)
        tco = chip_tco(chip, evaluation.chip_power_w)
        table.add_row([
            chip.name, evaluation.latency_s * 1e3, evaluation.chip_qps,
            evaluation.chip_power_w, evaluation.samples_per_joule,
            perf_per_tco(evaluation.chip_qps, tco),
        ])
    print(table.render())
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.compiler.compat import migrate_model

    spec = _resolve_app(args.app)
    module = spec.build(1)
    report = migrate_model(module, _resolve_chip(args.source),
                           _resolve_chip(args.target))
    print(f"{spec.name}: {report.source_chip} -> {report.target_chip}")
    print(f"  binary portable: {report.binary_portable}")
    print(f"  recompiled:      {report.recompiled}")
    print(f"  dtype retarget:  {report.retargeted_dtype or 'none'}")
    print(f"  {report.notes}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.compiler.pipeline import compile_model
    from repro.compiler.profiler import profile_module
    from repro.sim.core import TensorCoreSim

    spec = _resolve_app(args.app)
    chip = _resolve_chip(args.chip)
    module = spec.build(args.batch or spec.default_batch)
    profile = profile_module(module, chip)
    print(profile.render(args.top))
    simulated = TensorCoreSim(chip).run(compile_model(module, chip).program)
    overlap = simulated.cycles / max(1, profile.total_cycles)
    print(f"  simulated latency {simulated.seconds * 1e3:.3f} ms "
          f"({simulated.cycles:,} cyc); overlap hides "
          f"{1 - overlap:.0%} of unoverlapped cost")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    spec = _resolve_app(args.app)
    module = spec.build(args.batch or spec.default_batch)
    if args.format == "hlo":
        from repro.graph.text import module_to_text

        print(module_to_text(module), end="")
        return 0
    # VLIW assembly of the compiled program.
    from repro.compiler.pipeline import compile_model
    from repro.isa.assembler import disassemble

    chip = _resolve_chip(args.chip)
    compiled = compile_model(module, chip)
    print(disassemble(compiled.program), end="")
    return 0


def _engine_cache(args: argparse.Namespace):
    from repro.engine.cache import configure_cache, get_cache

    if args.dir:
        return configure_cache(disk_dir=args.dir)
    return get_cache()


def _cmd_engine(args: argparse.Namespace) -> int:
    cache = _engine_cache(args)
    if args.action == "stats":
        print(cache.describe())
        if cache.disk_dir is None:
            print("hint: set REPRO_CACHE_DIR=.repro_cache (or pass --dir) "
                  "to persist results across runs")
        return 0
    entries = cache.entry_count() + cache.disk_entry_count()
    cache.clear(disk=True)
    print(f"cleared {entries} cache entries")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import math

    from repro.faults.model import FaultModel
    from repro.faults.sweep import fault_sweep
    from repro.util.tables import Table

    model = FaultModel(
        seed=args.seed,
        core_mtbf_s=args.core_mtbf if args.core_mtbf else math.inf,
        core_repair_s=args.repair,
        chip_mtbf_s=args.chip_mtbf if args.chip_mtbf else math.inf,
        slowdown_mtbf_s=(args.slowdown_mtbf if args.slowdown_mtbf
                         else math.inf),
        retry_budget=args.retry_budget,
    )
    apps = args.apps.split(",") if args.apps else None
    rows = fault_sweep(model, apps=apps, duration_s=args.duration,
                       utilization=args.utilization)
    print(model.describe())
    table = Table(
        ["chip", "app", "offered qps", "avail %", "retries", "dropped",
         "lost batches", "capacity down %", "p99 ms", "p99 faulted ms",
         "SLO viol %"],
        title=f"Seeded fault sweep ({args.duration:.3g} s of traffic at "
              f"{args.utilization:.0%} of SLO capacity)")
    for row in rows:
        table.add_row([
            row.chip, row.app, row.offered_qps,
            100.0 * row.faulted.availability,
            row.faulted.retried_requests, row.faulted.dropped_requests,
            row.faulted.lost_batches,
            100.0 * row.faulted.lost_capacity_fraction,
            row.baseline.p99_s * 1e3, row.faulted.p99_s * 1e3,
            100.0 * row.faulted.slo_violation_fraction,
        ])
    print(table.render())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.sweep import chaos_sweep
    from repro.util.tables import Table

    apps = tuple(args.apps.split(",")) if args.apps else ("cnn0",)
    rows = chaos_sweep(seed=args.seed, apps=apps, replicas=args.replicas,
                       duration_s=args.duration,
                       utilization=args.utilization,
                       max_batch=args.max_batch)
    table = Table(
        ["chip", "app", "scenario", "policy", "offered qps", "avail %",
         "shed %", "p99 ms", "SLO viol %", "hedged", "ejected", "failover",
         "degraded s"],
        title=f"Chaos sweep ({args.replicas} replicas, "
              f"{args.duration:.3g} s of traffic sized for "
              f"{args.replicas - 1} replicas at "
              f"{args.utilization:.0%} utilization)")
    for row in rows:
        stats = row.stats
        table.add_row([
            row.chip, row.app, row.scenario, row.policy, row.offered_qps,
            100.0 * stats.availability, 100.0 * stats.shed_fraction,
            stats.p99_s * 1e3, 100.0 * stats.slo_violation_fraction,
            stats.hedged_requests, stats.ejections,
            stats.failed_over_requests, stats.degraded_s,
        ])
    print(table.render())
    return 0


def _cmd_pod(args: argparse.Namespace) -> int:
    from repro.pod.sweep import pod_chaos_sweep
    from repro.util.tables import Table

    apps = tuple(args.apps.split(",")) if args.apps else ("cnn0",)
    rows = pod_chaos_sweep(seed=args.seed, apps=apps, slices=args.slices,
                           slice_chips=args.slice_chips,
                           duration_s=args.duration,
                           utilization=args.utilization,
                           max_batch=args.max_batch,
                           parallelism=args.parallelism)
    table = Table(
        ["chip", "app", "topology", "scenario", "policy", "offered qps",
         "avail %", "shed %", "p99 ms", "SLO viol %", "ejected", "failover",
         "degraded s"],
        title=f"Pod chaos sweep ({args.slices} slices x "
              f"{args.slice_chips} chips, {args.parallelism}-parallel, "
              f"{args.duration:.3g} s of traffic sized for "
              f"{args.slices - 1} slices at "
              f"{args.utilization:.0%} utilization)")
    for row in rows:
        stats = row.stats
        table.add_row([
            row.chip, row.app, row.topology, row.scenario, row.policy,
            row.offered_qps, 100.0 * stats.availability,
            100.0 * stats.shed_fraction, stats.p99_s * 1e3,
            100.0 * stats.slo_violation_fraction, stats.ejections,
            stats.failed_over_requests, stats.degraded_s,
        ])
    print(table.render())
    return 0


def _cmd_llm(args: argparse.Namespace) -> int:
    from repro.serving.continuous import llm_sweep
    from repro.util.tables import Table

    models = tuple(args.models.split(",")) if args.models else ("llm0", "llm1")
    if args.faults:
        return _cmd_llm_faults(args, models)
    rows = llm_sweep(seed=args.seed, models=models, duration_s=args.duration,
                     slots=args.slots, utilization=args.utilization)
    table = Table(
        ["chip", "model", "slots", "offered qps", "reqs", "tokens", "tok/s",
         "mean batch", "TTFT p99 ms", "tok p99 ms", "TTFT viol %",
         "tok viol %", "decode ops:byte", "mem-bound"],
        title=f"Generative serving sweep (continuous batching, "
              f"{args.duration:.3g} s of traffic at "
              f"{args.utilization:.0%} of decode capacity)")
    for row in rows:
        stats = row.stats
        table.add_row([
            row.chip, row.model, row.slots, row.offered_qps, stats.requests,
            stats.tokens_generated, stats.tokens_per_s,
            stats.mean_decode_batch, stats.ttft_p99_s * 1e3,
            stats.per_token_p99_s * 1e3,
            100.0 * stats.ttft_violation_fraction,
            100.0 * stats.per_token_violation_fraction,
            row.decode_ops_per_byte,
            "yes" if row.decode_memory_bound else "NO",
        ])
    print(table.render())
    return 0


def _cmd_llm_faults(args: argparse.Namespace, models: tuple) -> int:
    from repro.serving.continuous import llm_chaos_sweep
    from repro.util.tables import Table

    rows = llm_chaos_sweep(
        seed=args.seed, models=models, duration_s=args.duration,
        slots=args.slots, utilization=args.utilization,
        checkpoint_every=args.checkpoint_every)
    table = Table(
        ["chip", "model", "scenario", "policy", "reqs", "served",
         "avail %", "goodput %", "wasted tok", "recovered", "recomputed",
         "migrated", "snapshots", "TTFT p99 ms", "tok/s"],
        title=f"Generative recovery chaos sweep (checkpoint every "
              f"{args.checkpoint_every} tokens, {args.duration:.3g} s of "
              f"traffic at {args.utilization:.0%} of decode capacity)")
    for row in rows:
        stats = row.stats
        table.add_row([
            row.chip, row.model, row.scenario, row.policy, stats.requests,
            stats.served_requests, 100.0 * stats.availability,
            100.0 * stats.goodput_fraction, stats.wasted_tokens,
            stats.recovered_tokens, stats.recomputed_tokens,
            stats.migrated_requests, stats.snapshots,
            stats.ttft_p99_s * 1e3, stats.tokens_per_s,
        ])
    print(table.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import profile_result
    from repro.obs.tracer import build_trace

    spec = _resolve_app(args.app)
    chip = _resolve_chip(args.chip)
    traced = build_trace(spec, chip, batch=args.batch, dtype=args.dtype,
                         serve=not args.no_serve, seed=args.seed)
    payload = traced.tracer.export_json()
    with open(args.out, "w") as fh:
        fh.write(payload)
    summary = traced.summary_dict()
    print(f"wrote {args.out}: {summary['spans']} spans "
          f"({len(payload):,} bytes) for {summary['app']} on "
          f"{summary['chip']} (batch {summary['batch']}, "
          f"{summary['dtype']})")
    if traced.tracer.truncated:
        print("warning: span capacity reached; trace is truncated")
    print(profile_result(traced.result).render())
    if traced.serving is not None:
        print(f"  serve phase: {summary['served_requests']} requests "
              "replayed on the simulated clock")
    print("open chrome://tracing or https://ui.perfetto.dev and load "
          f"{args.out} to inspect the timeline")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.core.design_point import DesignPoint
    from repro.engine.cache import EvalCache
    from repro.obs.metrics import collecting_metrics, render_snapshot
    from repro.obs.report import profile_result, tier_report
    from repro.serving.batching import BatchPolicy
    from repro.serving.server import ServingSimulator
    from repro.serving.slo import Slo
    from repro.workloads.generator import RequestGenerator

    spec = _resolve_app(args.app)
    chip = _resolve_chip(args.chip)
    with collecting_metrics() as registry:
        point = DesignPoint(chip, cache=EvalCache(enabled=args.cache))
        batch = args.batch or spec.default_batch
        result = point.run(spec, batch)
        evaluation = point.evaluate(spec, batch)
        slo = Slo(spec.slo_ms / 1e3)
        server = ServingSimulator(
            point, spec, BatchPolicy.for_slo(max(batch, 1), slo), slo)
        rate = args.utilization * chip.cores * batch / result.seconds
        requests = RequestGenerator(args.seed).poisson(
            spec.name, rate, args.duration)
        server.simulate(requests)
        snapshot = registry.snapshot()
    print(f"{spec.name} on {chip.name} (batch {batch}): "
          f"{evaluation.chip_qps:.0f} qps, "
          f"{evaluation.chip_power_w:.1f} W")
    print(profile_result(result).render())
    print()
    print(tier_report(snapshot))
    print()
    print(render_snapshot(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TPUv4i reproduction: chips, apps, and evaluations.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("chips", help="list the four TPU generations"
                   ).set_defaults(func=_cmd_chips)
    sub.add_parser("apps", help="list the eight production apps"
                   ).set_defaults(func=_cmd_apps)

    evaluate = sub.add_parser("evaluate", help="compile+simulate one app")
    evaluate.add_argument("--app", required=True)
    evaluate.add_argument("--chip", default="TPUv4i")
    evaluate.add_argument("--chip-file", default=None,
                          help="JSON chip config (overrides --chip)")
    evaluate.add_argument("--batch", type=int, default=None)
    evaluate.set_defaults(func=_cmd_evaluate)

    compare = sub.add_parser("compare", help="one app across generations")
    compare.add_argument("--app", required=True)
    compare.add_argument("--batch", type=int, default=None)
    compare.set_defaults(func=_cmd_compare)

    profile = sub.add_parser("profile", help="per-operator cost attribution")
    profile.add_argument("--app", required=True)
    profile.add_argument("--chip", default="TPUv4i")
    profile.add_argument("--batch", type=int, default=None)
    profile.add_argument("--top", type=int, default=10)
    profile.set_defaults(func=_cmd_profile)

    dump = sub.add_parser("dump", help="print a model as HLO text or VLIW asm")
    dump.add_argument("--app", required=True)
    dump.add_argument("--format", choices=("hlo", "asm"), default="hlo")
    dump.add_argument("--chip", default="TPUv4i")
    dump.add_argument("--batch", type=int, default=None)
    dump.set_defaults(func=_cmd_dump)

    migrate = sub.add_parser("migrate", help="move a model between chips")
    migrate.add_argument("--app", required=True)
    migrate.add_argument("--source", default="TPUv3")
    migrate.add_argument("--target", default="TPUv4i")
    migrate.set_defaults(func=_cmd_migrate)

    engine = sub.add_parser(
        "engine", help="evaluation-engine cache stats")
    engine.add_argument("action", choices=("stats", "clear"),
                        nargs="?", default="stats")
    engine.add_argument("--dir", default=None,
                        help="disk cache directory (default: memory only, "
                             "or $REPRO_CACHE_DIR)")
    engine.set_defaults(func=_cmd_engine)

    faults = sub.add_parser(
        "faults", help="seeded fault-injection sweep: availability and "
                       "p99-under-faults per chip generation")
    faults.add_argument("--seed", type=int, default=0,
                        help="fault + traffic seed (default 0)")
    faults.add_argument("--core-mtbf", type=float, default=0.5,
                        help="mean simulated seconds between core failures "
                             "(0 disables; default 0.5)")
    faults.add_argument("--chip-mtbf", type=float, default=0.0,
                        help="mean simulated seconds between chip-wide "
                             "outages (0 disables; default off)")
    faults.add_argument("--slowdown-mtbf", type=float, default=0.0,
                        help="mean simulated seconds between transient "
                             "slowdowns (0 disables; default off)")
    faults.add_argument("--repair", type=float, default=0.1,
                        help="mean core repair time in simulated seconds")
    faults.add_argument("--retry-budget", type=int, default=2,
                        help="re-enqueues allowed per request before drop")
    faults.add_argument("--duration", type=float, default=2.0,
                        help="simulated traffic seconds per (chip, app)")
    faults.add_argument("--utilization", type=float, default=0.5,
                        help="offered load as a fraction of SLO capacity")
    faults.add_argument("--apps", default=None,
                        help="comma-separated app names "
                             "(default: the DSE subset)")
    faults.set_defaults(func=_cmd_faults)

    cluster = sub.add_parser(
        "cluster", help="chaos sweep: protected vs unprotected N-replica "
                        "clusters across chaos scenarios and generations")
    cluster.add_argument("--seed", type=int, default=0,
                         help="chaos + traffic seed (default 0)")
    cluster.add_argument("--apps", default=None,
                         help="comma-separated app names (default cnn0)")
    cluster.add_argument("--replicas", type=int, default=3,
                         help="replicas per cluster (default 3, i.e. N+1 "
                              "over the 2 the traffic is sized for)")
    cluster.add_argument("--duration", type=float, default=1.0,
                         help="simulated traffic seconds per scenario")
    cluster.add_argument("--utilization", type=float, default=0.6,
                         help="offered load vs (replicas-1) SLO capacity")
    cluster.add_argument("--max-batch", type=int, default=8,
                         help="per-replica batching cap (default 8)")
    cluster.set_defaults(func=_cmd_cluster)

    pod = sub.add_parser(
        "pod", help="pod chaos sweep: clusters of multi-chip sharded "
                    "slices under link/slice fault scenarios, on both "
                    "the torus and OCS fabrics")
    pod.add_argument("--seed", type=int, default=0,
                     help="chaos + traffic seed (default 0)")
    pod.add_argument("--apps", default=None,
                     help="comma-separated app names (default cnn0)")
    pod.add_argument("--slices", type=int, default=3,
                     help="slices per cluster (default 3, i.e. N+1 over "
                          "the 2 the traffic is sized for)")
    pod.add_argument("--slice-chips", type=int, default=4,
                     help="chips per slice (default 4)")
    pod.add_argument("--duration", type=float, default=1.0,
                     help="simulated traffic seconds per scenario")
    pod.add_argument("--utilization", type=float, default=0.6,
                     help="offered load vs (slices-1) SLO capacity")
    pod.add_argument("--max-batch", type=int, default=8,
                     help="per-slice batching cap (default 8)")
    pod.add_argument("--parallelism", default="pipeline",
                     choices=("pipeline", "tensor"),
                     help="how each slice shards the model")
    pod.set_defaults(func=_cmd_pod)

    llm = sub.add_parser(
        "llm", help="generative serving sweep: continuous batching of "
                    "autoregressive decode across chip generations")
    llm.add_argument("--seed", type=int, default=0,
                     help="traffic seed (default 0)")
    llm.add_argument("--models", default=None,
                     help="comma-separated generative models "
                          "(default llm0,llm1)")
    llm.add_argument("--slots", type=int, default=None,
                     help="continuous-batching slots per core "
                          "(default: each model's own)")
    llm.add_argument("--duration", type=float, default=1.0,
                     help="simulated traffic seconds per (chip, model)")
    llm.add_argument("--utilization", type=float, default=0.6,
                     help="offered load vs steady decode capacity")
    llm.add_argument("--faults", action="store_true",
                     help="chaos sweep: compare scratch re-prefill vs "
                          "checkpointed recovery under kills and a "
                          "permanent core outage")
    llm.add_argument("--checkpoint-every", type=int, default=8,
                     help="snapshot cadence in generated tokens for the "
                          "recovery policy (with --faults; default 8)")
    llm.set_defaults(func=_cmd_llm)

    trace = sub.add_parser(
        "trace", help="deterministic Chrome trace of one app on one chip "
                      "(compile -> lower -> replay -> serve)")
    trace.add_argument("app", help="app name or alias (e.g. resnet50)")
    trace.add_argument("chip", help="chip name, case-insensitive")
    trace.add_argument("--batch", type=int, default=None)
    trace.add_argument("--dtype", default=None,
                       help="simulation dtype (default: bf16 where "
                            "supported, else the chip's int8 retarget)")
    trace.add_argument("--out", default="trace.json",
                       help="output path (Chrome trace-event JSON)")
    trace.add_argument("--seed", type=int, default=0,
                       help="serve-phase traffic seed")
    trace.add_argument("--no-serve", action="store_true",
                       help="skip the serving phase (compile/replay only)")
    trace.set_defaults(func=_cmd_trace)

    metrics_p = sub.add_parser(
        "metrics", help="run one evaluate+serve workload with the metrics "
                        "registry on and print the attribution report")
    metrics_p.add_argument("--app", default="cnn0",
                           help="app name or alias (default cnn0)")
    metrics_p.add_argument("--chip", default="TPUv4i")
    metrics_p.add_argument("--batch", type=int, default=None)
    metrics_p.add_argument("--duration", type=float, default=0.25,
                           help="simulated traffic seconds (default 0.25)")
    metrics_p.add_argument("--utilization", type=float, default=0.5,
                           help="offered load vs batch capacity")
    metrics_p.add_argument("--seed", type=int, default=0)
    metrics_p.add_argument("--cache", action="store_true",
                           help="use an enabled engine cache (shows hits)")
    metrics_p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
