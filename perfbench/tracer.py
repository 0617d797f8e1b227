"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions each layer is entered through
(:data:`TARGETS`), records one span per call (layer, start, end,
parent) in memory, and folds the spans into per-layer metrics when a
phase ends. Nothing inside ``repro`` changes: a name bound with
``from x import f`` is replaced in every loaded module that holds it,
methods are replaced on their class, and the spec ``build`` callables
of the production apps are replaced on the spec instances.

Self time of a span is its duration minus its children's durations;
a layer's time is the sum of its spans' self times. Wall time of the
traced call that no span covers is reported as ``other.s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# ------------------------------------------------------------------ hooks
# Each hook turns one call's (args, result) into count increments. Hooks
# run when a phase ends, outside every span and outside the timed wall.


def _instructions(args, result) -> Dict[str, float]:
    return {"compiler.instructions":
            sum(len(bundle.instructions) for bundle in result.program.bundles)}


def _grid_points(args, result) -> Dict[str, float]:
    return {"gridkernel.points": len(result)}


def _replayed_requests(args, result) -> Dict[str, float]:
    return {"fastserve.requests": len(args[1])}


def _tokens(args, result) -> Dict[str, float]:
    return {"continuous.tokens_computed": result.tokens_computed,
            "continuous.tokens_generated": result.tokens_generated}


@dataclass(frozen=True)
class Target:
    """One public function wrapped as a span of ``layer``."""

    layer: str
    module: str
    attr: str                    # "func" or "Class.method"
    counted: bool = True         # adds to ``<layer>.calls``
    hook: Optional[Callable[[tuple, Any], Dict[str, float]]] = None


#: Every layer boundary the benchmark times. Counted targets are the
#: ones whose calls are the layer's unit of work.
TARGETS: Tuple[Target, ...] = (
    Target("workloads.build", "repro.engine.modules", "built_module",
           counted=False),
    Target("workloads.build", "repro.workloads.generative", "build_prefill"),
    Target("workloads.build", "repro.workloads.generative", "build_decode"),
    Target("workloads.traffic", "repro.util.rng",
           "DeterministicRng.poisson_arrivals", counted=False),
    Target("workloads.traffic", "repro.workloads.generator",
           "RequestGenerator.poisson", counted=False),
    Target("workloads.traffic", "repro.workloads.generative",
           "sample_gen_requests", counted=False),
    Target("compiler", "repro.compiler.pipeline", "compile_model",
           hook=_instructions),
    Target("sim.lower", "repro.sim.lowered", "lower_program"),
    Target("sim.replay", "repro.sim.lowered", "FastReplay.run"),
    Target("sim.replay", "repro.sim.core", "TensorCoreSim.run",
           counted=False),
    Target("gridkernel", "repro.sim.gridkernel", "evaluate_grid",
           hook=_grid_points),
    Target("cache.get", "repro.engine.cache", "EvalCache.get"),
    Target("cache.put", "repro.engine.cache", "EvalCache.put"),
    Target("engine.grid", "repro.engine.grid", "run_grid", counted=False),
    Target("engine.grid", "repro.engine.grid", "evaluate_jobs",
           counted=False),
    Target("engine.keys", "repro.engine.keys", "eval_key", counted=False),
    Target("engine.keys", "repro.engine.keys", "fingerprint", counted=False),
    Target("faults.schedule", "repro.faults.model", "FaultModel.schedule",
           counted=False),
    Target("cluster.simulate", "repro.cluster.cluster",
           "ClusterSimulator.simulate"),
    Target("fastserve.replay", "repro.serving.fastserve", "replay_cluster",
           counted=False, hook=_replayed_requests),
    Target("continuous.simulate", "repro.serving.continuous",
           "ContinuousBatchingSimulator.simulate", hook=_tokens),
    Target("continuous.tables", "repro.serving.continuous",
           "phase_latency_table", counted=False),
    Target("continuous.tables", "repro.serving.recovery",
           "snapshot_latency_table", counted=False),
)

#: Spec instances whose ``build`` field is a plain function reference
#: (module-level patching cannot reach it): ``(module, attribute)``.
SPEC_CATALOGS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.models", "PRODUCTION_APPS"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


# ------------------------------------------------------------------ spans

@dataclass
class Span:
    layer: str
    name: str                    # the wrapped function
    start: float
    end: float
    parent: int                  # index into the span list, -1 for roots


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """Per-layer self time, and the time the root spans cover.

    A span's self time is its duration minus the durations of its
    direct children; calls are single-threaded, so children of one
    span never overlap and their durations add.
    """
    child_time = [0.0] * len(spans)
    covered = 0.0
    for span in spans:
        duration = span.end - span.start
        if span.parent < 0:
            covered += duration
        else:
            child_time[span.parent] += duration
    layers: Dict[str, float] = {}
    for span, children in zip(spans, child_time):
        layers[span.layer] = (layers.get(span.layer, 0.0)
                              + (span.end - span.start) - children)
    return layers, covered


class Tracer:
    """Records spans around every :data:`TARGETS` call once installed."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._pending: List[Tuple[Callable, tuple, Any]] = []
        self._undo: List[Callable[[], None]] = []
        self._module_functions: List[Callable] = []

    # ---------------------------------------------------------- recording

    def wrap(self, layer: str, fn: Callable, counted: bool = True,
             hook: Optional[Callable] = None) -> Callable:
        calls = f"{layer}.calls"
        name = fn.__qualname__
        spans, stack, pending, counts = (self.spans, self._stack,
                                         self._pending, self.counts)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(layer, name, clock(), 0.0,
                        stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counted:
                counts[calls] = counts.get(calls, 0) + 1
            if hook is not None:
                pending.append((hook, args, result))
            return result

        return traced

    def reset(self) -> None:
        """Start a new phase: drop spans, counts and pending hooks."""
        del self.spans[:]
        del self._pending[:]
        self.counts.clear()

    def flush(self) -> Dict[str, float]:
        """Counts of the phase so far, with every pending hook applied."""
        for hook, args, result in self._pending:
            for name, value in hook(args, result).items():
                self.counts[name] = self.counts.get(name, 0) + value
        del self._pending[:]
        return dict(self.counts)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target in every loaded ``repro`` module binding it."""
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, name = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
            wrapped = self.wrap(target.layer, original, target.counted,
                                target.hook)
            if owner_name:
                self._set(owner, name, wrapped)
            else:
                self._module_functions.append(original)
                for holder in _repro_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, attr, wrapped)
        for module_name, attr in SPEC_CATALOGS:
            for spec in getattr(importlib.import_module(module_name), attr):
                original = spec.build
                wrapped = self.wrap("workloads.build", original)
                self._set(spec, "build", wrapped, frozen=True)

    def _set(self, owner: Any, name: str, value: Any,
             frozen: bool = False) -> None:
        previous = getattr(owner, name) if frozen else vars(owner)[name]
        setter = object.__setattr__ if frozen else setattr
        setter(owner, name, value)
        self._undo.append(lambda: setter(owner, name, previous))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._module_functions.clear()

    def unwrapped_bindings(self) -> List[str]:
        """``module.attr`` names that still hold an unwrapped function."""
        originals = {id(fn) for fn in self._module_functions}
        found = []
        for holder in _repro_modules():
            for attr, value in list(vars(holder).items()):
                if id(value) in originals:
                    found.append(f"{holder.__name__}.{attr}")
        return sorted(found)


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


# ------------------------------------------------------------------ metrics

#: Per-phase count names that always appear (0 when never incremented).
COUNTS: Tuple[str, ...] = (
    "workloads.build.calls", "compiler.calls", "compiler.instructions",
    "sim.lower.calls", "sim.replay.calls", "gridkernel.calls",
    "gridkernel.points", "gridkernel.fallback_points", "cache.get.calls",
    "cache.hits", "cache.disk_hits", "cache.misses", "cache.put.calls",
    "cluster.simulate.calls", "fastserve.requests",
    "continuous.simulate.calls", "continuous.tokens_computed",
    "continuous.tokens_generated",
)


def phase_metrics(spans: Sequence[Span], counts: Dict[str, float],
                  wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced phase.

    ``counts`` already holds the program's own cache and grid-kernel
    counter deltas for the phase (see :func:`program_counters`).
    """
    layers, covered = self_times(spans)
    out: Dict[str, float] = {name: float(counts.get(name, 0))
                             for name in COUNTS}
    for layer in LAYERS:
        out[f"{layer}.s"] = layers.get(layer, 0.0)
    gets = out["cache.get.calls"]
    out["cache.hit_ratio"] = ((out["cache.hits"] + out["cache.disk_hits"])
                              / gets if gets else 0.0)
    computed = out["continuous.tokens_computed"]
    out["continuous.goodput_fraction"] = (
        out["continuous.tokens_generated"] / computed if computed else 0.0)
    out["other.s"] = wall_s - covered
    out["wall.s"] = wall_s
    return out


def program_counters() -> Dict[str, float]:
    """The program's cumulative cache and grid-kernel counters."""
    from repro.engine.cache import get_cache
    from repro.sim.gridkernel import grid_kernel_stats
    stats = get_cache().stats
    return {"cache.hits": stats.hits, "cache.disk_hits": stats.disk_hits,
            "cache.misses": stats.misses,
            "gridkernel.fallback_points": grid_kernel_stats().fallback_points}


def chrome_events(spans: Sequence[Span], phase: str) -> List[dict]:
    """Spans of one phase as Chrome trace-event records (microseconds)."""
    origin = min((span.start for span in spans), default=0.0)
    return [{"name": span.name, "cat": span.layer, "ph": "X", "pid": 1,
             "tid": phase, "ts": (span.start - origin) * 1e6,
             "dur": (span.end - span.start) * 1e6}
            for span in spans]


def traced_call(tracer: Tracer, call: Callable[[], Any]
                ) -> Tuple[Any, float, Dict[str, float]]:
    """Run ``call`` as one traced phase: (result, wall, metrics)."""
    tracer.reset()
    before = program_counters()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    after = program_counters()
    counts = tracer.flush()
    for name in before:
        counts[name] = after[name] - before[name]
    return result, wall, phase_metrics(tracer.spans, counts, wall)
