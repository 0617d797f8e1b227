"""Deterministic span tracing with a Chrome trace-event exporter.

The observability layer's timeline half. A :class:`Span` is one named
interval on one track; a :class:`SpanTracer` collects spans and exports
them as Chrome trace-event JSON (load the file in ``chrome://tracing``
or https://ui.perfetto.dev).

**The determinism rule:** every timestamp is *simulated* time or a
deterministic work proxy — never wall-clock. Two runs of the same
(app, chip, batch, seed) therefore export byte-identical JSON, which is
what lets CI diff traces and a reviewer diff the traces of two commits.
Concretely, the three track groups use these clocks:

* ``pipeline`` — compile -> lower -> replay -> serve phase spans laid
  end to end on a work-unit axis (1 tick = 1 instruction for compile,
  1 bundle or instruction for lower, 1 cycle for replay, 1 simulated us
  for serve);
* ``core`` — one span per executed MXU/VPU/DMA instruction and stalling
  ``sync.wait``, in program order, on the chip's simulated clock
  converted to microseconds; one track per unit (mxu, vpu, dma.<level>,
  sync);
* ``serving`` — one span per launched batch on ``core<i>`` tracks, on
  the serving simulator's simulated-seconds clock.

The ``core`` spans come from the timing engine itself
(:mod:`repro.sim.gridkernel`, via :meth:`~repro.sim.lowered.FastReplay.
run` with a tracer): one engine serves traced and untraced runs, and its
:class:`~repro.sim.core.SimResult` is the same either way (asserted in
``tests/test_obs.py``), so tracing is purely additive — it can never
change what it measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.arch.chip import ChipConfig
from repro.sim.lowered import FastReplay, lower_program

__all__ = [
    "Span",
    "SpanTracer",
    "TraceResult",
    "build_trace",
]

#: Default cap on recorded spans; far above any compiled program in the
#: zoo, low enough that a runaway serve trace cannot eat the heap.
DEFAULT_SPAN_CAPACITY = 200_000


@dataclass(frozen=True)
class Span:
    """One named interval on one track.

    ``ts_us``/``dur_us`` are microseconds on that track group's
    deterministic clock (see the module docstring); ``args`` is a tuple
    of (key, value) pairs so spans stay hashable and deterministic.
    """

    name: str
    cat: str
    group: str       # Chrome "process": pipeline / core / serving
    track: str       # Chrome "thread": mxu, vpu, dma.hbm, core0, ...
    ts_us: float
    dur_us: float
    args: tuple = ()


@dataclass
class SpanTracer:
    """Collects spans; exports Chrome trace-event JSON.

    Bounded: recording stops silently at ``capacity`` and ``truncated``
    flips, so tracing a long serving simulation degrades instead of
    exhausting memory. The cap is part of the deterministic contract —
    the same run always keeps the same prefix.
    """

    capacity: int = DEFAULT_SPAN_CAPACITY
    spans: list = field(default_factory=list)
    truncated: bool = False

    def record(self, name: str, cat: str, group: str, track: str,
               ts_us: float, dur_us: float, args: tuple = ()) -> None:
        if len(self.spans) >= self.capacity:
            self.truncated = True
            return
        self.spans.append(Span(name, cat, group, track, ts_us, dur_us, args))

    # --------------------------------------------------------------- export

    def chrome_trace(self, comment: str = "") -> dict:
        """The Chrome trace-event representation (a plain dict).

        Groups become processes and tracks become threads, ids assigned
        in first-appearance order (deterministic because spans are
        recorded deterministically); ``M`` metadata events carry the
        readable names.
        """
        group_ids: dict[str, int] = {}
        track_ids: dict[tuple, int] = {}
        events: list = []
        for span in self.spans:
            pid = group_ids.get(span.group)
            if pid is None:
                pid = len(group_ids)
                group_ids[span.group] = pid
                events.append({"ph": "M", "name": "process_name", "pid": pid,
                               "tid": 0, "args": {"name": span.group}})
            key = (span.group, span.track)
            tid = track_ids.get(key)
            if tid is None:
                tid = sum(1 for g, _ in track_ids if g == span.group)
                track_ids[key] = tid
                events.append({"ph": "M", "name": "thread_name", "pid": pid,
                               "tid": tid, "args": {"name": span.track}})
            event = {"ph": "X", "name": span.name, "cat": span.cat,
                     "pid": pid, "tid": tid, "ts": span.ts_us,
                     "dur": span.dur_us}
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        trace: dict = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated (deterministic; never wall-clock)",
                "spans": len(self.spans),
                "truncated": self.truncated,
            },
        }
        if comment:
            trace["otherData"]["comment"] = comment
        return trace

    def export_json(self, comment: str = "") -> str:
        """Byte-stable Chrome trace JSON (sorted keys, fixed separators).

        Identical runs serialize to identical bytes — the property the
        CI trace-diff relies on.
        """
        return json.dumps(self.chrome_trace(comment), sort_keys=True,
                          separators=(",", ":")) + "\n"


# --------------------------------------------------------- pipeline tracing

@dataclass(frozen=True)
class TraceResult:
    """Everything one end-to-end trace produced."""

    tracer: SpanTracer
    result: object                       # SimResult of the traced replay
    serving: Optional[object] = None     # ServingStats when serve=True
    summary: tuple = ()                  # deterministic (key, value) pairs

    def summary_dict(self) -> dict:
        return dict(self.summary)


def build_trace(spec, chip: ChipConfig, *, batch: Optional[int] = None,
                dtype: Optional[str] = None, serve: bool = True,
                serve_duration_s: float = 0.25, utilization: float = 0.5,
                max_batch: int = 8, seed: int = 0,
                capacity: int = DEFAULT_SPAN_CAPACITY) -> TraceResult:
    """Trace one app end to end: compile -> lower -> replay -> serve.

    Deterministic by construction: compilation and lowering are pure,
    the replay runs on the simulated clock, and the serve phase uses a
    seeded Poisson stream over latencies replayed in-process (no engine
    cache involvement), so the exported JSON is byte-identical across
    runs. ``dtype=None`` picks the chip's native dtype: bf16 where
    supported, else the int8 retarget TPUv1 actually served with. Any
    non-bf16 dtype traces the program retargeted to it.
    """
    from repro.compiler.pipeline import compile_model
    from repro.engine.modules import built_module

    if not math.isfinite(serve_duration_s) or serve_duration_s <= 0:
        raise ValueError("serve duration must be positive and finite, "
                         f"got {serve_duration_s!r}")
    if not 0 < utilization <= 1:
        raise ValueError(
            f"utilization must be in (0, 1], got {utilization!r}")
    if serve:
        from repro.serving.batching import BatchPolicy
        steps = BatchPolicy.batch_steps(max_batch)
    if dtype is None:
        dtype = chip.native_dtype
    if not chip.supports_dtype(dtype):
        raise ValueError(f"{chip.name} does not support {dtype}")
    b = batch if batch is not None else spec.default_batch

    def compile_batch(size: int):
        return compile_model(built_module(spec, size, dtype), chip).program

    tracer = SpanTracer(capacity=capacity)
    program = compile_batch(b)
    n_instructions = sum(len(bundle.instructions)
                         for bundle in program.bundles)
    lowered = lower_program(program, chip)

    # Pipeline track: phases end to end on a work-unit axis (1 tick =
    # 1 us): instructions compiled, rows lowered, cycles replayed,
    # simulated us served. Deterministic cost proxies, not wall time.
    t = 0.0
    tracer.record("compile", "pipeline", "pipeline", "phases", t,
                  float(n_instructions),
                  (("instructions", n_instructions), ("batch", b)))
    t += n_instructions
    tracer.record("lower", "pipeline", "pipeline", "phases", t,
                  float(len(lowered)), (("rows", len(lowered)),))
    t += len(lowered)

    replayer = FastReplay(chip)
    result = replayer.run(lowered, dtype=dtype, tracer=tracer)
    tracer.record("replay", "pipeline", "pipeline", "phases", t,
                  float(result.cycles), (("cycles", result.cycles),))
    t += result.cycles

    serving_stats = None
    if serve:
        from repro.core.design_point import DesignPoint
        from repro.engine.cache import EvalCache
        from repro.serving.server import ServingSimulator
        from repro.serving.slo import Slo, largest_batch_within
        from repro.workloads.generator import RequestGenerator

        table = {
            step: replayer.run(lower_program(compile_batch(step), chip),
                               dtype=dtype).seconds
            for step in steps}
        slo = Slo(spec.slo_ms / 1e3)
        slo_batch = largest_batch_within(table, slo.limit_s, 1)
        # Not utilization * slo_capacity(): that rounds differently, and
        # the trace export is pinned byte for byte to this order.
        rate_qps = utilization * chip.cores * slo_batch / table[slo_batch]
        policy = BatchPolicy.for_slo(max_batch, slo)
        point = DesignPoint(chip, cache=EvalCache())
        simulator = ServingSimulator(point, spec, policy, slo)
        simulator.seed_latencies(table)
        requests = RequestGenerator(seed).poisson(
            spec.name, rate_qps, serve_duration_s)
        if requests:
            serving_stats = simulator.simulate(requests, tracer=tracer)
            tracer.record("serve", "pipeline", "pipeline", "phases", t,
                          serving_stats.duration_s * 1e6,
                          (("requests", serving_stats.requests),))

    summary = (
        ("app", spec.name),
        ("chip", chip.name),
        ("batch", b),
        ("dtype", dtype),
        ("cycles", result.cycles),
        ("instructions", n_instructions),
        ("rows", len(lowered)),
        ("spans", len(tracer.spans)),
        ("truncated", tracer.truncated),
        ("served_requests",
         serving_stats.served_requests if serving_stats else 0),
    )
    return TraceResult(tracer=tracer, result=result, serving=serving_stats,
                       summary=summary)
