"""Continuous batching for autoregressive decode (slot-based admission).

Classic serving admits whole requests into batches; generative serving
cannot — a request is alive for one prefill plus up to ``max_decode_len``
decode *iterations*, and tying a batch's lifetime to its slowest member
would idle every slot. This simulator therefore admits decode
iterations, vLLM-style:

* each core runs an independent engine with ``slots`` request slots
  (requests are assigned to cores round-robin, so multi-core chips keep
  the deterministic, replayable structure of the PR 3 event loop);
* an admitted request is first *prefilled* alone (one prompt-bucket
  program at batch 1 — prefill produces the first token, so TTFT is the
  prefill completion minus arrival);
* every engine step after that decodes *all* prefilled slots together:
  one decode program at the padded active count, against the KV bucket
  covering the deepest sequence in flight. Requests join and retire
  between iterations without draining the batch;
* prefills are prioritized over decode steps (admit-heavy, the
  continuous-batching scheduling choice that bounds TTFT).

Faults reuse the PR 3 machinery unchanged: a seeded
:class:`~repro.faults.model.FaultModel` (or a hand-built schedule)
injects outages, slowdowns, and mid-step kills. KV caches are
core-resident state, so a core dying mid-step destroys the *generated
prefix of every active request on that core*; survivors re-enqueue with
their original arrival times under the model's retry budget and
timeout, and re-prefill from scratch when re-admitted.

A :class:`~repro.serving.recovery.RecoveryPolicy` changes those loss
semantics into the checkpointed ones the training-supercomputer
retrospective argues for (PAPERS.md):

* every ``checkpoint_every`` generated tokens, due sequences take one
  *snapshot step* — their KV caches copy HBM → host through a lowered
  DMA program priced by the same replay as every other step (bytes in
  the ``bytes_by_level`` ledger; see :mod:`repro.serving.recovery`), so
  checkpoint cadence is a measurable latency-vs-recovery tradeoff;
* a killed sequence whose snapshot covers ``snap`` tokens re-enqueues
  as a *resume*: on re-admission it runs one *restore step* (snapshot
  reload + a delta re-prefill of only the uncovered generated suffix)
  instead of re-prefilling its whole prompt and regenerating
  everything. Its first token already streamed, so TTFT keeps the
  original prefill time while the per-token latency honestly absorbs
  the outage and restore;
* a permanently dead core's pending requests — and its active
  sequences still admissible under the retry budget/timeout — *migrate*
  round-robin to surviving cores instead of being dropped wholesale
  (they become visible to survivors at the death instant, never
  earlier).

Goodput accounting runs with or without a policy:
:class:`ContinuousStats` counts every token computed (prefill, decode,
delta re-prefill), every token recomputed after a loss, and every token
a snapshot recovered; ``goodput_fraction`` is generated ÷ computed —
1.0 exactly on a faultless run.

Each engine step is chosen in a fixed order: the oldest admitted slot
still needing its prefill or restore; else, when checkpointing, one
snapshot step over every due slot; else one decode step over every
active slot. Between events a decode step repeats exactly — same
members, KV bucket and latency — so one loop iteration commits a whole
*uniform decode run* of ``k`` steps, where ``k`` stops before the first
of five events: a retirement (``min(target - produced)``), the deepest
slot crossing its KV bucket (``bucket - deepest + 1``, unless the bucket
is the last), a snapshot falling due (``min(every - (produced -
snap))``), an admissible arrival (no step starts at or after the queue
head's ready time while a slot is free), and a fault or slowdown edge
(every extra step completes before
:meth:`~repro.faults.model.FaultSchedule.next_boundary`; a run starting
where an outage ended takes no extra step). The clock advances by ``k``
sequential additions, so every completion time is the float a one-step
iteration produces; ``k = 1`` *is* the one-step iteration. Decode is
lockstep — slots store offsets against a per-core decode counter, so a
run commits in O(1) and step selection reads precomputed retire and
snapshot deadlines — and fault state is read once per schedule window
(DESIGN.md, "Generative serving", "One path").

This event loop is the layer's one path: there is no vectorized twin,
and the byte-identity contract is two-fold — run-to-run determinism
(asserted in ``tests/test_generative.py`` and ``tests/test_recovery.py``;
CI diffs two ``repro llm`` runs), and a zero-checkpoint zero-fault
:class:`~repro.serving.recovery.RecoveryPolicy` being bit-identical to
running with no policy at all
(``tests/test_recovery.py::TestZeroCheckpointIdentity``). The run
edge cases are frozen in ``tests/golden/continuous.json``, whose
digests were taken from the one-step loop this one replaced.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Mapping, Optional, Sequence, Tuple

from repro.core.design_point import DesignPoint
from repro.engine import grid
from repro.faults.model import FaultModel, FaultSchedule
from repro.obs.metrics import metrics
from repro.serving.batching import BatchPolicy
from repro.serving.recovery import RecoveryPolicy, snapshot_latency_table, \
    snapshot_seconds
from repro.serving.server import check_seed_latency, serving_inputs
from repro.serving.slo import check_load, percentile_sorted
from repro.workloads.generative import GenerativeSpec, GenRequest


@dataclass(frozen=True)
class GenerativeSlo:
    """The generative latency contract: TTFT plus a per-token budget.

    One number cannot describe an autoregressive request — a fast first
    token with slow streaming and a slow first token with fast streaming
    are different failures. Violations are tracked separately against
    each budget at the same percentile.
    """

    ttft_s: float
    per_token_s: float
    pct: float = 99.0

    def __post_init__(self) -> None:
        for name in ("ttft_s", "per_token_s"):
            value = getattr(self, name)
            # Phrased to reject NaN, which would pass every ``>`` check
            # and silently report zero violations.
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"SLO budget {name} must be positive and finite, "
                    f"got {value!r}")
        if not 0 < self.pct <= 100:
            raise ValueError("percentile must be in (0, 100]")


@dataclass(frozen=True)
class ContinuousStats:
    """Outcome of one continuous-batching simulation.

    Request conservation is a constructor invariant, exactly as in
    :class:`~repro.serving.server.ServingStats`: ``requests == served +
    dropped`` (continuous engines sit below any admission control, so
    there is no shed bucket). ``served_requests`` defaults to "derive
    it" for hand-built instances; the simulator always passes its actual
    retirement count.

    Goodput accounting is a second invariant: ``tokens_computed`` (every
    token the engines actually produced — prefills, decodes, and delta
    re-prefills after a fault) can never be less than
    ``tokens_generated`` (the tokens of *served* requests), because
    every delivered token was computed at least once.
    ``goodput_fraction`` is their ratio; ``wasted_tokens`` the
    difference — work burned on sequences that were later killed or
    dropped. ``recomputed_tokens`` counts the subset of computed tokens
    that repeated an earlier computation of the same position;
    ``recovered_tokens`` counts positions a snapshot restore made
    *unnecessary* to recompute.
    """

    workload: str
    chip: str
    requests: int
    duration_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    per_token_p50_s: float
    per_token_p99_s: float
    tokens_generated: int
    prefill_steps: int
    decode_steps: int
    mean_decode_batch: float
    tokens_per_s: float
    ttft_violation_fraction: float
    per_token_violation_fraction: float
    availability: float = 1.0
    retried_requests: int = 0
    dropped_requests: int = 0
    lost_steps: int = 0
    served_requests: int = -1
    tokens_computed: int = -1
    recomputed_tokens: int = 0
    recovered_tokens: int = 0
    migrated_requests: int = 0
    snapshots: int = 0
    snapshot_steps: int = 0
    restore_steps: int = 0

    def __post_init__(self) -> None:
        if self.served_requests < 0:
            object.__setattr__(self, "served_requests",
                               self.requests - self.dropped_requests)
        if self.served_requests + self.dropped_requests != self.requests:
            raise ValueError(
                f"request conservation violated: {self.requests} arrived != "
                f"{self.served_requests} served + {self.dropped_requests} "
                f"dropped")
        if self.tokens_computed < 0:
            object.__setattr__(self, "tokens_computed",
                               self.tokens_generated)
        if self.tokens_computed < self.tokens_generated:
            raise ValueError(
                f"goodput accounting violated: tokens_computed "
                f"{self.tokens_computed} < tokens_generated "
                f"{self.tokens_generated}")

    @property
    def wasted_tokens(self) -> int:
        """Computed tokens that never reached a served request."""
        return self.tokens_computed - self.tokens_generated

    @property
    def goodput_fraction(self) -> float:
        """Useful tokens over computed tokens (1.0 for an idle engine)."""
        if self.tokens_computed == 0:
            return 1.0
        return self.tokens_generated / self.tokens_computed

    def describe(self) -> str:
        base = (f"{self.workload} on {self.chip}: {self.requests} reqs, "
                f"{self.tokens_generated} tokens, TTFT p99 "
                f"{self.ttft_p99_s * 1e3:.2f} ms, per-token p99 "
                f"{self.per_token_p99_s * 1e3:.2f} ms, "
                f"{self.tokens_per_s:.0f} tok/s, mean decode batch "
                f"{self.mean_decode_batch:.1f}")
        if self.retried_requests or self.dropped_requests or self.lost_steps:
            base += (f", {self.availability:.2%} available "
                     f"({self.retried_requests} retries, "
                     f"{self.dropped_requests} dropped, "
                     f"{self.lost_steps} steps lost, goodput "
                     f"{self.goodput_fraction:.2%})")
        if self.snapshots or self.migrated_requests:
            base += (f", {self.snapshots} snapshots, "
                     f"{self.recovered_tokens} tokens recovered, "
                     f"{self.migrated_requests} migrated")
        return base


class _Pending:
    """One queued request plus its recovery context (loop-internal).

    A fresh arrival has no context: zero retries, nothing resumed. A
    re-enqueued casualty carries what its next admission needs — the
    snapshot coverage (``resume_tokens``), how far it had decoded
    (``produced``), its original first-token time, and the deepest
    position any earlier attempt reached (``high_water``, which is what
    recompute counting is measured against). ``ready_s`` is when the
    entry becomes admissible: the arrival time for fresh and same-core
    retried entries, the death instant for migrants. ``order`` is the
    request's index in the original stream — the deterministic
    tiebreaker for merged queues.
    """

    __slots__ = ("request", "retries", "resume_tokens", "produced",
                 "first_token_t", "high_water", "ready_s", "order")

    def __init__(self, request: GenRequest, retries: int,
                 resume_tokens: int, produced: int,
                 first_token_t: Optional[float], high_water: int,
                 ready_s: float, order: int) -> None:
        self.request = request
        self.retries = retries
        self.resume_tokens = resume_tokens
        self.produced = produced
        self.first_token_t = first_token_t
        self.high_water = high_water
        self.ready_s = ready_s
        self.order = order


class _Slot:
    """One admitted request's engine-side state (mutable, loop-internal).

    Decode is lockstep: every decode step advances every active slot,
    and no decode step runs while a slot awaits its prefill or restore.
    So a slot stores ``base``, its generated-token count minus its
    core's decode counter ``decoded``, and ``base + decoded`` is how
    many tokens it has produced at any instant. Once it decodes, its
    deadlines are values of that counter: ``retire_at`` when it reaches
    ``target``, ``snap_at`` when its progress past the snapshot reaches
    the checkpoint cadence (``inf`` without checkpointing). ``depth``
    is ``prompt_len + base``, its KV depth minus ``decoded``.
    """

    __slots__ = ("request", "retries", "base", "target", "prefill_t",
                 "snap", "high_water", "restore_pending", "order",
                 "retire_at", "snap_at", "depth")

    def __init__(self, entry: _Pending, target: int, decoded: int) -> None:
        self.request = entry.request
        self.retries = entry.retries
        self.base = entry.produced - decoded
        self.target = target            # decode_len capped at max_decode_len
        self.prefill_t = entry.first_token_t  # first-token time, or None
        self.snap = entry.resume_tokens       # tokens covered by snapshot
        self.high_water = entry.high_water    # deepest earlier attempt
        self.restore_pending = entry.resume_tokens > 0
        self.order = entry.order


def _bucket_table(buckets: Sequence[int], low: int) -> dict[int, int]:
    """``length -> bucket`` over one ascending bucket ladder, built once.

    Maps every length from ``low`` up to the largest bucket to the
    smallest bucket covering it. Callers look other lengths (deeper than
    the ladder, or invalid) up with the spec method the table
    tabulates, so they saturate or raise exactly as that method does.
    """
    table: dict[int, int] = {}
    for bucket in buckets:
        table.update(dict.fromkeys(range(low, bucket + 1), bucket))
        low = bucket + 1
    return table


def _fault_window(schedule: FaultSchedule, core: int,
                  t: float) -> Tuple[float, Optional[float], float]:
    """``(end, outage end, slowdown factor)`` of ``core``'s window at ``t``.

    ``end`` is :meth:`~repro.faults.model.FaultSchedule.next_boundary`.
    Under the schedule's half-open contract the outage end and the
    slowdown factor answer the same at every instant of ``[t, end)``,
    and no outage starts strictly inside it, so the engine loop reads
    them once per window instead of once per step.
    """
    return (schedule.next_boundary(core, t), schedule.outage_end(core, t),
            schedule.slowdown_factor(core, t))


#: Engine step kinds, in the order step selection considers them.
_PREFILL, _RESTORE, _SNAPSHOT, _DECODE = range(4)


class _Accumulator:
    """Cross-core tallies folded into ContinuousStats at the end."""

    __slots__ = ("ttft", "per_token", "served", "dropped", "retried",
                 "tokens", "prefills", "decode_steps", "decode_batch_sum",
                 "lost_steps", "last_completion", "computed", "recomputed",
                 "recovered", "migrated", "snapshots", "snapshot_steps",
                 "restores", "iterations")

    def __init__(self) -> None:
        self.ttft: List[float] = []
        self.per_token: List[float] = []
        self.served = 0
        self.dropped = 0
        self.retried = 0
        self.tokens = 0
        self.prefills = 0
        self.decode_steps = 0
        self.decode_batch_sum = 0
        self.lost_steps = 0
        self.last_completion = 0.0
        self.computed = 0
        self.recomputed = 0
        self.recovered = 0
        self.migrated = 0
        self.snapshots = 0
        self.snapshot_steps = 0
        self.restores = 0
        self.iterations = 0  # engine-loop iterations, for the counters


def _check_slots(slots: int) -> None:
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots!r}")


class ContinuousBatchingSimulator:
    """Slot-based continuous batching of one generative model on one chip."""

    def __init__(self, point: DesignPoint, spec: GenerativeSpec,
                 slots: Optional[int] = None,
                 slo: Optional[GenerativeSlo] = None,
                 max_decode_len: Optional[int] = None,
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        self.point = point
        self.spec = spec
        self.slots = slots if slots is not None else spec.default_slots
        _check_slots(self.slots)
        self.slo = slo if slo is not None else GenerativeSlo(
            spec.slo_ttft_ms / 1e3, spec.slo_per_token_ms / 1e3)
        self.max_decode_len = (max_decode_len if max_decode_len is not None
                               else spec.max_decode_len)
        if self.max_decode_len < 1:
            raise ValueError("max_decode_len must be >= 1")
        self.recovery = recovery
        # Decode batches pad to the same power-of-two ladder the classic
        # batcher compiles for; the policy also rejects padded_size(0),
        # so an empty decode step can never be priced.
        self._policy = BatchPolicy(max_batch=self.slots, max_wait_s=0.0)
        self._padded_of = [0] + [self._policy.padded_size(n)
                                 for n in range(1, self.slots + 1)]
        self._kv_bucket = _bucket_table(spec.kv_buckets, 0)
        self._prompt_bucket = _bucket_table(spec.prompt_buckets, 1)
        self._latency: dict[Tuple[str, int, int], float] = {}

    # ------------------------------------------------------------- latencies

    def step_latency_s(self, phase: str, bucket: int, batch: int) -> float:
        """Compute latency of one engine step (memoized).

        Keyed by (phase, sequence bucket, padded batch). The sweeps seed
        this memo from :func:`phase_latency_table` and
        :func:`~repro.serving.recovery.snapshot_latency_table`, which
        cover only the spec's reachable KV buckets; any other key (a
        prompt over ``max_prompt``, a larger ``max_decode_len``, or an
        unseeded simulator) is priced here on first use, in the chip's
        native dtype as the tables are, so TPUv1 runs its int8
        retarget. Prefill and decode route through the design point and
        therefore the engine EvalCache, whose keys carry the phase and
        KV bucket explicitly. The ``"snapshot"`` phase prices the
        policy's HBM → host KV copy through the lowered-IR replay in
        :mod:`repro.serving.recovery`.
        """
        padded = self._policy.padded_size(batch)
        key = (phase, bucket, padded)
        if key not in self._latency:
            if phase == "snapshot":
                link = (self.recovery.host_link if self.recovery is not None
                        else RecoveryPolicy().host_link)
                self._latency[key] = snapshot_seconds(
                    self.point, self.spec, bucket, padded, host_link=link)
            else:
                spec = (self.spec.prefill(bucket) if phase == "prefill"
                        else self.spec.decode(bucket))
                self._latency[key] = self.point.latency_s(
                    spec, padded, dtype=self.point.chip.native_dtype)
        return self._latency[key]

    def seed_latencies(
            self, table: Mapping[Tuple[str, int, int], float]) -> None:
        """Pre-seed the (phase, bucket, padded batch) -> latency memo.

        For latencies obtained outside the design point's default path —
        an int8-retargeted compile on a chip without bf16 (TPUv1), a
        :func:`~repro.serving.recovery.snapshot_latency_table`, or a
        synthetic table in tests.
        """
        for key, latency in table.items():
            phase, _bucket, batch = key
            if phase not in ("prefill", "decode", "snapshot"):
                raise ValueError(f"unknown phase {phase!r}")
            if batch < 1:
                raise ValueError("batch must be >= 1")
            check_seed_latency(key, latency)
        self._latency.update(table)

    def _restore_latency_s(self, slot: _Slot, produced: int) -> float:
        """One restore step: snapshot reload + delta re-prefill.

        The reload prices like the snapshot that produced it (the
        transfer is byte-symmetric, host → HBM); the uncovered generated
        suffix — positions the snapshot missed but the user already
        received — re-prefills at the suffix's prompt bucket. Long
        suffixes saturate at the largest prompt bucket, the same
        conservative padding trade prefill itself makes.
        """
        depth = slot.request.prompt_len + slot.snap
        latency = self.step_latency_s(
            "snapshot", self.spec.kv_bucket(depth), 1)
        suffix = produced - slot.snap
        if suffix > 0:
            latency += self.step_latency_s(
                "prefill", self.spec.prompt_bucket(suffix), 1)
        return latency

    # -------------------------------------------------------------- simulate

    def simulate(self, requests: Sequence[GenRequest],
                 faults: Optional["FaultModel"] = None,
                 schedule: Optional["FaultSchedule"] = None
                 ) -> ContinuousStats:
        """Run the continuous-batching engines over a sorted request stream.

        Unlike the classic simulator, an empty stream is a valid quiet
        window (continuous engines idle between bursts), returning
        all-zero stats rather than raising.

        With a migrating :class:`~repro.serving.recovery.RecoveryPolicy`
        and a schedule containing permanent core deaths, the dying
        cores run first: the work they lose at death — pending entries,
        plus active sequences still admissible under the retry
        budget/timeout — rebalances round-robin onto the surviving
        cores' queues (ready at the death instant), and only then do
        the survivors run. Without a policy (or with no survivor), a
        permanent death keeps the PR 9 semantics: the core's whole
        substream is dropped.
        """
        cores = self.point.chip.cores
        _arrivals, schedule, retry_budget, retry_timeout = serving_inputs(
            requests, faults, schedule, cores, empty_ok=True)

        substreams: List[List[_Pending]] = [[] for _ in range(cores)]
        for order, request in enumerate(requests):
            substreams[order % cores].append(_Pending(
                request, 0, 0, 0, None, 0, request.arrival_s, order))

        dying: List[int] = []
        survivors = list(range(cores))
        if (self.recovery is not None and self.recovery.migrate
                and schedule is not None):
            deaths = [schedule.permanent_death_s(core)
                      for core in range(cores)]
            dying = [c for c in range(cores) if deaths[c] is not None]
            survivors = [c for c in range(cores) if deaths[c] is None]

        acc = _Accumulator()
        if dying and survivors:
            migrants: List[_Pending] = []
            for core in dying:
                if substreams[core]:
                    self._run_core(core, deque(substreams[core]), schedule,
                                   retry_budget, retry_timeout, acc, migrants)
            acc.migrated = len(migrants)
            migrants.sort(key=lambda e: (e.ready_s, e.request.arrival_s,
                                         e.order))
            assigned: dict[int, List[_Pending]] = {c: [] for c in survivors}
            for index, entry in enumerate(migrants):
                assigned[survivors[index % len(survivors)]].append(entry)
            for core in survivors:
                merged = sorted(substreams[core] + assigned[core],
                                key=lambda e: (e.ready_s, e.order))
                if merged:
                    self._run_core(core, deque(merged), schedule,
                                   retry_budget, retry_timeout, acc, None)
        else:
            for core in range(cores):
                if substreams[core]:
                    self._run_core(core, deque(substreams[core]), schedule,
                                   retry_budget, retry_timeout, acc, None)

        stats = self._finalize(requests, acc)
        reg = metrics()
        if reg.enabled:
            reg.counter("continuous.requests").inc(stats.requests)
            reg.counter("continuous.served").inc(stats.served_requests)
            reg.counter("continuous.dropped").inc(stats.dropped_requests)
            reg.counter("continuous.retried").inc(stats.retried_requests)
            reg.counter("continuous.migrated").inc(stats.migrated_requests)
            reg.counter("continuous.snapshots").inc(stats.snapshots)
            reg.counter("continuous.tokens_computed").inc(
                stats.tokens_computed)
            reg.counter("continuous.recovered_tokens").inc(
                stats.recovered_tokens)
            reg.counter("continuous.wasted_tokens").inc(stats.wasted_tokens)
            # One iteration commits one step or a whole decode run, so
            # engine_steps / loop_iterations is the fast-forward's saving.
            reg.counter("continuous.engine_steps").inc(
                stats.prefill_steps + stats.decode_steps
                + stats.snapshot_steps + stats.restore_steps)
            reg.counter("continuous.loop_iterations").inc(acc.iterations)
        return stats

    def _requeue_entry(self, slot: _Slot, produced: int,
                       ready_s: Optional[float] = None) -> _Pending:
        """The pending entry a killed slot re-enqueues as.

        ``produced`` is the slot's generated-token count, materialized
        from its lockstep offset (:class:`_Slot`). With a policy and a
        snapshot, the slot resumes — its coverage, progress, and
        original first-token time travel with it. Otherwise it restarts
        from scratch, re-prefilling its prompt; either way ``high_water``
        remembers the deepest position reached, so the tokens the next
        attempt replays are counted as recomputed. ``ready_s`` defaults
        to the original arrival (same-core retry); migration passes the
        death instant.
        """
        arrival = slot.request.arrival_s
        ready = arrival if ready_s is None else max(arrival, ready_s)
        high_water = max(slot.high_water, produced)
        if self.recovery is not None and slot.snap > 0:
            return _Pending(slot.request, slot.retries + 1, slot.snap,
                            produced, slot.prefill_t, high_water,
                            ready, slot.order)
        return _Pending(slot.request, slot.retries + 1, 0, 0, None,
                        high_water, ready, slot.order)

    def _lose_core(self, active: List[_Slot], pending: Deque[_Pending],
                   t: float, decoded: int, retry_budget: int,
                   retry_timeout: float, acc: _Accumulator,
                   migrants_out: Optional[List[_Pending]]) -> None:
        """A core is gone for good at ``t``: migrate or drop its work.

        Without migration (``migrants_out is None``) everything the core
        owns — active prefixes and its whole static substream — is lost,
        the PR 9 semantics. With migration, active sequences are gated
        by the same retry budget/timeout every mid-step kill applies
        (the satellite fix: a request is only dropped when a retry
        would be inadmissible anyway), and pending entries move without
        consuming a retry — they had no in-flight work to lose.
        ``decoded`` is the core's decode counter at the loss.
        """
        if migrants_out is None:
            acc.dropped += len(active) + len(pending)
            return
        for slot in active:
            if (slot.retries + 1 > retry_budget
                    or t - slot.request.arrival_s > retry_timeout):
                acc.dropped += 1
            else:
                acc.retried += 1
                migrants_out.append(self._requeue_entry(
                    slot, slot.base + decoded, ready_s=t))
        for entry in pending:
            entry.ready_s = max(entry.ready_s, t)
            migrants_out.append(entry)

    def _run_core(self, core: int, pending: Deque[_Pending],
                  schedule: Optional["FaultSchedule"], retry_budget: int,
                  retry_timeout: float, acc: _Accumulator,
                  migrants_out: Optional[List[_Pending]]) -> None:
        """One core's engine loop over its (possibly merged) queue.

        Each iteration commits one step, or a whole uniform decode run:
        after the run's first step passes the fault checks, the loop
        fast-forwards through the steps that would repeat it exactly
        (see the module docstring for the five events that end a run).
        Decode is lockstep (:class:`_Slot`): a run adds to one counter,
        and step selection reads deadlines kept over the decoding slots
        instead of visiting them. Fault state is read once per window
        of the schedule (:func:`_fault_window`). Tallies stay in locals
        and fold into ``acc`` once, when the core's queue is done.
        """
        slots = self.slots
        spec = self.spec
        last_bucket = spec.kv_buckets[-1]
        kv_bucket = self._kv_bucket
        prompt_bucket = self._prompt_bucket
        padded_of = self._padded_of
        latencies = self._latency
        every = (self.recovery.checkpoint_every
                 if self.recovery is not None and self.recovery.checkpointing
                 else 0)
        inf = math.inf

        active: List[_Slot] = []
        # Admitted slots still needing their prefill or restore, oldest
        # first. Every admission lands here and only its own step
        # leaves, so the head is always the oldest such active slot.
        awaiting: Deque[_Slot] = deque()
        # Decoding slots still below an earlier attempt's depth: their
        # decode steps recompute positions computed before.
        replaying: List[_Slot] = []
        decoded = 0  # decode steps this core has committed
        # Over the decoding slots: the earliest retire_at and snap_at,
        # and the greatest depth (all in _Slot's lockstep terms).
        first_retire = first_snap = inf
        depth_max = -inf
        now = last = 0.0
        # The fault window [.., win_end) holding the clock, and the
        # state it fixes; without a schedule one window spans all time.
        win_end = -inf if schedule is not None else inf
        down_until: Optional[float] = None
        factor = 1.0
        lost_at: Optional[float] = None  # the core died for good here

        iterations = served = tokens = dropped = retried = lost_steps = 0
        prefills = restores = snapshot_steps = snapshots = 0
        decode_steps = decode_batch_sum = 0
        computed = recomputed = recovered = 0
        ttft_append = acc.ttft.append
        per_token_append = acc.per_token.append

        while pending or active:
            iterations += 1
            if not active and pending[0].ready_s > now:
                now = pending[0].ready_s

            waited = False
            if schedule is not None:
                if win_end <= now:
                    win_end, down_until, factor = _fault_window(
                        schedule, core, now)
                if down_until is not None:
                    if down_until == inf:
                        lost_at = now
                        break
                    now = down_until
                    waited = True
                    # The wait moved the clock to an edge of the window,
                    # so the state that holds from here is the next one.
                    win_end, down_until, factor = _fault_window(
                        schedule, core, now)

            # Admission: ready requests claim free slots FIFO. A
            # retried request whose re-admission would already exceed
            # the retry timeout is dropped here, never served late.
            while (pending and len(active) < slots
                   and pending[0].ready_s <= now):
                entry = pending.popleft()
                if (entry.retries > 0
                        and now - entry.request.arrival_s > retry_timeout):
                    dropped += 1
                    continue
                slot = _Slot(entry, min(entry.request.decode_len,
                                        self.max_decode_len), decoded)
                active.append(slot)
                awaiting.append(slot)
            if not active:
                continue  # timed-out retries only; re-check arrivals

            # Step selection: the oldest slot needing a prefill or a
            # restore first; then a snapshot step for every sequence
            # whose uncovered progress reached the cadence; else a
            # decode run over every slot, which runs until the earliest
            # retirement or snapshot deadline.
            steps_max = 1
            if awaiting:
                slot = awaiting[0]
                if slot.restore_pending:
                    phase = _RESTORE
                    latency = self._restore_latency_s(slot,
                                                      slot.base + decoded)
                else:
                    phase = _PREFILL
                    prompt = slot.request.prompt_len
                    bucket = (prompt_bucket.get(prompt)
                              or spec.prompt_bucket(prompt))
                    latency = latencies.get(("prefill", bucket,
                                             padded_of[1]))
                    if latency is None:
                        latency = self.step_latency_s("prefill", bucket, 1)
            elif first_snap <= decoded:
                phase = _SNAPSHOT
                members = []
                deepest = -inf
                rest = inf  # the earliest snap_at among the others
                for slot in active:
                    if slot.snap_at <= decoded:
                        members.append(slot)
                        if slot.depth > deepest:
                            deepest = slot.depth
                    elif slot.snap_at < rest:
                        rest = slot.snap_at
                size = len(members)
                deepest += decoded
                bucket = kv_bucket.get(deepest) or spec.kv_bucket(deepest)
                latency = latencies.get(("snapshot", bucket,
                                         padded_of[size]))
                if latency is None:
                    latency = self.step_latency_s("snapshot", bucket, size)
            else:
                phase = _DECODE
                size = len(active)
                deepest = depth_max + decoded
                steps_max = (first_retire if first_retire < first_snap
                             else first_snap) - decoded
                bucket = kv_bucket.get(deepest) or spec.kv_bucket(deepest)
                if bucket != last_bucket and bucket - deepest + 1 < steps_max:
                    steps_max = bucket - deepest + 1
                latency = latencies.get(("decode", bucket, padded_of[size]))
                if latency is None:
                    latency = self.step_latency_s("decode", bucket, size)
            latency *= factor
            completion = now + latency

            # No outage starts strictly inside the window, so only a
            # step completing past its end can meet one.
            if completion > win_end:
                failure = schedule.first_failure_between(core, now,
                                                         completion)
                if failure is not None:
                    # The core died mid-step. KV caches are core-resident,
                    # so EVERY active request loses its generated prefix
                    # beyond its last snapshot, not just the step's
                    # members; survivors re-enqueue (front, original
                    # arrivals) and resume or re-prefill when re-admitted.
                    fail_start, fail_end = failure
                    lost_steps += 1
                    if fail_end == inf:
                        lost_at = fail_start  # the core never comes back
                        break
                    survivors: List[_Pending] = []
                    for slot in active:
                        if (slot.retries + 1 > retry_budget
                                or fail_start - slot.request.arrival_s
                                > retry_timeout):
                            dropped += 1
                        else:
                            retried += 1
                            survivors.append(self._requeue_entry(
                                slot, slot.base + decoded))
                    pending.extendleft(reversed(survivors))
                    active = []
                    awaiting.clear()
                    replaying = []
                    first_retire = first_snap = inf
                    depth_max = -inf
                    now = fail_end
                    continue

            # Fast-forward: while nothing can change, the next decode
            # step repeats this one exactly. Each extra step starts at
            # the previous completion; it stops short of an admissible
            # arrival and must complete before the next fault or
            # slowdown edge. A step that starts where an outage ended
            # never repeats: after abutting outages it may start inside
            # the next one. The clock advances by the same sequential
            # additions one step per iteration made.
            steps = 1
            if steps_max > 1 and not waited:
                ready = (pending[0].ready_s
                         if pending and len(active) < slots else inf)
                while steps < steps_max and completion < ready:
                    following = completion + latency
                    if following >= win_end:
                        break
                    completion = following
                    steps += 1

            # Commit the step (or run).
            now = last = completion
            if phase == _DECODE:
                decode_steps += steps
                decode_batch_sum += steps * size
                computed += steps * size
                if replaying:
                    for slot in replaying:
                        replayed = slot.high_water - slot.base - decoded
                        recomputed += steps if steps < replayed else replayed
                    decoded += steps
                    replaying = [s for s in replaying
                                 if s.high_water > s.base + decoded]
                else:
                    decoded += steps
                if first_retire <= decoded:
                    # Retirement, in one pass that also recomputes the
                    # deadlines over the slots that stay.
                    keep: List[_Slot] = []
                    first_retire = first_snap = inf
                    depth_max = -inf
                    for slot in active:
                        if slot.retire_at <= decoded:
                            target = slot.target
                            served += 1
                            tokens += target
                            ttft_append(slot.prefill_t
                                        - slot.request.arrival_s)
                            if target > 1:
                                per_token_append(
                                    (completion - slot.prefill_t)
                                    / (target - 1))
                        else:
                            keep.append(slot)
                            if slot.retire_at < first_retire:
                                first_retire = slot.retire_at
                            if slot.snap_at < first_snap:
                                first_snap = slot.snap_at
                            if slot.depth > depth_max:
                                depth_max = slot.depth
                    active = keep
                continue
            if phase == _SNAPSHOT:
                snapshot_steps += 1
                snapshots += size
                due = decoded + every
                for slot in members:
                    slot.snap = slot.base + decoded
                    slot.snap_at = due
                first_snap = rest if rest < due else due
                continue

            slot = awaiting.popleft()
            if phase == _PREFILL:
                slot.prefill_t = completion
                prefills += 1
                computed += 1
                if slot.high_water >= 1:
                    recomputed += 1
                if slot.target <= 1:
                    active.remove(slot)
                    served += 1
                    tokens += slot.target
                    ttft_append(completion - slot.request.arrival_s)
                    continue
                slot.base = 1 - decoded
            else:
                suffix = slot.base + decoded - slot.snap
                computed += suffix
                recomputed += suffix
                recovered += slot.snap
                restores += 1
                slot.restore_pending = False
            # The slot decodes from here: enter its deadlines.
            base = slot.base
            slot.retire_at = slot.target - base
            if slot.retire_at < first_retire:
                first_retire = slot.retire_at
            slot.snap_at = every + slot.snap - base if every else inf
            if slot.snap_at < first_snap:
                first_snap = slot.snap_at
            slot.depth = slot.request.prompt_len + base
            if slot.depth > depth_max:
                depth_max = slot.depth
            if slot.high_water > base + decoded:
                replaying.append(slot)

        if lost_at is not None:
            self._lose_core(active, pending, lost_at, decoded, retry_budget,
                            retry_timeout, acc, migrants_out)
        acc.iterations += iterations
        acc.served += served
        acc.tokens += tokens
        acc.dropped += dropped
        acc.retried += retried
        acc.lost_steps += lost_steps
        acc.prefills += prefills
        acc.restores += restores
        acc.snapshot_steps += snapshot_steps
        acc.snapshots += snapshots
        acc.decode_steps += decode_steps
        acc.decode_batch_sum += decode_batch_sum
        acc.computed += computed
        acc.recomputed += recomputed
        acc.recovered += recovered
        if last > acc.last_completion:
            acc.last_completion = last

    def _finalize(self, requests: Sequence[GenRequest],
                  acc: _Accumulator) -> ContinuousStats:
        total = len(requests)
        duration = (max(acc.last_completion, requests[-1].arrival_s)
                    - requests[0].arrival_s) if requests else 0.0
        ttft = sorted(acc.ttft)
        per_token = sorted(acc.per_token)

        def _violations(ordered: List[float], limit: float) -> float:
            if not ordered:
                return 0.0
            return sum(1 for v in ordered if v > limit) / len(ordered)

        return ContinuousStats(
            workload=self.spec.name,
            chip=self.point.chip.name,
            requests=total,
            duration_s=duration,
            ttft_p50_s=percentile_sorted(ttft, 50) if ttft else 0.0,
            ttft_p99_s=percentile_sorted(ttft, self.slo.pct) if ttft else 0.0,
            per_token_p50_s=(percentile_sorted(per_token, 50)
                             if per_token else 0.0),
            per_token_p99_s=(percentile_sorted(per_token, self.slo.pct)
                             if per_token else 0.0),
            tokens_generated=acc.tokens,
            prefill_steps=acc.prefills,
            decode_steps=acc.decode_steps,
            mean_decode_batch=(acc.decode_batch_sum / acc.decode_steps
                               if acc.decode_steps else 0.0),
            tokens_per_s=acc.tokens / duration if duration > 0 else 0.0,
            ttft_violation_fraction=_violations(ttft, self.slo.ttft_s),
            per_token_violation_fraction=_violations(
                per_token, self.slo.per_token_s),
            availability=acc.served / total if total else 1.0,
            retried_requests=acc.retried,
            dropped_requests=acc.dropped,
            lost_steps=acc.lost_steps,
            served_requests=acc.served,
            tokens_computed=acc.computed,
            recomputed_tokens=acc.recomputed,
            recovered_tokens=acc.recovered,
            migrated_requests=acc.migrated,
            snapshots=acc.snapshots,
            snapshot_steps=acc.snapshot_steps,
            restore_steps=acc.restores,
        )


# ----------------------------------------------------------------- sweeps

def phase_latency_table(point: DesignPoint, spec: GenerativeSpec,
                        slots: int, *, dtype: Optional[str] = None
                        ) -> dict[Tuple[str, int, int], float]:
    """(phase, bucket, padded batch) -> latency for one (chip, model).

    The generative analogue of :func:`repro.faults.sweep.latency_table`:
    every prompt bucket at batch 1 and every *reachable* KV bucket
    (:attr:`~repro.workloads.generative.GenerativeSpec.
    reachable_kv_buckets`) at every padded batch step, priced through
    one batched grid-kernel pass in ``dtype`` (default: the chip's
    native dtype, so TPUv1 runs its int8 retarget). The results land in
    the point's EvalCache under the same phase-aware keys ``latency_s``
    uses. A seeded simulator prices a deeper bucket lazily, in the
    native dtype (:meth:`ContinuousBatchingSimulator.step_latency_s`).
    """
    kv_buckets = spec.reachable_kv_buckets
    entries: List[Tuple[str, int, int]] = []
    for bucket in spec.prompt_buckets:
        entries.append(("prefill", bucket, 1))
    for bucket in kv_buckets:
        for step in BatchPolicy.batch_steps(slots):
            entries.append(("decode", bucket, step))

    if dtype is None:
        dtype = point.chip.native_dtype
    phase_specs = {("prefill", b): spec.prefill(b) for b in spec.prompt_buckets}
    phase_specs.update({("decode", b): spec.decode(b) for b in kv_buckets})
    results = grid.run_grid([
        grid.GridJob(point, phase_specs[(phase, bucket)], batch,
                     dtype=dtype)
        for phase, bucket, batch in entries])
    return {entry: r.seconds for entry, r in zip(entries, results)}


@dataclass(frozen=True)
class LlmSweepRow:
    """One (chip, model) outcome of the generative serving sweep."""

    chip: str
    model: str
    slots: int
    offered_qps: float
    decode_ops_per_byte: float
    decode_memory_bound: bool
    stats: ContinuousStats


@dataclass(frozen=True)
class LlmChaosRow:
    """One (chip, model, scenario, policy) outcome of the chaos sweep."""

    chip: str
    model: str
    scenario: str
    policy: str
    checkpoint_every: int
    stats: ContinuousStats


def _sweep_pairs(seed: int, models: Sequence[str],
                 chips: Optional[Sequence], duration_s: float,
                 slots: Optional[int], utilization: float) -> List[tuple]:
    """The shared (chip, model) setup behind both generative sweeps.

    One entry per pair: the design point, seeded latency table, derived
    offered rate, and sampled request stream. Deriving the rate from the
    seeded table keeps every sweep a pure function of its arguments —
    same seed, same traffic, byte for byte.
    """
    from repro.arch import GENERATIONS
    from repro.core.design_point import shared_design_point
    from repro.workloads.generative import generative_by_name, \
        sample_gen_requests

    check_load(duration_s, utilization)
    if slots is not None:
        _check_slots(slots)
    chip_list = tuple(chips) if chips is not None else GENERATIONS

    pairs: List[tuple] = []
    for pair_index, (chip, model) in enumerate(
            (c, m) for c in chip_list for m in models):
        spec = generative_by_name(model)
        point = shared_design_point(chip)
        n_slots = slots if slots is not None else spec.default_slots
        table = phase_latency_table(point, spec, n_slots)

        # Steady-state capacity: a full decode batch advances n_slots
        # sequences one token per step, and a request needs one prefill
        # plus ~mean_decode steps of its slot. Offered load derives from
        # the seeded table, so the sweep stays a pure function of its
        # arguments across runs.
        policy = BatchPolicy(max_batch=n_slots, max_wait_s=0.0)
        decode_s = table[("decode", spec.kv_buckets[0],
                          policy.padded_size(n_slots))]
        prefill_s = table[("prefill", spec.prompt_buckets[0], 1)]
        service_s = spec.mean_decode * decode_s + prefill_s
        capacity_qps = point.chip.cores * n_slots / service_s
        rate_qps = utilization * capacity_qps

        requests = sample_gen_requests(
            spec, seed * 7919 + pair_index, rate_qps, duration_s)
        pairs.append((chip, spec, point, n_slots, table, policy, rate_qps,
                      requests, pair_index))
    return pairs


def llm_sweep(seed: int = 0, *,
              models: Sequence[str] = ("llm0", "llm1"),
              chips: Optional[Sequence] = None,
              duration_s: float = 2.0,
              slots: Optional[int] = None,
              utilization: float = 0.6) -> List[LlmSweepRow]:
    """Continuous-batching serving sweep across chips and decoder models.

    One row per (chip, model): seeded traffic (arrivals + per-request
    prompt/decode lengths) at ``utilization`` of the engine's steady
    decode token throughput, simulated under continuous batching. The
    whole sweep is a pure function of its arguments — same seed, same
    rows, byte for byte (asserted in ``tests/test_generative.py::
    TestLlmSweep::test_deterministic_and_memory_bound``; CI diffs two
    ``repro llm`` runs).
    """
    rows: List[LlmSweepRow] = []
    for (chip, spec, point, n_slots, table, policy, rate_qps, requests,
         _pair_index) in _sweep_pairs(seed, models, chips, duration_s,
                                      slots, utilization):
        if not requests:
            continue  # degenerate rate/duration; nothing to serve

        simulator = ContinuousBatchingSimulator(point, spec, slots=n_slots)
        simulator.seed_latencies(table)
        stats = simulator.simulate(requests)

        decode_spec = spec.decode(spec.kv_buckets[0])
        oi = decode_spec.ops_per_byte(policy.padded_size(n_slots))
        rows.append(LlmSweepRow(
            chip=chip.name, model=spec.name, slots=n_slots,
            offered_qps=rate_qps, decode_ops_per_byte=oi,
            decode_memory_bound=oi < chip.ridge_ops_per_byte(),
            stats=stats))
    return rows


def llm_chaos_sweep(seed: int = 0, *,
                    models: Sequence[str] = ("llm0", "llm1"),
                    chips: Optional[Sequence] = None,
                    duration_s: float = 2.0,
                    slots: Optional[int] = None,
                    utilization: float = 0.6,
                    checkpoint_every: int = 8) -> List[LlmChaosRow]:
    """Recovery-policy comparison under chaos, per (chip, model).

    Three scenarios — ``faultless`` (checkpoint overhead in isolation),
    ``kill`` (seeded repairable mid-step core kills), and ``outage``
    (the last core dies permanently mid-stream) — each simulated twice
    over the *same* traffic and fault schedule: once with the PR 9
    scratch-re-prefill baseline (no policy) and once with an
    every-``checkpoint_every``-tokens snapshot policy with migration.
    The goodput, recovery, and migration columns are the measurable
    answer to "what does a checkpoint interval buy": like
    :func:`llm_sweep`, the whole table is a pure function of its
    arguments (asserted by byte-diffing two ``repro llm --faults`` runs
    in CI).
    """
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")

    rows: List[LlmChaosRow] = []
    for (chip, spec, point, n_slots, table, _policy, _rate_qps, requests,
         pair_index) in _sweep_pairs(seed, models, chips, duration_s,
                                     slots, utilization):
        if not requests:
            continue
        cores = chip.cores
        last_arrival = requests[-1].arrival_s
        horizon = last_arrival + 1.0
        # Enough repairable kills to matter, deterministic per pair; the
        # permanent death lands mid-arrival-stream so roughly half the
        # dying core's substream is still in flight or unserved.
        kill_model = FaultModel(seed=seed * 104729 + pair_index,
                                core_mtbf_s=horizon / 6.0,
                                core_repair_s=horizon / 30.0,
                                retry_budget=4)
        quiet_model = FaultModel(retry_budget=4)
        outage = FaultSchedule(
            cores, horizon,
            down=((cores - 1, last_arrival / 2.0, math.inf),))
        scenarios = (("faultless", None, None),
                     ("kill", kill_model, None),
                     ("outage", quiet_model, outage))
        recovery = RecoveryPolicy(checkpoint_every=checkpoint_every)
        snap_table = snapshot_latency_table(
            point, spec, n_slots, host_link=recovery.host_link)
        policies = (("scratch", None),
                    (f"ckpt{checkpoint_every}", recovery))

        for scenario, fault_model, schedule in scenarios:
            for policy_name, policy_recovery in policies:
                simulator = ContinuousBatchingSimulator(
                    point, spec, slots=n_slots, recovery=policy_recovery)
                simulator.seed_latencies(table)
                simulator.seed_latencies(snap_table)
                stats = simulator.simulate(requests, faults=fault_model,
                                           schedule=schedule)
                rows.append(LlmChaosRow(
                    chip=chip.name, model=spec.name, scenario=scenario,
                    policy=policy_name,
                    checkpoint_every=(checkpoint_every
                                      if policy_recovery is not None else 0),
                    stats=stats))
    return rows
