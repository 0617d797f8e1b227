"""Tests for checkpointed KV recovery in continuous batching (ISSUE 10).

Covers the snapshot cost model (lowered-IR DMA rows whose bytes land in
the HBM/host traffic ledger at exactly the KV-cache footprint), the
zero-checkpoint zero-fault bit-identity contract (explicitly and as a
hypothesis seed property), delta re-prefill after a mid-step kill
(snapshot restore, TTFT preservation, recompute counting), sequence
migration off permanently dead cores under the retry budget/timeout,
goodput accounting invariants, and the chaos sweep's determinism.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GENERATIONS, TPUV3, TPUV4I
from repro.core.design_point import shared_design_point
from repro.faults.model import FaultModel, FaultSchedule
from repro.serving import (
    BatchPolicy,
    ContinuousBatchingSimulator,
    ContinuousStats,
    DEFAULT_HOST_LINK,
    HOST_LEVEL,
    RecoveryPolicy,
    llm_chaos_sweep,
    snapshot_latency_table,
    snapshot_lowered,
    snapshot_replay,
    snapshot_seconds,
)
from repro.sim.gridkernel import DMA_OVERHEAD_CYCLES, dma_pools
from repro.sim.lowered import FastReplay
from repro.workloads import GenRequest, generative_by_name, \
    sample_gen_requests

LLM0 = generative_by_name("llm0")

#: Synthetic step latencies: prefill 4 ms, decode 1 ms, snapshot 0.5 ms.
PREFILL_S = 0.004
DECODE_S = 0.001
SNAPSHOT_S = 0.0005


def make_sim(chip=TPUV4I, slots=None, recovery=None, spec=LLM0):
    """A simulator with synthetic seeded latencies for every phase."""
    sim = ContinuousBatchingSimulator(
        shared_design_point(chip), spec, slots=slots, recovery=recovery)
    table = {}
    for bucket in spec.prompt_buckets:
        table[("prefill", bucket, 1)] = PREFILL_S
    for bucket in spec.kv_buckets:
        for step in BatchPolicy.batch_steps(sim.slots):
            table[("decode", bucket, step)] = DECODE_S
            table[("snapshot", bucket, step)] = SNAPSHOT_S
    sim.seed_latencies(table)
    return sim


class TestRecoveryPolicy:
    def test_defaults_do_nothing(self):
        policy = RecoveryPolicy()
        assert not policy.checkpointing
        assert policy.migrate
        assert policy.host_link == DEFAULT_HOST_LINK

    def test_validation_named_values(self):
        with pytest.raises(ValueError, match="checkpoint_every.*-1"):
            RecoveryPolicy(checkpoint_every=-1)
        with pytest.raises(ValueError, match="checkpoint_every"):
            RecoveryPolicy(checkpoint_every=2.5)
        with pytest.raises(ValueError, match="checkpoint_every"):
            RecoveryPolicy(checkpoint_every=True)

    def test_describe(self):
        assert "never" in RecoveryPolicy().describe()
        assert "every 8 tokens" in RecoveryPolicy(
            checkpoint_every=8).describe()


class TestSnapshotPricing:
    def test_ledger_bytes_match_kv_footprint(self):
        """Snapshot bytes flow through the replay's traffic ledger:
        the HBM read and the host write each move exactly the model's
        KV-cache footprint (halved on int8-only TPUv1)."""
        for chip in GENERATIONS:
            point = shared_design_point(chip)
            result = snapshot_replay(point, LLM0, 256, 2)
            ledger = dict(result.counters.bytes_by_level)
            expected = LLM0.kv_cache_bytes(256, 2)
            if not chip.supports_dtype("bf16"):
                expected //= 2  # int8 KV elements
            assert ledger["hbm"] == expected, chip.name
            assert ledger[HOST_LEVEL] == expected, chip.name
            assert result.seconds > 0

    def test_cost_grows_with_bucket_and_batch(self):
        point = shared_design_point(TPUV4I)
        assert (snapshot_seconds(point, LLM0, 256, 1)
                > snapshot_seconds(point, LLM0, 128, 1))
        assert (snapshot_seconds(point, LLM0, 128, 4)
                > snapshot_seconds(point, LLM0, 128, 1))

    def test_host_pool_appended_once(self):
        lowered = snapshot_lowered(TPUV4I, LLM0, 128, 1)
        assert lowered.pools.pool_levels.count(HOST_LEVEL) == 1
        assert HOST_LEVEL in lowered.pools.level_names
        # The chip's real pools are preserved in lower_program's order.
        assert lowered.pools.pool_levels[:-1] == ("cmem", "hbm")
        ledger = FastReplay(TPUV4I).run(lowered).counters.bytes_by_level
        assert set(ledger) == {"vmem", "cmem", "hbm", HOST_LEVEL}
        assert ledger["cmem"] == ledger["vmem"] == 0

    def test_seconds_are_the_serialized_transfers(self):
        """Every K/V read, then the host write, back to back."""
        chip, link = TPUV4I, DEFAULT_HOST_LINK
        per_tensor = 1 * 128 * LLM0.hidden * 2
        reads = 2 * LLM0.layers
        pools = dma_pools(chip)
        hbm = pools.pool_levels.index("hbm")
        clock = chip.clock_hz
        read = (DMA_OVERHEAD_CYCLES + pools.latencies[hbm]
                + math.ceil(per_tensor / pools.bandwidths[hbm] * clock))
        write = (DMA_OVERHEAD_CYCLES + math.ceil(link.latency_s * clock)
                 + math.ceil(reads * per_tensor / link.bandwidth * clock))
        result = FastReplay(chip).run(snapshot_lowered(chip, LLM0, 128, 1))
        assert result.cycles == reads * read + write
        assert result.counters.dma_busy_cycles == reads * read + write
        assert result.seconds == result.cycles / clock

    def test_slower_host_link_costs_more(self):
        point = shared_design_point(TPUV4I)
        from repro.arch.ici import IciLink
        fast = snapshot_seconds(point, LLM0, 256, 1,
                                host_link=IciLink(64e9, 1e-6))
        slow = snapshot_seconds(point, LLM0, 256, 1,
                                host_link=IciLink(4e9, 1e-6))
        assert slow > fast

    def test_table_covers_buckets_and_steps(self):
        point = shared_design_point(TPUV4I)
        table = snapshot_latency_table(point, LLM0, 8)
        expected = {("snapshot", b, s) for b in LLM0.reachable_kv_buckets
                    for s in BatchPolicy.batch_steps(8)}
        assert set(table) == expected
        assert 512 not in {bucket for _, bucket, _ in table}
        assert all(v > 0 for v in table.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="kv_bucket"):
            snapshot_lowered(TPUV4I, LLM0, 0, 1)
        with pytest.raises(ValueError, match="kv_bucket .*got nan"):
            snapshot_lowered(TPUV4I, LLM0, math.nan, 1)
        with pytest.raises(ValueError, match="batch"):
            snapshot_lowered(TPUV4I, LLM0, 128, 0)


class TestZeroCheckpointIdentity:
    def test_explicit_identity(self):
        plain = make_sim(TPUV3)
        zero = make_sim(TPUV3, recovery=RecoveryPolicy(checkpoint_every=0))
        reqs = sample_gen_requests(LLM0, seed=7, rate_qps=600,
                                   duration_s=0.5)
        assert plain.simulate(reqs) == zero.simulate(reqs)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seed_property_zero_fault_zero_ckpt_identical(self, seed):
        """For ANY traffic seed, zero-fault + zero-checkpoint continuous
        batching is bit-identical to the faultless plain path — whether
        the zero-fault configuration arrives as an all-infinite-MTBF
        FaultModel, an empty schedule, or a do-nothing RecoveryPolicy."""
        reqs = sample_gen_requests(LLM0, seed=seed, rate_qps=400,
                                   duration_s=0.4)
        plain = make_sim(TPUV3)
        baseline = plain.simulate(reqs)
        assert plain.simulate(reqs, faults=FaultModel()) == baseline
        assert plain.simulate(
            reqs, schedule=FaultSchedule(2, 1.0)) == baseline
        zero = make_sim(TPUV3, recovery=RecoveryPolicy(checkpoint_every=0))
        assert zero.simulate(reqs) == baseline
        assert baseline.goodput_fraction == 1.0
        assert baseline.tokens_computed == baseline.tokens_generated

    def test_migrate_off_matches_no_policy_under_faults(self):
        """checkpoint_every=0 + migrate=False executes the exact PR 9
        fault path: same drops, same floats, even under a permanent
        outage plus repairable kills."""
        schedule = FaultSchedule(
            2, 3.0, down=[(0, 0.02, 0.05), (1, 0.1, math.inf)])
        reqs = sample_gen_requests(LLM0, seed=3, rate_qps=600,
                                   duration_s=0.5)
        plain = make_sim(TPUV3)
        off = make_sim(TPUV3, recovery=RecoveryPolicy(
            checkpoint_every=0, migrate=False))
        assert (plain.simulate(reqs, schedule=schedule)
                == off.simulate(reqs, schedule=schedule))


class TestCheckpointedRecovery:
    def test_snapshot_cadence(self):
        """Zero faults, checkpoint every 2 tokens: snapshots happen on
        the cadence, cost time (slower run), and change no outcome —
        goodput stays exactly 1.0."""
        plain = make_sim().simulate([GenRequest(0.0, 10, 9)])
        ckpt = make_sim(recovery=RecoveryPolicy(checkpoint_every=2))
        stats = ckpt.simulate([GenRequest(0.0, 10, 9)])
        assert stats.served_requests == 1
        assert stats.snapshot_steps == 4  # at produced 2, 4, 6, 8
        assert stats.snapshots == 4
        assert stats.goodput_fraction == 1.0
        assert stats.duration_s == pytest.approx(
            plain.duration_s + 4 * SNAPSHOT_S)

    def test_delta_reprefill_resumes_from_snapshot(self):
        """Kill a sequence after its snapshot: it restores (one restore
        step, no second prefill), recomputes only the uncovered suffix,
        and keeps its original TTFT."""
        # prefill [0,4ms) -> produced 1; decode [4,5) -> 2; snapshot
        # [5,5.5) snap=2; decode [5.5,6.5) -> 3; decode [6.5,7.5) -> 4;
        # kill inside [6.5,7.5): produced 4 -> lost to snap=2, suffix 2.
        sim = make_sim(recovery=RecoveryPolicy(checkpoint_every=2))
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.007, 0.010)])
        stats = sim.simulate([GenRequest(0.0, 10, 6)], schedule=schedule)
        assert stats.served_requests == 1
        assert stats.lost_steps == 1
        assert stats.retried_requests == 1
        assert stats.prefill_steps == 1      # no scratch re-prefill
        assert stats.restore_steps == 1
        assert stats.recovered_tokens == 2   # snapshot coverage reused
        # Recomputed: decode had reached 4 when killed (the [6.5,7.5)
        # step never committed), so the suffix past the snapshot is 1.
        assert stats.recomputed_tokens == 1
        # TTFT is the original prefill completion, not the retry's.
        assert stats.ttft_p99_s == pytest.approx(PREFILL_S)
        assert stats.tokens_computed == stats.tokens_generated + 1
        assert 0 < stats.goodput_fraction < 1

    def test_scratch_baseline_reprefills(self):
        """A mid-step kill without a policy re-prefills from scratch and
        recomputes the whole lost prefix."""
        # Without snapshot steps the decode grid is 4, 5, 6, 7 ms; kill
        # at 6.2 ms voids the step that would have committed token 4.
        sim = make_sim()
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.0062, 0.010)])
        stats = sim.simulate([GenRequest(0.0, 10, 6)], schedule=schedule)
        assert stats.served_requests == 1
        assert stats.prefill_steps == 2
        assert stats.restore_steps == 0
        assert stats.recovered_tokens == 0
        assert stats.recomputed_tokens == 3  # positions 1..3 replayed
        # The retry's prefill resets TTFT (first token re-streamed late).
        assert stats.ttft_p99_s > PREFILL_S

    def test_kill_before_any_snapshot_restarts_from_scratch(self):
        """A policy can only resume what a snapshot covered: a kill
        during the first decode step falls back to scratch re-prefill
        even with checkpointing enabled."""
        sim = make_sim(recovery=RecoveryPolicy(checkpoint_every=4))
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.0045, 0.010)])
        stats = sim.simulate([GenRequest(0.0, 10, 3)], schedule=schedule)
        assert stats.served_requests == 1
        assert stats.prefill_steps == 2
        assert stats.restore_steps == 0
        assert stats.recovered_tokens == 0

    def test_goodput_improves_under_seeded_kills(self):
        reqs = sample_gen_requests(LLM0, seed=3, rate_qps=600,
                                   duration_s=1.0)
        faults = FaultModel(seed=9, core_mtbf_s=0.2, core_repair_s=0.02,
                            retry_budget=4)
        scratch = make_sim(TPUV3).simulate(reqs, faults=faults)
        ckpt = make_sim(TPUV3, recovery=RecoveryPolicy(
            checkpoint_every=4)).simulate(reqs, faults=faults)
        assert scratch.lost_steps > 0
        assert ckpt.recovered_tokens > 0
        assert ckpt.goodput_fraction > scratch.goodput_fraction

    def test_goodput_accounting_invariant(self):
        with pytest.raises(ValueError, match="goodput accounting"):
            ContinuousStats(
                workload="llm0", chip="TPUv4i", requests=1, duration_s=1.0,
                ttft_p50_s=0.0, ttft_p99_s=0.0, per_token_p50_s=0.0,
                per_token_p99_s=0.0, tokens_generated=10, prefill_steps=1,
                decode_steps=9, mean_decode_batch=1.0, tokens_per_s=10.0,
                ttft_violation_fraction=0.0,
                per_token_violation_fraction=0.0, tokens_computed=5)

    def test_goodput_defaults_derive(self):
        stats = ContinuousStats(
            workload="llm0", chip="TPUv4i", requests=1, duration_s=1.0,
            ttft_p50_s=0.0, ttft_p99_s=0.0, per_token_p50_s=0.0,
            per_token_p99_s=0.0, tokens_generated=10, prefill_steps=1,
            decode_steps=9, mean_decode_batch=1.0, tokens_per_s=10.0,
            ttft_violation_fraction=0.0, per_token_violation_fraction=0.0)
        assert stats.tokens_computed == 10
        assert stats.wasted_tokens == 0
        assert stats.goodput_fraction == 1.0


class TestMigration:
    def outage(self, death_s=0.05):
        """Core 1 of two dies permanently at ``death_s``."""
        return FaultSchedule(2, 3.0, down=[(1, death_s, math.inf)])

    def test_pending_requests_migrate_to_survivor(self):
        """With migration, a dead core's substream reroutes instead of
        dropping; every request is still served exactly once."""
        reqs = [GenRequest(0.01 * i, 10, 4) for i in range(20)]
        scratch = make_sim(TPUV3).simulate(reqs, schedule=self.outage())
        assert scratch.dropped_requests > 0  # PR 9 drops the substream
        migrated = make_sim(TPUV3, recovery=RecoveryPolicy(
            checkpoint_every=4)).simulate(reqs, schedule=self.outage())
        assert migrated.served_requests == 20
        assert migrated.dropped_requests == 0
        assert migrated.migrated_requests > 0
        assert (migrated.served_requests + migrated.dropped_requests
                == migrated.requests)

    def test_migrants_not_served_before_death(self):
        """A migrated request cannot complete before the core death that
        freed it — survivors see migrants only from the death instant."""
        death = 0.0102
        reqs = [GenRequest(0.001 * i, 10, 2) for i in range(8)]
        stats = make_sim(TPUV3, slots=1, recovery=RecoveryPolicy(
            checkpoint_every=4)).simulate(reqs, schedule=self.outage(death))
        assert stats.served_requests == 8
        assert stats.migrated_requests > 0
        # The dying core's requests finish after the death instant.
        assert stats.duration_s + reqs[0].arrival_s >= death

    def test_retry_budget_gates_active_migrants(self):
        """An active sequence at death migrates only when one more retry
        is admissible; with a zero budget it drops (the satellite fix:
        the budget — not the outage — decides)."""
        reqs = [GenRequest(0.0, 10, 32), GenRequest(0.0, 10, 32)]
        zero_budget = FaultModel(retry_budget=0)
        stats = make_sim(TPUV3, recovery=RecoveryPolicy(
            checkpoint_every=4)).simulate(
                reqs, faults=zero_budget, schedule=self.outage(0.01))
        # One request per core: core 1's active sequence is dropped
        # (budget exhausted), core 0's is untouched.
        assert stats.dropped_requests == 1
        assert stats.served_requests == 1
        assert stats.migrated_requests == 0

    def test_retry_timeout_gates_migrants(self):
        reqs = [GenRequest(0.0, 10, 32), GenRequest(0.0, 10, 32)]
        timeout = FaultModel(retry_budget=4, retry_timeout_s=0.005)
        stats = make_sim(TPUV3, recovery=RecoveryPolicy(
            checkpoint_every=4)).simulate(
                reqs, faults=timeout, schedule=self.outage(0.02))
        assert stats.dropped_requests == 1
        assert stats.served_requests == 1

    def test_no_survivors_drops_like_pr9(self):
        """A single-core chip has nowhere to migrate: the policy keeps
        the PR 9 drop semantics and conservation holds."""
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.001, math.inf)])
        reqs = [GenRequest(0.0, 10, 5), GenRequest(0.2, 10, 5)]
        stats = make_sim(recovery=RecoveryPolicy(
            checkpoint_every=4)).simulate(reqs, schedule=schedule)
        assert stats.dropped_requests == 2
        assert stats.served_requests == 0
        assert stats.migrated_requests == 0

    def test_snapshot_covered_sequence_migrates_with_progress(self):
        """A snapshot taken before the core death travels with the
        migrant: the survivor restores it instead of re-prefilling."""
        # Slots=1, one deep request per core; core 1 dies at 12 ms:
        # after prefill (4) + decodes at 5,6 + snapshot at 6.5 (snap=2)
        # + more decodes. The migrant resumes from snap=2 on core 0.
        reqs = [GenRequest(0.0, 10, 24), GenRequest(0.0, 10, 24)]
        stats = make_sim(TPUV3, slots=1, recovery=RecoveryPolicy(
            checkpoint_every=2)).simulate(
                reqs, faults=FaultModel(retry_budget=4),
                schedule=self.outage(0.012))
        assert stats.served_requests == 2
        assert stats.migrated_requests == 1
        assert stats.restore_steps == 1
        assert stats.recovered_tokens > 0


class TestConservationProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           every=st.sampled_from([0, 1, 3, 8]),
           budget=st.integers(min_value=0, max_value=3))
    def test_requests_conserved_under_chaos(self, seed, every, budget):
        """requests == served + dropped under every chaos scenario —
        kills, slowdowns, and a permanent death — for any checkpoint
        cadence and retry budget (the ContinuousStats constructor
        enforces it; completing simulate() IS the assertion)."""
        reqs = sample_gen_requests(LLM0, seed=seed, rate_qps=500,
                                   duration_s=0.4)
        if not reqs:
            return
        horizon = reqs[-1].arrival_s + 1.0
        faults = FaultModel(seed=seed + 1, core_mtbf_s=0.1,
                            core_repair_s=0.02, slowdown_mtbf_s=0.2,
                            retry_budget=budget)
        schedule = faults.schedule(2, horizon)
        # Overlay a permanent death so migration paths are exercised.
        schedule = FaultSchedule(
            2, horizon,
            down=tuple(schedule.down) + ((1, horizon / 3, math.inf),),
            slowdowns=schedule.slowdowns)
        recovery = (RecoveryPolicy(checkpoint_every=every)
                    if every else None)
        stats = make_sim(TPUV3, recovery=recovery).simulate(
            reqs, faults=faults, schedule=schedule)
        assert stats.requests == len(reqs)
        assert (stats.served_requests + stats.dropped_requests
                == stats.requests)
        assert stats.tokens_computed >= stats.tokens_generated
        assert 0.0 < stats.goodput_fraction <= 1.0


class TestChaosSweep:
    def test_deterministic_and_shaped(self):
        first = llm_chaos_sweep(seed=2, models=("llm0",), chips=(TPUV3,),
                                duration_s=0.3, checkpoint_every=6)
        repeat = llm_chaos_sweep(seed=2, models=("llm0",), chips=(TPUV3,),
                                 duration_s=0.3, checkpoint_every=6)
        assert first == repeat
        assert len(first) == 6  # 3 scenarios x 2 policies
        assert {r.scenario for r in first} == {"faultless", "kill",
                                               "outage"}
        assert {r.policy for r in first} == {"scratch", "ckpt6"}
        for row in first:
            assert row.stats.requests == (row.stats.served_requests
                                          + row.stats.dropped_requests)

    def test_faultless_scratch_matches_plain_sweep_goodput(self):
        rows = llm_chaos_sweep(seed=2, models=("llm0",), chips=(TPUV3,),
                               duration_s=0.3)
        faultless = {r.policy: r.stats for r in rows
                     if r.scenario == "faultless"}
        assert faultless["scratch"].goodput_fraction == 1.0
        assert faultless["ckpt8"].goodput_fraction == 1.0
        assert faultless["ckpt8"].snapshot_steps > 0

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            llm_chaos_sweep(checkpoint_every=0)


class TestGoodputReport:
    def test_render_mentions_every_bucket(self):
        from repro.obs import goodput_report
        stats = ContinuousStats(
            workload="llm0", chip="TPUv3", requests=10, duration_s=1.0,
            ttft_p50_s=0.0, ttft_p99_s=0.0, per_token_p50_s=0.0,
            per_token_p99_s=0.0, tokens_generated=90, prefill_steps=10,
            decode_steps=80, mean_decode_batch=2.0, tokens_per_s=90.0,
            ttft_violation_fraction=0.0, per_token_violation_fraction=0.0,
            tokens_computed=100, recomputed_tokens=10, recovered_tokens=6,
            migrated_requests=2, snapshots=5, snapshot_steps=3,
            restore_steps=2)
        text = goodput_report(stats)
        assert "goodput" in text
        assert "90" in text and "100" in text
        assert "recovered" in text
        assert "migrated" in text

    def test_obs_counters_record_recovery(self):
        from repro.obs import collecting_metrics
        with collecting_metrics() as reg:
            sim = make_sim(TPUV3, recovery=RecoveryPolicy(
                checkpoint_every=2))
            schedule = FaultSchedule(2, 3.0, down=[(1, 0.02, math.inf)])
            sim.simulate([GenRequest(0.001 * i, 10, 8) for i in range(10)],
                         schedule=schedule)
            snap = reg.snapshot()
        assert snap["continuous.requests"]["value"] == 10
        assert snap["continuous.migrated"]["value"] > 0
        assert snap["continuous.snapshots"]["value"] > 0
        assert snap["continuous.tokens_computed"]["value"] > 0

    @pytest.mark.parametrize("faults", [
        None,
        FaultModel(seed=2, core_mtbf_s=0.05, core_repair_s=0.01,
                   slowdown_mtbf_s=0.05, slowdown_s=0.02, retry_budget=3),
    ], ids=["faultless", "kills-and-slowdowns"])
    def test_loop_counters_measure_the_fast_forward(self, faults):
        """``engine_steps`` is the stats' step total; one loop iteration
        commits one step or a whole decode run, so there are fewer."""
        from repro.obs import collecting_metrics
        reqs = sample_gen_requests(LLM0, seed=4, rate_qps=300,
                                   duration_s=0.3)
        with collecting_metrics() as reg:
            stats = make_sim(TPUV3, recovery=RecoveryPolicy(
                checkpoint_every=8)).simulate(reqs, faults=faults)
            snap = reg.snapshot()
        steps = snap["continuous.engine_steps"]["value"]
        assert steps == (stats.prefill_steps + stats.decode_steps
                         + stats.snapshot_steps + stats.restore_steps)
        assert snap["continuous.loop_iterations"]["value"] < steps
