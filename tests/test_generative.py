"""Tests for generative workloads + continuous batching (ISSUE 9).

Covers the phase builders (prefill vs decode graph structure and KV
ledger), the roofline claim (decode memory-bound on all four
generations), phase-aware cache keys (prefill/decode priced separately,
legacy keys unchanged), the seeded request sampler, and the
continuous-batching event loop's edge cases: single request, over-long
request, all-slots-busy stall, mid-decode outage under the retry
budget, and zero-request simulate.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import GENERATIONS, TPUV1, TPUV4I
from repro.core.design_point import DesignPoint, clear_shared_design_points, \
    shared_design_point
from repro.engine import EvalCache, set_cache
from repro.faults.model import FaultModel, FaultSchedule
from repro.serving import (
    BatchPolicy,
    ContinuousBatchingSimulator,
    ContinuousStats,
    GenerativeSlo,
    llm_sweep,
    phase_latency_table,
)
from repro.workloads import (
    GENERATIVE_APPS,
    GenRequest,
    GenerativeSpec,
    generative_by_name,
    sample_gen_requests,
)

from tests.conftest import deadline

LLM0 = generative_by_name("llm0")
LLM1 = generative_by_name("llm1")


def make_sim(spec=LLM0, slots=None, max_decode_len=None,
             prefill_s=0.004, decode_s=0.001):
    """A simulator on TPUv4i with synthetic seeded step latencies."""
    sim = ContinuousBatchingSimulator(
        shared_design_point(TPUV4I), spec, slots=slots,
        max_decode_len=max_decode_len)
    table = {}
    for bucket in spec.prompt_buckets:
        table[("prefill", bucket, 1)] = prefill_s
    for bucket in spec.kv_buckets:
        for step in BatchPolicy.batch_steps(sim.slots):
            table[("decode", bucket, step)] = decode_s
    sim.seed_latencies(table)
    return sim


class TestGenerativeSpec:
    def test_registry(self):
        assert [g.name for g in GENERATIVE_APPS] == ["llm0", "llm1"]
        with pytest.raises(KeyError, match="unknown generative model"):
            generative_by_name("gpt9")

    def test_bucket_lookup_saturates(self):
        assert LLM0.prompt_bucket(1) == 64
        assert LLM0.prompt_bucket(65) == 128
        assert LLM0.prompt_bucket(9999) == 128  # saturates at the largest
        assert LLM0.kv_bucket(0) == 128
        assert LLM0.kv_bucket(129) == 256
        assert LLM0.kv_bucket(9999) == 512

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bucket_lookup_rejects_non_finite(self, bad):
        """NaN and +inf pass a plain ``<`` check and used to fall through
        to the largest bucket; every lookup now names the argument."""
        with pytest.raises(ValueError, match=rf"kv_len .*got {bad!r}"):
            LLM0.kv_bucket(bad)
        with pytest.raises(ValueError, match=rf"prompt_len .*got {bad!r}"):
            LLM0.prompt_bucket(bad)
        with pytest.raises(ValueError, match="kv_len"):
            LLM0.decode(bad)
        with pytest.raises(ValueError, match="prompt_len"):
            LLM0.prefill(bad)

    def test_bucket_lookup_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="kv_len .*got -1"):
            LLM0.kv_bucket(-1)
        with pytest.raises(ValueError, match="prompt_len .*got 0"):
            LLM0.prompt_bucket(0)

    def test_reachable_kv_buckets_of_the_zoo(self):
        """128-token prompts plus 64 decode steps reach depth 192."""
        for spec in GENERATIVE_APPS:
            assert spec.reachable_kv_buckets == (128, 256)

    def test_kv_cache_bytes_formula(self):
        # K and V, every layer, bf16: 2 * layers * kv * hidden * 2 bytes.
        assert (LLM0.kv_cache_bytes(128)
                == 2 * LLM0.layers * 128 * LLM0.hidden * 2)
        assert LLM0.kv_cache_bytes(128, batch=4) == 4 * LLM0.kv_cache_bytes(128)

    def test_weight_footprints_straddle_cmem(self):
        """llm0 fits TPUv4i's 128 MiB CMEM; llm1 deliberately exceeds it."""
        def weight_bytes(spec):
            phase = spec.prefill(spec.prompt_buckets[0])
            return phase.build(1).total_weight_bytes()

        assert weight_bytes(LLM0) < TPUV4I.cmem_bytes
        assert weight_bytes(LLM1) > TPUV4I.cmem_bytes

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            GenerativeSpec("bad", layers=2, hidden=100, heads=3, vocab=1000)
        with pytest.raises(ValueError, match="ascending"):
            GenerativeSpec("bad", layers=2, hidden=64, heads=2, vocab=1000,
                           prompt_buckets=(128, 64))
        with pytest.raises(ValueError, match="cover"):
            GenerativeSpec("bad", layers=2, hidden=64, heads=2, vocab=1000,
                           prompt_buckets=(64,), kv_buckets=(64,),
                           max_decode_len=32)


@st.composite
def _generative_specs(draw):
    """A zoo model, or a random spec with valid ascending buckets."""
    if draw(st.booleans()):
        return draw(st.sampled_from(GENERATIVE_APPS))
    prompts = sorted(draw(st.sets(st.integers(1, 512), min_size=1,
                                  max_size=3)))
    decode = draw(st.integers(1, 256))
    kv = set(draw(st.sets(st.integers(1, 1024), max_size=4)))
    kv.add(prompts[-1] + decode + draw(st.integers(0, 64)))
    return GenerativeSpec("prop", layers=1, hidden=64, heads=2, vocab=100,
                          prompt_buckets=tuple(prompts),
                          kv_buckets=tuple(sorted(kv)),
                          max_decode_len=decode)


class TestReachableKvBuckets:
    @settings(max_examples=200, deadline=None)
    @given(spec=_generative_specs(), data=st.data())
    def test_every_sampled_depth_lands_in_a_reachable_bucket(self, spec,
                                                             data):
        prompt = data.draw(st.integers(1, spec.max_prompt), label="prompt")
        produced = data.draw(st.integers(0, spec.max_decode_len),
                             label="produced")
        assert spec.kv_bucket(prompt + produced) in spec.reachable_kv_buckets

    @settings(max_examples=200, deadline=None)
    @given(spec=_generative_specs())
    def test_reachable_is_the_shortest_covering_prefix(self, spec):
        reachable = spec.reachable_kv_buckets
        assert reachable == spec.kv_buckets[:len(reachable)]
        # The deepest sampled step needs the last one, so no shorter
        # prefix covers every depth.
        assert (spec.kv_bucket(spec.max_prompt + spec.max_decode_len)
                == reachable[-1])


class TestPhaseBuilders:
    def test_prefill_emits_first_token_logits(self):
        module = LLM0.prefill(64).build(4)
        assert tuple(module.root.shape.dims) == (4, LLM0.vocab)

    def test_decode_emits_next_token_logits(self):
        module = LLM0.decode(128).build(8)
        assert tuple(module.root.shape.dims) == (8, LLM0.vocab)

    def test_decode_kv_parameters_match_ledger(self):
        """The cache tensors are parameters whose bytes are exactly the
        KV footprint — the quantity the HBM ledger prices per step."""
        module = LLM0.decode(256).build(2)
        kv_params = [i for i in module.instructions
                     if i.opcode == "parameter" and "cache" in i.name]
        assert len(kv_params) == 2 * LLM0.layers  # K and V per layer
        kv_bytes = sum(i.shape.byte_size for i in kv_params)
        assert kv_bytes == LLM0.kv_cache_bytes(256, batch=2)

    def test_both_phases_share_weights(self):
        assert (LLM0.prefill(64).build(1).total_weight_bytes()
                == LLM0.decode(128).build(1).total_weight_bytes())

    def test_phase_specs_memoized(self):
        assert LLM0.decode(128) is LLM0.decode(128)
        assert LLM0.prefill(64) is not LLM0.decode(128)

    def test_unknown_bucket_rejected(self):
        from repro.workloads.generative import _phase_spec
        with pytest.raises(ValueError, match="not a KV bucket"):
            _phase_spec(LLM0, "decode", 100)
        with pytest.raises(ValueError, match="phase"):
            _phase_spec(LLM0, "train", 128)


class TestRooflines:
    def test_decode_memory_bound_on_every_generation(self):
        """The acceptance criterion: decode operational intensity sits
        left of the ridge point on all four TPU generations at the
        continuous-batching slot count."""
        for spec in GENERATIVE_APPS:
            policy = BatchPolicy(max_batch=spec.default_slots, max_wait_s=0.0)
            batch = policy.padded_size(spec.default_slots)
            for bucket in spec.kv_buckets:
                oi = spec.decode(bucket).ops_per_byte(batch)
                for chip in GENERATIONS:
                    assert oi < chip.ridge_ops_per_byte(), (
                        f"{spec.name} decode@{bucket} OI {oi:.1f} not "
                        f"memory-bound on {chip.name}")

    def test_prefill_is_the_compute_bound_phase(self):
        """Prefill amortizes weights over the whole prompt, decode over
        one token: at equal batch the intensities are far apart, and
        prefill clears TPUv4i's ridge at the serving batch."""
        prefill_oi = LLM0.prefill(64).ops_per_byte(8)
        decode_oi = LLM0.decode(128).ops_per_byte(8)
        assert prefill_oi > 10 * decode_oi
        assert prefill_oi > TPUV4I.ridge_ops_per_byte()

    def test_decode_intensity_falls_with_kv_depth(self):
        shallow = LLM0.decode(128).ops_per_byte(8)
        deep = LLM0.decode(512).ops_per_byte(8)
        assert deep < shallow


class TestPhasePricing:
    def test_phases_priced_separately(self):
        point = shared_design_point(TPUV4I)
        prefill_s = point.latency_s(LLM0.prefill(64), 1)
        decode_s = point.latency_s(LLM0.decode(128), 1)
        assert prefill_s != decode_s

    def test_decode_latency_grows_with_kv_bucket(self):
        point = shared_design_point(TPUV4I)
        assert (point.latency_s(LLM0.decode(512), 8)
                > point.latency_s(LLM0.decode(128), 8))

    def test_cache_keys_carry_phase(self):
        """Prefill and decode results can never alias in the EvalCache,
        and a PhaseSpec key differs from a plain spec of the same name."""
        from repro.workloads.models import WorkloadSpec
        point = shared_design_point(TPUV4I)
        prefill_key = point.key("sim", LLM0.prefill(64), 4)
        decode_key = point.key("sim", LLM0.decode(128), 4)
        assert prefill_key != decode_key
        plain = WorkloadSpec(
            name=LLM0.decode(128).name, category="Generative",
            build=LLM0.decode(128).build, slo_ms=1.0, default_batch=1,
            nonlinearity="gelu", description="")
        assert point.key("sim", plain, 4) != decode_key

    def test_legacy_keys_unchanged(self):
        """A spec without phase fields produces the pre-generative key
        bytes — on-disk caches stay reachable."""
        from repro.engine.keys import eval_key
        from repro.workloads.models import app_by_name
        point = shared_design_point(TPUV4I)
        spec = app_by_name("cnn0")
        assert point.key("sim", spec, 4) == eval_key(
            "sim", point.chip_fp, point.compiler_fp, "cnn0", 4, None, "bf16")


class TestSampleRequests:
    def test_deterministic(self):
        a = sample_gen_requests(LLM0, seed=3, rate_qps=500, duration_s=1.0)
        b = sample_gen_requests(LLM0, seed=3, rate_qps=500, duration_s=1.0)
        assert a == b
        c = sample_gen_requests(LLM0, seed=4, rate_qps=500, duration_s=1.0)
        assert a != c

    @pytest.mark.parametrize("seed", [0, 3, 23, 7919])
    @pytest.mark.parametrize("model", ["llm0", "llm1"])
    def test_lengths_are_the_scalar_stream(self, model, seed):
        """The vectorised length draw is the scalar per-request loop."""
        from repro.util.rng import DeterministicRng

        spec = generative_by_name(model)
        reqs = sample_gen_requests(spec, seed=seed, rate_qps=3000,
                                   duration_s=1.0)
        rng = DeterministicRng(seed)
        arrivals = rng.poisson_arrivals(3000, 1.0)
        lengths = rng.fork(1)
        scalar = []
        for t in arrivals:
            prompt = min(1 + int(lengths.lognormal(spec.mean_prompt, 0.5)),
                         spec.max_prompt)
            decode = 1 + int(lengths.lognormal(spec.mean_decode, 0.5))
            scalar.append(GenRequest(t, prompt, decode, spec.name))
        assert len(reqs) > 2000
        assert reqs == scalar

    def test_prompts_clipped_decode_unclipped(self):
        reqs = sample_gen_requests(LLM0, seed=1, rate_qps=2000,
                                   duration_s=1.0)
        assert reqs
        assert all(1 <= r.prompt_len <= LLM0.max_prompt for r in reqs)
        assert all(r.decode_len >= 1 for r in reqs)
        # The sampler does NOT clip decode lengths: over-long requests
        # exist and the serving loop truncates them at max_decode_len.
        assert any(r.decode_len > LLM0.max_decode_len for r in reqs)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GenRequest(-1.0, 10, 10)
        with pytest.raises(ValueError):
            GenRequest(0.0, 0, 10)
        with pytest.raises(ValueError):
            GenRequest(0.0, 10, 0)

    def test_request_validation_names_the_value(self):
        """Rejections name the offending field and echo the value, so a
        bad workload file points straight at its own bug."""
        with pytest.raises(ValueError, match="arrival_s.*-1.0"):
            GenRequest(-1.0, 10, 10)
        with pytest.raises(ValueError, match="arrival_s must not be NaN"):
            GenRequest(float("nan"), 10, 10)
        with pytest.raises(ValueError, match="prompt_len.*got 0"):
            GenRequest(0.0, 0, 10)
        with pytest.raises(ValueError, match="decode_len.*got -3"):
            GenRequest(0.0, 10, -3)

    @pytest.mark.parametrize("field", ["prompt_len", "decode_len"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_request_rejects_non_finite_lengths(self, field, bad):
        kwargs = dict(arrival_s=0.0, prompt_len=10, decode_len=10)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field}.*got {bad}"):
            GenRequest(**kwargs)

    def test_request_rejects_infinite_arrival(self):
        with pytest.raises(ValueError, match="arrival_s.*finite, got inf"):
            GenRequest(math.inf, 8, 4)

    def test_spec_validation_names_the_value(self):
        def spec(**overrides):
            kwargs = dict(name="bad", layers=4, hidden=256, heads=4,
                          vocab=1000, mean_prompt=64.0, mean_decode=16.0,
                          slo_ttft_ms=100.0, slo_per_token_ms=20.0)
            kwargs.update(overrides)
            return GenerativeSpec(**kwargs)

        with pytest.raises(ValueError, match="mean_prompt must not be NaN"):
            spec(mean_prompt=float("nan"))
        with pytest.raises(ValueError, match="mean_decode.*got 0"):
            spec(mean_decode=0.0)
        with pytest.raises(ValueError, match="slo_ttft_ms.*got -5"):
            spec(slo_ttft_ms=-5.0)
        with pytest.raises(ValueError,
                           match="slo_per_token_ms must not be NaN"):
            spec(slo_per_token_ms=float("nan"))
        with pytest.raises(ValueError, match="default_slots.*got 0"):
            spec(default_slots=0)


class TestContinuousBatching:
    def test_zero_requests_is_quiet_window(self):
        stats = make_sim().simulate([])
        assert stats.requests == 0
        assert stats.served_requests == 0
        assert stats.tokens_generated == 0
        assert stats.tokens_per_s == 0.0
        assert stats.availability == 1.0

    def test_single_request(self):
        sim = make_sim(prefill_s=0.004, decode_s=0.001)
        stats = sim.simulate([GenRequest(0.0, 10, 5)])
        assert stats.requests == 1
        assert stats.served_requests == 1
        assert stats.tokens_generated == 5
        # Prefill emits the first token; TTFT is its completion.
        assert stats.ttft_p99_s == pytest.approx(0.004)
        assert stats.prefill_steps == 1
        assert stats.decode_steps == 4  # 4 more tokens after the first
        assert stats.per_token_p99_s == pytest.approx(0.001)

    def test_overlong_request_truncated(self):
        sim = make_sim()
        stats = sim.simulate([GenRequest(0.0, 10, 10 * LLM0.max_decode_len)])
        assert stats.served_requests == 1
        assert stats.tokens_generated == LLM0.max_decode_len

    def test_all_slots_busy_stalls_admission(self):
        """A burst wider than the slot count queues: late requests'
        TTFT includes the wait for a slot, so the tail far exceeds the
        head (which is one prefill latency)."""
        sim = make_sim(slots=4)
        burst = [GenRequest(0.0, 10, 8) for _ in range(16)]
        stats = sim.simulate(burst)
        assert stats.requests == stats.served_requests == 16
        assert stats.ttft_p50_s > stats.ttft_p99_s * 0.0  # sanity
        assert stats.ttft_p99_s > 3 * 0.004  # queued well past one prefill
        # The decode batch never exceeds the slot count.
        assert stats.mean_decode_batch <= 4

    def test_unsorted_stream_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            make_sim().simulate([GenRequest(1.0, 4, 4), GenRequest(0.5, 4, 4)])

    def test_deterministic(self):
        sim = make_sim()
        reqs = sample_gen_requests(LLM0, seed=7, rate_qps=800,
                                   duration_s=0.5)
        assert sim.simulate(reqs) == sim.simulate(reqs)

    def test_seed_latencies_validation(self):
        sim = make_sim()
        with pytest.raises(ValueError, match="phase"):
            sim.seed_latencies({("train", 128, 1): 0.001})
        with pytest.raises(ValueError, match="batch"):
            sim.seed_latencies({("decode", 128, 0): 0.001})
        with pytest.raises(ValueError, match="latency"):
            sim.seed_latencies({("decode", 128, 1): -0.001})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_seed_latencies_rejects_non_finite_by_key(self, bad):
        key = ("prefill", LLM0.prompt_buckets[0], 1)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            make_sim().seed_latencies({key: bad})

    def test_nan_latency_table_raises_instead_of_hanging(self):
        """Regression: a NaN prefill entry passed ``latency < 0``, and
        ``simulate`` then never returned (NaN poisons the clock, so no
        arrival is ever admissible again)."""
        sim = make_sim()
        table = {("prefill", b, 1): 0.004 for b in LLM0.prompt_buckets}
        table[("prefill", LLM0.prompt_buckets[0], 1)] = math.nan
        reqs = sample_gen_requests(LLM0, seed=3, rate_qps=400,
                                   duration_s=0.1)
        with deadline(20.0):
            with pytest.raises(ValueError, match="prefill.*nan"):
                sim.seed_latencies(table)
                sim.simulate(reqs)  # where the old code never returned
            # Nothing of the rejected table was applied.
            assert sim.simulate(reqs) == make_sim().simulate(reqs)

    def test_mid_decode_outage_loses_prefix_and_retries(self):
        """A core dying mid-decode destroys the generated prefixes (KV
        is core-resident); requests re-enqueue under the retry budget
        and re-prefill from scratch."""
        sim = make_sim(prefill_s=0.004, decode_s=0.001)
        # Prefill [0, 4ms); first decode step [4ms, 5ms). Kill inside it.
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.0045, 0.010)])
        stats = sim.simulate([GenRequest(0.0, 10, 5)], schedule=schedule)
        assert stats.lost_steps == 1
        assert stats.retried_requests == 1
        assert stats.served_requests == 1  # retried and completed
        assert stats.requests == 1
        # The retry re-prefills: two prefill steps for one request.
        assert stats.prefill_steps == 2
        assert stats.availability == 1.0

    def test_retry_budget_zero_drops(self):
        sim = make_sim()
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.0045, 0.010)])
        faults = FaultModel(seed=0, retry_budget=0)
        stats = sim.simulate([GenRequest(0.0, 10, 5)], faults=faults,
                             schedule=schedule)
        assert stats.dropped_requests == 1
        assert stats.served_requests == 0
        assert stats.requests == 1  # conservation still holds
        assert stats.availability == 0.0

    def test_permanent_outage_drops_everything(self):
        sim = make_sim()
        schedule = FaultSchedule(1, 1.0, down=[(0, 0.001, math.inf)])
        reqs = [GenRequest(0.0, 10, 5), GenRequest(0.2, 10, 5)]
        stats = sim.simulate(reqs, schedule=schedule)
        assert stats.dropped_requests == 2
        assert stats.served_requests == 0

    def test_slowdown_stretches_steps(self):
        sim = make_sim(prefill_s=0.004, decode_s=0.001)
        slow = FaultSchedule(1, 1.0,
                             slowdowns=[(0, 0.0, 1.0, 4.0)])
        base = sim.simulate([GenRequest(0.0, 10, 5)])
        stretched = sim.simulate([GenRequest(0.0, 10, 5)], schedule=slow)
        assert stretched.ttft_p99_s == pytest.approx(4 * base.ttft_p99_s)

    def test_conservation_invariant_enforced(self):
        with pytest.raises(ValueError, match="conservation violated"):
            ContinuousStats(
                workload="llm0", chip="TPUv4i", requests=10, duration_s=1.0,
                ttft_p50_s=0.0, ttft_p99_s=0.0, per_token_p50_s=0.0,
                per_token_p99_s=0.0, tokens_generated=0, prefill_steps=0,
                decode_steps=0, mean_decode_batch=0.0, tokens_per_s=0.0,
                ttft_violation_fraction=0.0, per_token_violation_fraction=0.0,
                dropped_requests=2, served_requests=9)  # 9 + 2 != 10

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            GenerativeSlo(0.0, 0.01)
        for bad in (math.nan, math.inf):
            # A NaN budget used to report zero violations silently.
            with pytest.raises(ValueError, match="ttft_s"):
                GenerativeSlo(bad, 0.01)
            with pytest.raises(ValueError, match="per_token_s"):
                GenerativeSlo(0.05, bad)
        with pytest.raises(ValueError):
            GenerativeSlo(0.05, 0.01, pct=0)
        with pytest.raises(ValueError):
            ContinuousBatchingSimulator(
                shared_design_point(TPUV4I), LLM0, slots=0)


class TestLlmSweep:
    def test_deterministic_and_memory_bound(self):
        rows = llm_sweep(seed=5, chips=(TPUV4I,), models=("llm0",),
                         duration_s=0.3)
        again = llm_sweep(seed=5, chips=(TPUV4I,), models=("llm0",),
                          duration_s=0.3)
        assert rows == again
        assert rows
        for row in rows:
            assert row.decode_memory_bound
            assert (row.stats.served_requests + row.stats.dropped_requests
                    == row.stats.requests)
            assert row.stats.tokens_generated > 0

    def test_sweep_prices_only_reachable_buckets(self, tmp_path):
        """Every (chip, model) pair stores 2 prefill + 2 KV buckets x 4
        batch steps = 10 records, none of them for decode@512."""
        clear_shared_design_points()
        private = EvalCache(disk_dir=tmp_path)
        previous = set_cache(private)
        try:
            assert llm_sweep(3, duration_s=0.5)
            for chip in GENERATIONS:
                point = shared_design_point(chip)
                for spec in GENERATIVE_APPS:
                    for step in BatchPolicy.batch_steps(spec.default_slots):
                        key = point.key("sim", spec.decode(512), step,
                                        dtype=chip.native_dtype)
                        assert private.get(key) is None
            assert private.disk_entry_count() == len(GENERATIONS) * 2 * 10
        finally:
            set_cache(previous)
            clear_shared_design_points()

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            llm_sweep(duration_s=0.0)
        with pytest.raises(ValueError):
            llm_sweep(utilization=1.5)


class TestLazyPricing:
    """A simulator prices keys its seed table lacks in the chip's
    native dtype, the dtype :func:`phase_latency_table` uses."""

    def test_unseeded_tpuv1_matches_seeded(self):
        """TPUv1 serves int8 only: an unseeded simulator used to price
        its first miss in bf16 and raise ``UnsupportedDtypeError``."""
        requests = sample_gen_requests(LLM0, 11, 200.0, 0.05)
        assert requests
        unseeded = ContinuousBatchingSimulator(
            DesignPoint(TPUV1, cache=EvalCache()), LLM0)
        point = DesignPoint(TPUV1, cache=EvalCache())
        seeded = ContinuousBatchingSimulator(point, LLM0)
        seeded.seed_latencies(phase_latency_table(point, LLM0, seeded.slots))
        assert unseeded.simulate(requests) == seeded.simulate(requests)

    def test_prompt_over_max_prices_deeper_bucket_lazily(self):
        """No sampled request reaches decode@512, so the tables omit it;
        a hand-built over-long prompt prices it on first use."""
        point = shared_design_point(TPUV1)
        sim = ContinuousBatchingSimulator(point, LLM0)
        sim.seed_latencies(phase_latency_table(point, LLM0, sim.slots))
        assert ("decode", 512, 1) not in sim._latency
        stats = sim.simulate([GenRequest(0.0, LLM0.max_prompt + 300, 4)])
        assert stats.served_requests == 1
        reference = DesignPoint(TPUV1, cache=EvalCache())
        assert sim._latency[("decode", 512, 1)] == reference.latency_s(
            LLM0.decode(512), 1, dtype="int8")
