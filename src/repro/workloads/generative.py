"""Autoregressive decoder workloads: prefill/decode phases + KV caches.

The model zoo's eight apps stop at BERT-class encoders, which run one
batch per request. Generative serving is different in kind: a request is
*prefilled* once over its whole prompt (compute-bound, like an encoder
batch) and then *decoded* one token at a time, each decode step
re-reading the request's entire KV cache from memory. Decode therefore
lands memory-bound on every TPU generation — its operational intensity
is roughly the decode batch size in ops/byte, far left of even TPUv2's
ridge — which is the regime the CIM-for-generative-inference line of
work (PAPERS.md) says dominates modern serving.

Both phases are ordinary :class:`~repro.workloads.models.WorkloadSpec`
programs, so the whole existing machinery (module cache, compiler,
EvalCache, grid kernel) prices them without modification:

* ``prefill`` builds a causal-transformer pass over a padded prompt
  bucket and emits the first generated token (the TTFT token);
* ``decode`` builds one generation step: per layer, the cached K/V
  tensors are ``parameter`` instructions — per-request inputs streaming
  from HBM, priced through the simulator's ``bytes_by_level`` ledger —
  concatenated with the new token's K/V row for the attention matmuls.

Sequence lengths are bucketed (:data:`GenerativeSpec.prompt_buckets`,
``kv_buckets``) so decode compiles once per (batch, kv-bucket) instead
of once per exact length — the same padding trade the serving batcher
already makes on the batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.hlo import GraphBuilder, HloModule
from repro.graph.shapes import Shape
from repro.util.rng import DeterministicRng
from repro.workloads.layers import fc, transformer_layer
from repro.workloads.models import WorkloadSpec

#: Arithmetic bytes per KV element (bf16 serving path).
_KV_DTYPE_BYTES = 2


@dataclass(frozen=True)
class PhaseSpec(WorkloadSpec):
    """A WorkloadSpec for one phase of a generative model.

    Rides the entire encoder-era machinery unchanged: ``name`` is unique
    per (model, phase, bucket) so the module cache and compile memos
    never collide, while ``phase``/``kv_bucket`` additionally enter the
    engine's content-addressed cache keys (see
    :func:`repro.engine.keys.eval_key`) so a phase result can never
    alias a legacy whole-model entry.
    """

    phase: str = "prefill"
    kv_bucket: Optional[int] = None
    model: str = ""  # owning generative model, e.g. "llm0"


@dataclass(frozen=True)
class GenerativeSpec:
    """One autoregressive decoder model and its serving contract.

    Attributes:
        name: e.g. ``"llm0"``.
        layers / hidden / heads / vocab: decoder architecture.
        prompt_buckets: padded prompt lengths prefill compiles for.
        kv_buckets: padded KV lengths decode compiles for (ascending).
        max_decode_len: generation cap the serving loop enforces.
        mean_prompt / mean_decode: lognormal means for seeded request
            sampling (:func:`sample_gen_requests`).
        slo_ttft_ms: p99 budget for time-to-first-token (the prefill).
        slo_per_token_ms: p99 budget for each decode token.
        default_slots: continuous-batching slots per core.
        description: one-line provenance note.
    """

    name: str
    layers: int
    hidden: int
    heads: int
    vocab: int
    prompt_buckets: Tuple[int, ...] = (64, 128)
    kv_buckets: Tuple[int, ...] = (128, 256, 512)
    max_decode_len: int = 64
    mean_prompt: float = 40.0
    mean_decode: float = 24.0
    slo_ttft_ms: float = 50.0
    slo_per_token_ms: float = 10.0
    default_slots: int = 8
    description: str = ""

    def __post_init__(self) -> None:
        if self.hidden % self.heads:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.heads}")
        # Named-value validation in the IciLink style: a NaN mean would
        # pass every comparison and poison the lognormal sampler; a zero
        # or negative budget would make every request an SLO violation
        # by construction. Reject all of them here, by name.
        for name in ("mean_prompt", "mean_decode", "slo_ttft_ms",
                     "slo_per_token_ms"):
            value = getattr(self, name)
            if math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.default_slots < 1:
            raise ValueError(
                f"default_slots must be >= 1, got {self.default_slots}")
        if not self.prompt_buckets or not self.kv_buckets:
            raise ValueError("need at least one prompt and one KV bucket")
        if tuple(sorted(self.prompt_buckets)) != self.prompt_buckets:
            raise ValueError("prompt buckets must be ascending")
        if tuple(sorted(self.kv_buckets)) != self.kv_buckets:
            raise ValueError("KV buckets must be ascending")
        if self.max_decode_len < 1:
            raise ValueError("max_decode_len must be >= 1")
        if self.max_prompt + self.max_decode_len > self.kv_buckets[-1]:
            raise ValueError(
                "largest KV bucket must cover max prompt + max decode")

    @property
    def max_prompt(self) -> int:
        return self.prompt_buckets[-1]

    @property
    def reachable_kv_buckets(self) -> Tuple[int, ...]:
        """The KV buckets a sampled request stream can reach.

        :func:`sample_gen_requests` clips prompts to :attr:`max_prompt`
        and the serving loop stops a request at ``max_decode_len``
        tokens, so no decode, snapshot or restore step runs deeper than
        ``max_prompt + max_decode_len``: the declared buckets up to the
        one covering that depth. The latency tables price only these;
        a deeper step (a hand-built over-long prompt, or a simulator's
        larger ``max_decode_len``) is priced on first use.
        """
        deepest = self.kv_bucket(self.max_prompt + self.max_decode_len)
        return self.kv_buckets[:self.kv_buckets.index(deepest) + 1]

    def prompt_bucket(self, prompt_len: int) -> int:
        """Smallest prefill bucket covering a prompt length."""
        # One chained comparison also rejects NaN and +inf, which would
        # otherwise fall through to the largest bucket.
        if not 1 <= prompt_len < math.inf:
            raise ValueError(
                f"prompt_len must be a finite number >= 1, got {prompt_len!r}")
        for bucket in self.prompt_buckets:
            if bucket >= prompt_len:
                return bucket
        return self.max_prompt

    def kv_bucket(self, kv_len: int) -> int:
        """Smallest decode bucket whose cache covers ``kv_len`` positions."""
        if not 0 <= kv_len < math.inf:
            raise ValueError(
                f"kv_len must be a finite non-negative number, got {kv_len!r}")
        for bucket in self.kv_buckets:
            if bucket >= kv_len:
                return bucket
        return self.kv_buckets[-1]

    def kv_cache_bytes(self, kv_len: int, batch: int = 1) -> int:
        """KV-cache footprint: K and V, every layer, ``kv_len`` positions.

        This is exactly the byte count the decode graph's cache
        ``parameter`` tensors put through the HBM ledger per step — the
        quantity that grows with sequence length and keeps decode left
        of every generation's ridge point.
        """
        return 2 * self.layers * batch * kv_len * self.hidden * _KV_DTYPE_BYTES

    # ------------------------------------------------------------ phase specs

    def prefill(self, prompt_bucket: Optional[int] = None) -> PhaseSpec:
        """The prefill phase compiled for one prompt bucket."""
        bucket = (self.prompt_bucket(prompt_bucket)
                  if prompt_bucket is not None else self.prompt_buckets[0])
        return _phase_spec(self, "prefill", bucket)

    def decode(self, kv_bucket: Optional[int] = None) -> PhaseSpec:
        """The decode phase compiled for one KV bucket."""
        bucket = (self.kv_bucket(kv_bucket)
                  if kv_bucket is not None else self.kv_buckets[0])
        return _phase_spec(self, "decode", bucket)


# ------------------------------------------------------------ graph builders

def build_prefill(cfg: GenerativeSpec, prompt: int, batch: int) -> HloModule:
    """Prefill: full transformer over the prompt + the first token's logits.

    Identical in structure to the encoder path (so it prices like
    today's batch workloads), plus an LM head over the final position:
    prefill both fills the KV cache and produces the request's first
    generated token, which is what TTFT measures.
    """
    builder = GraphBuilder(f"{cfg.name}.prefill@{prompt}")
    table = builder.constant(Shape((cfg.vocab, cfg.hidden)), "token.table")
    ids = builder.parameter(Shape((batch, prompt), "int32"), "token.ids")
    x = builder.embedding_lookup(table, ids, "token.embed")
    for layer in range(cfg.layers):
        x = transformer_layer(builder, x, cfg.heads, 4 * cfg.hidden,
                              f"l{layer}")
    x = builder.layernorm(x, "final.ln")
    last = builder.module.add("slice", Shape((batch, 1, cfg.hidden)), (x,),
                              name="final.last", offset=prompt - 1)
    flat = builder.reshape(last, (batch, cfg.hidden), "final.flat")
    logits = fc(builder, flat, cfg.vocab, None, "lm_head")
    module = builder.build()
    module.set_root(logits)
    return module


def build_decode(cfg: GenerativeSpec, kv: int, batch: int) -> HloModule:
    """One decode step: attend one new token against a ``kv``-deep cache.

    The cached K/V tensors are ``parameter`` instructions — per-request
    inputs, not weights — so each step's cache read is priced through
    the simulator's HBM bytes ledger and grows linearly with the KV
    bucket. FLOPs stay ~2x(weights)x(batch), which pins the phase's
    operational intensity near the decode batch size: memory-bound on
    all four generations for any realistic slot count.
    """
    h, heads = cfg.hidden, cfg.heads
    head_dim = h // heads
    builder = GraphBuilder(f"{cfg.name}.decode@{kv}")
    table = builder.constant(Shape((cfg.vocab, h)), "token.table")
    ids = builder.parameter(Shape((batch, 1), "int32"), "token.ids")
    x = builder.reshape(builder.embedding_lookup(table, ids, "token.embed"),
                        (batch, h), "token.flat")
    for layer in range(cfg.layers):
        name = f"l{layer}"
        k_cache = builder.parameter(Shape((batch, kv, h)), f"{name}.k_cache")
        v_cache = builder.parameter(Shape((batch, kv, h)), f"{name}.v_cache")
        normed = builder.layernorm(x, f"{name}.ln1")

        def project(tag: str, normed=normed, name=name):
            w = builder.constant(Shape((h, h)), f"{name}.{tag}.w")
            return builder.dot(normed, w, f"{name}.{tag}")

        q = project("q")
        k_all = builder.concat(
            [k_cache, builder.reshape(project("k"), (batch, 1, h),
                                      f"{name}.k.row")],
            axis=1, name=f"{name}.k")
        v_all = builder.concat(
            [v_cache, builder.reshape(project("v"), (batch, 1, h),
                                      f"{name}.v.row")],
            axis=1, name=f"{name}.v")
        # Head split follows the encoder attention_block idiom.
        q_h = builder.reshape(q, (batch * heads, 1, head_dim),
                              f"{name}.q.heads")
        k_h = builder.reshape(k_all, (batch * heads, kv + 1, head_dim),
                              f"{name}.k.heads")
        v_h = builder.reshape(v_all, (batch * heads, kv + 1, head_dim),
                              f"{name}.v.heads")
        k_t = builder.transpose(k_h, (0, 2, 1), f"{name}.kT")
        scores = builder.batched_dot(q_h, k_t, f"{name}.scores")
        probs = builder.softmax(scores, f"{name}.softmax")
        context = builder.batched_dot(probs, v_h, f"{name}.context")
        merged = builder.reshape(context, (batch, h), f"{name}.merge")
        w_o = builder.constant(Shape((h, h)), f"{name}.o.w")
        attn = builder.dot(merged, w_o, f"{name}.o")
        x = builder.add(x, attn, f"{name}.res1")
        normed2 = builder.layernorm(x, f"{name}.ln2")
        up = fc(builder, normed2, 4 * h, "gelu", f"{name}.ffn.up")
        down = fc(builder, up, h, None, f"{name}.ffn.down")
        x = builder.add(x, down, f"{name}.res2")
    x = builder.layernorm(x, "final.ln")
    logits = fc(builder, x, cfg.vocab, None, "lm_head")
    module = builder.build()
    module.set_root(logits)
    return module


# --------------------------------------------------------- phase-spec memo

#: PhaseSpecs are memoized so every consumer of the same (model, phase,
#: bucket) sees one object: build closures stay shared, and the engine's
#: per-name module cache is populated once.
_PHASE_SPECS: Dict[Tuple[str, str, int], PhaseSpec] = {}


def _phase_spec(cfg: GenerativeSpec, phase: str, bucket: int) -> PhaseSpec:
    key = (cfg.name, phase, bucket)
    spec = _PHASE_SPECS.get(key)
    if spec is not None:
        return spec
    if phase == "prefill":
        if bucket not in cfg.prompt_buckets:
            raise ValueError(f"{bucket} is not a prompt bucket of {cfg.name}")
        build = lambda batch, c=cfg, b=bucket: build_prefill(c, b, batch)  # noqa: E731
        slo_ms = cfg.slo_ttft_ms
        note = f"{cfg.name} prefill over a {bucket}-token prompt bucket"
    elif phase == "decode":
        if bucket not in cfg.kv_buckets:
            raise ValueError(f"{bucket} is not a KV bucket of {cfg.name}")
        build = lambda batch, c=cfg, b=bucket: build_decode(c, b, batch)  # noqa: E731
        slo_ms = cfg.slo_per_token_ms
        note = f"{cfg.name} decode step against a {bucket}-deep KV cache"
    else:
        raise ValueError(f"phase must be 'prefill' or 'decode', got {phase!r}")
    spec = PhaseSpec(
        name=f"{cfg.name}.{phase}@{bucket}",
        category="Generative",
        build=build,
        slo_ms=slo_ms,
        default_batch=1 if phase == "prefill" else cfg.default_slots,
        nonlinearity="gelu/softmax",
        description=note,
        phase=phase,
        kv_bucket=bucket,
        model=cfg.name,
    )
    return _PHASE_SPECS.setdefault(key, spec)


# ------------------------------------------------------------------ requests

@dataclass(frozen=True)
class GenRequest:
    """One generative request: a prompt and a target generation length."""

    arrival_s: float
    prompt_len: int
    decode_len: int
    tenant: str = "llm"

    def __post_init__(self) -> None:
        # Named-value errors, IciLink style. NaN fails every comparison,
        # so each check is phrased as "in range" and negated: a NaN or
        # infinite arrival would corrupt the event loop's clock, and a
        # NaN or infinite length would surface later as a misleading
        # request-conservation failure instead of failing here.
        if math.isnan(self.arrival_s):
            raise ValueError("arrival_s must not be NaN")
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError("arrival_s must be non-negative and finite, "
                             f"got {self.arrival_s}")
        if not 1 <= self.prompt_len < math.inf:
            raise ValueError(
                f"prompt_len must be >= 1 and finite, got {self.prompt_len}")
        if not 1 <= self.decode_len < math.inf:
            raise ValueError(
                f"decode_len must be >= 1 and finite, got {self.decode_len}")


def sample_gen_requests(spec: GenerativeSpec, seed: int, rate_qps: float,
                        duration_s: float) -> List[GenRequest]:
    """Seeded Poisson arrivals with lognormal prompt/decode lengths.

    Prompts are clipped to the model's largest prompt bucket; decode
    lengths are *not* clipped — requests may ask for more tokens than
    ``max_decode_len``, and the serving loop truncates at the cap (the
    over-long-request edge case the tests pin down). Pure function of
    its arguments: same seed, same stream.
    """
    rng = DeterministicRng(seed)
    arrivals = rng.poisson_arrivals(rate_qps, duration_s)
    # One (prompt, decode) draw per arrival, in the scalar loop's order.
    lengths = rng.fork(1).lognormal_rounds(
        (spec.mean_prompt, spec.mean_decode), len(arrivals), 0.5).tolist()
    return [GenRequest(t, min(1 + int(prompt), spec.max_prompt),
                       1 + int(decode), spec.name)
            for t, (prompt, decode) in zip(arrivals, lengths)]


# ------------------------------------------------------------------ registry

GENERATIVE_APPS: Tuple[GenerativeSpec, ...] = (
    GenerativeSpec(
        "llm0", layers=4, hidden=512, heads=8, vocab=8192,
        prompt_buckets=(64, 128), kv_buckets=(128, 256, 512),
        max_decode_len=64, mean_prompt=40.0, mean_decode=24.0,
        slo_ttft_ms=50.0, slo_per_token_ms=10.0, default_slots=8,
        description="small chat decoder, CMEM-resident weights"),
    GenerativeSpec(
        "llm1", layers=8, hidden=1024, heads=16, vocab=16384,
        prompt_buckets=(64, 128), kv_buckets=(128, 256, 512),
        max_decode_len=64, mean_prompt=48.0, mean_decode=32.0,
        slo_ttft_ms=120.0, slo_per_token_ms=25.0, default_slots=8,
        description="larger decoder whose weights exceed TPUv4i CMEM"),
)

_GEN_BY_NAME: Dict[str, GenerativeSpec] = {g.name: g for g in GENERATIVE_APPS}


def generative_by_name(name: str) -> GenerativeSpec:
    """Look up a generative model."""
    try:
        return _GEN_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_GEN_BY_NAME))
        raise KeyError(
            f"unknown generative model {name!r}; known: {known}") from None
