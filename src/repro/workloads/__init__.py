"""Workload zoo: the paper's eight production inference apps and friends.

The TPUv4i evaluation is organized around eight production workloads —
MLP0/1, CNN0/1, RNN0/1, BERT0/1 — spanning recommendation, vision,
sequence, and attention models. Exact production architectures are
proprietary; these builders produce models with matching *published*
characteristics (parameter footprints, operator mix, operational
intensity bands), which is what every experiment actually depends on.

Also here: MLPerf-inference-style models, the DNN growth model
(Lesson 5), the workload-mix evolution series (Lesson 6), and synthetic
request-arrival generators standing in for production traffic.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.workloads.models": ("WorkloadSpec", "PRODUCTION_APPS",
                               "app_by_name", "build_mlp0", "build_mlp1",
                               "build_cnn0", "build_cnn1", "build_rnn0",
                               "build_rnn1", "build_bert0", "build_bert1"),
    "repro.workloads.mlperf": ("MLPERF_MODELS",),
    "repro.workloads.growth": ("GrowthModel", "PUBLISHED_MODEL_SIZES"),
    "repro.workloads.evolution": ("WORKLOAD_MIX_BY_YEAR",),
    "repro.workloads.generator": ("RequestGenerator", "Request"),
    "repro.workloads.generative": ("GENERATIVE_APPS", "GenRequest",
                                   "GenerativeSpec", "PhaseSpec",
                                   "build_decode", "build_prefill",
                                   "generative_by_name",
                                   "sample_gen_requests"),
})
