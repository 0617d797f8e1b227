"""Tests for the production app zoo and friends (E2, L5, L6)."""

import pytest

from repro.util.units import MIB
from repro.workloads import (
    GrowthModel,
    MLPERF_MODELS,
    PRODUCTION_APPS,
    PUBLISHED_MODEL_SIZES,
    Request,
    RequestGenerator,
    WORKLOAD_MIX_BY_YEAR,
    app_by_name,
)
from repro.workloads.evolution import CATEGORIES, transformer_trend
from repro.workloads.growth import fitted_growth_rate


class TestAppRegistry:
    def test_eight_apps(self):
        assert len(PRODUCTION_APPS) == 8
        assert {w.category for w in PRODUCTION_APPS} == {
            "MLP", "CNN", "RNN", "Transformer"}

    def test_two_per_category(self):
        for category in ("MLP", "CNN", "RNN", "Transformer"):
            assert sum(1 for w in PRODUCTION_APPS
                       if w.category == category) == 2

    def test_lookup(self):
        assert app_by_name("bert0").category == "Transformer"
        with pytest.raises(KeyError):
            app_by_name("gpt3")

    def test_all_build_and_validate(self):
        for spec in PRODUCTION_APPS:
            module = spec.build(2)
            module.validate()
            assert module.total_flops() > 0

    def test_batch_parameterizes_flops_not_weights(self):
        spec = app_by_name("cnn0")
        one, four = spec.build(1), spec.build(4)
        assert four.total_flops() == pytest.approx(4 * one.total_flops(),
                                                   rel=0.01)
        assert four.total_weight_bytes() == one.total_weight_bytes()

    def test_footprint_bands(self):
        """The Table-2 shape: some apps fit 128 MiB CMEM, some do not."""
        fits = {w.name for w in PRODUCTION_APPS
                if w.weight_mib() <= 128}
        exceeds = {w.name for w in PRODUCTION_APPS} - fits
        assert "cnn0" in fits and "rnn0" in fits
        assert "bert1" in exceeds and "rnn1" in exceeds and "mlp0" in exceeds

    def test_cnn_intensity_beats_mlp(self):
        """CNNs live far right of MLPs on the roofline."""
        assert (app_by_name("cnn0").ops_per_byte()
                > 20 * app_by_name("mlp0").ops_per_byte())

    def test_slos_positive(self):
        assert all(w.slo_ms > 0 for w in PRODUCTION_APPS)


class TestMlperf:
    def test_three_models(self):
        assert len(MLPERF_MODELS) == 3

    def test_bert_large_footprint(self):
        (bert,) = [m for m in MLPERF_MODELS if m.name == "bert"]
        module = bert.build(1)
        assert module.total_weight_bytes() > 400 * MIB


class TestGrowth:
    def test_size_at_base_year(self):
        model = GrowthModel(2016, 100.0)
        assert model.size_at(2016) == 100.0

    def test_growth_rate_applies(self):
        model = GrowthModel(2016, 100.0, annual_rate=1.5)
        assert model.size_at(2018) == pytest.approx(225.0)

    def test_published_sizes_grow(self):
        sizes = [s for _, _, s in PUBLISHED_MODEL_SIZES]
        assert sizes[-1] > 10 * sizes[0]

    def test_fitted_rate_at_least_paper_rate(self):
        """The 1.5x/yr lesson is conservative vs headline models."""
        assert fitted_growth_rate() >= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthModel(2016, 0.0)
        with pytest.raises(ValueError):
            GrowthModel(2016, 1.0, annual_rate=0.9)


class TestEvolution:
    def test_mixes_sum_to_one(self):
        for mix in WORKLOAD_MIX_BY_YEAR.values():
            assert set(mix) == set(CATEGORIES)
            assert sum(mix.values()) == pytest.approx(1.0, abs=1e-9)

    def test_transformer_share_rises(self):
        trend = [share for _, share in transformer_trend()]
        assert trend == sorted(trend)
        assert trend[-1] > 4 * trend[0]

    def test_mlp_share_falls(self):
        assert (WORKLOAD_MIX_BY_YEAR[2020]["MLP"]
                < WORKLOAD_MIX_BY_YEAR[2016]["MLP"])

    def test_2016_matches_tpuv1_paper(self):
        mix = WORKLOAD_MIX_BY_YEAR[2016]
        assert mix["MLP"] == pytest.approx(0.61)
        assert mix["RNN"] == pytest.approx(0.29)


class TestGenerator:
    def test_poisson_reproducible(self):
        a = RequestGenerator(1).poisson("t", 100, 2.0)
        b = RequestGenerator(1).poisson("t", 100, 2.0)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_poisson_rate(self):
        reqs = RequestGenerator(2).poisson("t", 500, 20.0)
        assert len(reqs) == pytest.approx(10_000, rel=0.05)

    def test_multi_tenant_merged_sorted(self):
        reqs = RequestGenerator(3).multi_tenant(["a", "b"], [50, 50], 5.0)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert {r.tenant for r in reqs} == {"a", "b"}

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(-1.0, "t")

    def test_tenant_rate_alignment(self):
        with pytest.raises(ValueError):
            RequestGenerator(0).multi_tenant(["a"], [1.0, 2.0], 1.0)
