"""Tests for the production app zoo and friends (E2, L5, L6)."""

import math

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
    mix_for_year,
    mlperf_by_name,
)
from repro.workloads.evolution import transformer_trend, validate_mixes
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

    def test_lookup_and_build(self):
        model = mlperf_by_name("resnet50")
        module = model.build(1)
        assert module.total_flops() > 1e9
        with pytest.raises(KeyError):
            mlperf_by_name("dlrm")

    def test_bert_large_footprint(self):
        module = mlperf_by_name("bert").build(1)
        assert module.total_weight_bytes() > 400 * MIB


class TestGrowth:
    def test_size_at_base_year(self):
        model = GrowthModel(2016, 100.0)
        assert model.size_at(2016) == 100.0

    def test_growth_rate_applies(self):
        model = GrowthModel(2016, 100.0, annual_rate=1.5)
        assert model.size_at(2018) == pytest.approx(225.0)

    def test_years_to_outgrow(self):
        model = GrowthModel(2016, 100.0, annual_rate=1.5)
        assert model.years_to_outgrow(225.0) == pytest.approx(2.0)
        assert model.years_to_outgrow(50.0) == 0.0

    def test_trajectory_inclusive(self):
        model = GrowthModel(2016, 1.0)
        points = model.trajectory(2016, 2020)
        assert len(points) == 5
        assert points[0] == (2016, 1.0)

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
        validate_mixes()

    def test_transformer_share_rises(self):
        trend = [share for _, share in transformer_trend()]
        assert trend == sorted(trend)
        assert trend[-1] > 4 * trend[0]

    def test_mlp_share_falls(self):
        assert (WORKLOAD_MIX_BY_YEAR[2020]["MLP"]
                < WORKLOAD_MIX_BY_YEAR[2016]["MLP"])

    def test_2016_matches_tpuv1_paper(self):
        mix = mix_for_year(2016)
        assert mix["MLP"] == pytest.approx(0.61)
        assert mix["RNN"] == pytest.approx(0.29)

    def test_unknown_year(self):
        with pytest.raises(KeyError):
            mix_for_year(2031)


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

    def test_diurnal_modulates_rate(self):
        reqs = RequestGenerator(4).diurnal("t", mean_rate_qps=100,
                                           duration_s=86_400,
                                           peak_to_trough=3.0)
        half = 86_400 / 2
        first = sum(1 for r in reqs if r.arrival_s < half)
        second = len(reqs) - first
        assert first > 1.3 * second  # sine peaks in the first half

    @pytest.mark.parametrize("seed", [0, 4, 9, 23])
    def test_diurnal_accepts_exactly_the_scalar_thinning_set(self, seed):
        """The vector thinning (``np.sin``, one uniform vector) keeps the
        same candidates as a candidate-at-a-time loop over ``math.sin``
        and scalar draws, and leaves the stream in the same state."""
        mean, period, amplitude = 40.0, 500.0, 0.5  # peak_to_trough 3
        peak = mean * (1.0 + amplitude)
        scalar = RequestGenerator(seed)
        expected = []
        for t in scalar.rng.poisson_arrivals(peak, 2_000.0):
            rate = mean * (1.0 + amplitude * math.sin(2.0 * math.pi * t
                                                       / period))
            if scalar.rng.uniform() < rate / peak:
                expected.append(Request(t, "t"))
        vector = RequestGenerator(seed)
        assert vector.diurnal("t", mean, 2_000.0, peak_to_trough=3.0,
                              period_s=period) == expected
        assert vector.rng.uniform() == scalar.rng.uniform()

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(-1.0, "t")

    def test_tenant_rate_alignment(self):
        with pytest.raises(ValueError):
            RequestGenerator(0).multi_tenant(["a"], [1.0, 2.0], 1.0)
