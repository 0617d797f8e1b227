"""Tests for repro.util.rng."""

import pytest

from repro.util.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert DeterministicRng(1).uniform() != DeterministicRng(2).uniform()

    def test_fork_is_independent(self):
        root = DeterministicRng(7)
        child = root.fork(1)
        other = root.fork(2)
        assert child.uniform() != other.uniform()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            DeterministicRng(-1)


class TestDistributions:
    def test_uniform_array_is_the_scalar_stream(self):
        vector, scalar = DeterministicRng(8), DeterministicRng(8)
        drawn = vector.uniform_array(1000).tolist()
        assert drawn == [scalar.uniform() for _ in range(1000)]
        assert vector.uniform() == scalar.uniform()  # same state after

    def test_poisson_arrivals_sorted_and_bounded(self):
        rng = DeterministicRng(3)
        arrivals = rng.poisson_arrivals(rate_per_s=100, duration_s=5.0)
        assert all(0 <= t < 5.0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_poisson_rate_approximate(self):
        rng = DeterministicRng(5)
        arrivals = rng.poisson_arrivals(rate_per_s=200, duration_s=50.0)
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).poisson_arrivals(0, 1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_poisson_rejects_non_finite_rate(self, rate):
        # A NaN rate used to yield zero arrivals without complaint.
        with pytest.raises(ValueError, match=f"rate .*{rate!r}"):
            DeterministicRng(0).poisson_arrivals(rate, 1.0)

    @pytest.mark.parametrize("duration",
                             [float("nan"), float("inf"), -0.5])
    def test_poisson_rejects_non_finite_duration(self, duration):
        # A NaN or infinite duration used to loop forever.
        with pytest.raises(ValueError, match=f"duration .*{duration!r}"):
            DeterministicRng(0).poisson_arrivals(100.0, duration)

    def test_poisson_zero_duration_is_empty(self):
        assert DeterministicRng(0).poisson_arrivals(100.0, 0.0) == []

    def test_exponential_mean(self):
        rng = DeterministicRng(11)
        samples = [rng.exponential(2.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)

    def test_lognormal_mean_is_linear_mean(self):
        rng = DeterministicRng(13)
        samples = [rng.lognormal(5.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_lognormal_positive(self):
        rng = DeterministicRng(17)
        assert all(rng.lognormal(0.001) > 0 for _ in range(100))

    def test_choice_weighted_prefers_heavy(self):
        rng = DeterministicRng(19)
        picks = [rng.choice(["a", "b"], [0.99, 0.01]) for _ in range(500)]
        assert picks.count("a") > 400

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice([])

    def test_choice_weight_mismatch(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice(["a"], [0.5, 0.5])

    def test_normal_array_shape_dtype(self):
        arr = DeterministicRng(23).normal_array((3, 4))
        assert arr.shape == (3, 4)
        assert arr.dtype.name == "float32"
