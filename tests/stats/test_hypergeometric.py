"""Tests for hypergeometric moments and the normal-approximation radius."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.errors import ConfigurationError
from repro.stats.hypergeometric import (
    hypergeometric_mean,
    hypergeometric_variance,
    normal_approximation_interval,
    z_score,
)


class TestMoments:
    def test_mean_formula(self):
        assert hypergeometric_mean(100, 30, 10) == pytest.approx(3.0)

    def test_variance_formula(self):
        variance = hypergeometric_variance(100, 30, 10)
        expected = 10 * 0.3 * 0.7 * (90 / 99)
        assert variance == pytest.approx(expected)

    def test_variance_zero_when_sample_is_population(self):
        assert hypergeometric_variance(50, 20, 50) == 0.0

    def test_variance_zero_for_unit_population(self):
        assert hypergeometric_variance(1, 1, 1) == 0.0

    def test_matches_empirical_moments(self):
        rng = np.random.default_rng(3)
        population, successes, n = 200, 60, 40
        draws = rng.hypergeometric(successes, population - successes, n, size=20_000)
        assert draws.mean() == pytest.approx(
            hypergeometric_mean(population, successes, n), rel=0.02
        )
        assert draws.var() == pytest.approx(
            hypergeometric_variance(population, successes, n), rel=0.05
        )

    def test_rejects_successes_beyond_population(self):
        with pytest.raises(ConfigurationError):
            hypergeometric_mean(10, 11, 5)

    def test_rejects_sample_beyond_population(self):
        with pytest.raises(ConfigurationError):
            hypergeometric_variance(10, 5, 11)


class TestZScore:
    def test_95_percent(self):
        assert z_score(0.05) == pytest.approx(1.959964, rel=1e-5)

    def test_99_percent(self):
        assert z_score(0.01) == pytest.approx(2.575829, rel=1e-5)

    def test_monotone_in_confidence(self):
        assert z_score(0.01) > z_score(0.05) > z_score(0.2)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ConfigurationError):
            z_score(delta)

    # z_score uses scipy.special.ndtri so the package import stays off
    # scipy.stats; the bits must still be exactly scipy.stats.norm.ppf's.
    @settings(max_examples=500)
    @given(delta=st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    @example(delta=0.05)
    @example(delta=0.01)
    @example(delta=0.1)
    def test_equals_norm_ppf_exactly(self, delta):
        assert z_score(delta) == float(norm.ppf(1.0 - delta / 2.0))


class TestNormalApproximationInterval:
    def test_zero_when_sample_is_population(self):
        assert normal_approximation_interval(100, 100, 0.5, 0.05) == 0.0

    def test_fraction_clipped_to_unit_interval(self):
        inside = normal_approximation_interval(100, 10, 1.0, 0.05)
        outside = normal_approximation_interval(100, 10, 1.7, 0.05)
        assert inside == outside == 0.0

    def test_radius_covers_sampled_cumulative_frequency(self):
        """Empirical coverage of the Theorem 3.2 deviation radius."""
        rng = np.random.default_rng(11)
        population = rng.poisson(5.0, size=1000).astype(float)
        r = 0.9
        cut = np.quantile(population, r)
        true_fraction = np.mean(population <= cut)
        n, delta = 120, 0.1
        radius = normal_approximation_interval(population.size, n, r, delta)
        misses = 0
        trials = 500
        for _ in range(trials):
            sample = rng.choice(population, size=n, replace=False)
            sampled_fraction = np.mean(sample <= cut)
            if abs(sampled_fraction - true_fraction) > radius:
                misses += 1
        # Allow some slack: the radius uses r(1-r), slightly off from the
        # exact variance at the empirical cut.
        assert misses / trials <= delta + 0.05

    @given(
        n=st.integers(min_value=1, max_value=400),
        extra=st.integers(min_value=0, max_value=400),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_radius_non_negative(self, n, extra, fraction):
        radius = normal_approximation_interval(n + extra, n, fraction, 0.05)
        assert radius >= 0.0

    def test_rejects_zero_sample(self):
        with pytest.raises(ConfigurationError):
            normal_approximation_interval(10, 0, 0.5, 0.05)
