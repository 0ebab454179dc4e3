"""Tests for sampling designs and the progressive (nested) sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stats.sampling import ProgressiveSampler, SampleDesign


class TestSampleDesign:
    def test_size_rounds_fraction(self):
        assert SampleDesign(1000, 0.1).size == 100
        assert SampleDesign(1000, 0.0015).size == 2

    def test_size_at_least_one(self):
        assert SampleDesign(1000, 0.0001).size == 1

    def test_size_capped_at_population(self):
        assert SampleDesign(10, 1.0).size == 10

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.1])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            SampleDesign(100, fraction)

    def test_rejects_bad_population(self):
        with pytest.raises(ConfigurationError):
            SampleDesign(0, 0.5)


class TestProgressiveSampler:
    def test_prefixes_are_nested(self):
        """The reuse property: every smaller sample is a prefix of larger."""
        sampler = ProgressiveSampler(200, np.random.default_rng(5))
        small = sampler.prefix(20)
        large = sampler.prefix(100)
        assert np.array_equal(large[:20], small)

    def test_prefix_is_without_replacement(self):
        sampler = ProgressiveSampler(100, np.random.default_rng(6))
        drawn = sampler.prefix(60)
        assert len(set(drawn.tolist())) == 60

    def test_prefix_returns_copy(self):
        sampler = ProgressiveSampler(50, np.random.default_rng(8))
        first = sampler.prefix(10)
        first[0] = -1
        assert sampler.prefix(10)[0] != -1

    def test_prefix_distribution_is_uniform(self):
        """Any prefix of a uniform permutation is a uniform sample: each
        index appears in a size-k prefix with probability k/N."""
        population, k, trials = 20, 5, 4000
        hits = np.zeros(population)
        rng = np.random.default_rng(9)
        for _ in range(trials):
            sampler = ProgressiveSampler(population, rng)
            hits[sampler.prefix(k)] += 1
        expected = trials * k / population
        assert np.all(np.abs(hits - expected) < 5 * np.sqrt(expected))

    @given(size=st.integers(min_value=0, max_value=100))
    @settings(max_examples=25)
    def test_any_prefix_size_valid(self, size):
        sampler = ProgressiveSampler(100, np.random.default_rng(10))
        assert sampler.prefix(size).size == size

    def test_rejects_prefix_beyond_population(self):
        sampler = ProgressiveSampler(10, np.random.default_rng(11))
        with pytest.raises(ConfigurationError):
            sampler.prefix(11)

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            ProgressiveSampler(0, np.random.default_rng(12))


class TestStratifiedTimeSample:
    def test_one_index_per_stratum(self):
        from repro.stats.sampling import stratified_time_sample

        rng = np.random.default_rng(20)
        sample = stratified_time_sample(1000, 10, rng)
        assert sample.size == 10
        # Each index falls inside its own tenth of the timeline.
        for position, index in enumerate(sample):
            assert 100 * position <= index < 100 * (position + 1)

    def test_indices_distinct_and_sorted(self):
        from repro.stats.sampling import stratified_time_sample

        rng = np.random.default_rng(21)
        sample = stratified_time_sample(500, 50, rng)
        assert len(set(sample.tolist())) == 50
        assert np.all(np.diff(sample) > 0)

    def test_full_census(self):
        from repro.stats.sampling import stratified_time_sample

        rng = np.random.default_rng(22)
        sample = stratified_time_sample(20, 20, rng)
        assert sorted(sample.tolist()) == list(range(20))

    def test_unbiased_inclusion(self):
        """Every frame has inclusion probability ~ n/N."""
        from repro.stats.sampling import stratified_time_sample

        rng = np.random.default_rng(23)
        population, size, trials = 40, 8, 4000
        hits = np.zeros(population)
        for _ in range(trials):
            hits[stratified_time_sample(population, size, rng)] += 1
        expected = trials * size / population
        assert np.all(np.abs(hits - expected) < 6 * np.sqrt(expected))

    def test_variance_reduction_on_correlated_series(self):
        """The point of the design: lower mean-variance than SRS on a
        smooth (positively autocorrelated) series."""
        from repro.stats.sampling import stratified_time_sample

        rng = np.random.default_rng(24)
        timeline = np.sin(np.linspace(0, 6 * np.pi, 3000)) * 5 + 10
        n, trials = 30, 400
        srs_means = np.empty(trials)
        stratified_means = np.empty(trials)
        for t in range(trials):
            srs_means[t] = timeline[
                rng.choice(timeline.size, size=n, replace=False)
            ].mean()
            stratified_means[t] = timeline[
                stratified_time_sample(timeline.size, n, rng)
            ].mean()
        assert stratified_means.var() < 0.5 * srs_means.var()

    def test_rejects_bad_arguments(self):
        from repro.errors import ConfigurationError
        from repro.stats.sampling import stratified_time_sample

        rng = np.random.default_rng(25)
        with pytest.raises(ConfigurationError):
            stratified_time_sample(0, 1, rng)
        with pytest.raises(ConfigurationError):
            stratified_time_sample(10, 11, rng)
        with pytest.raises(ConfigurationError):
            stratified_time_sample(10, 0, rng)
