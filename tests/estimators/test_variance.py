"""Tests for the VAR extension estimators (paper future work, §7)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.estimators.variance import (
    CLTVarianceEstimator,
    SmokescreenVarianceEstimator,
)


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(77)
    return rng.poisson(4.0, size=5000).astype(float)


class TestSmokescreenVariance:
    def test_full_sample_recovers_truth(self, population):
        estimate = SmokescreenVarianceEstimator().estimate(
            population, population.size, 0.05
        )
        assert estimate.value == pytest.approx(population.var(), rel=1e-9)
        assert estimate.error_bound == pytest.approx(0.0, abs=1e-9)

    def test_coverage(self, population):
        """The moment-interval bound is valid at the 95% level."""
        rng = np.random.default_rng(1)
        estimator = SmokescreenVarianceEstimator()
        truth = population.var()
        violations = 0
        trials = 200
        for _ in range(trials):
            sample = rng.choice(population, size=500, replace=False)
            estimate = estimator.estimate(sample, population.size, 0.05)
            if abs(estimate.value - truth) / truth > estimate.error_bound:
                violations += 1
        assert violations / trials <= 0.05

    def test_degenerate_at_tiny_samples(self, population):
        """Small samples cannot pin the second moment: the bound is the
        honest err_b = 1 with value 0 (Theorem 3.1's degenerate branch)."""
        rng = np.random.default_rng(2)
        sample = rng.choice(population, size=10, replace=False)
        estimate = SmokescreenVarianceEstimator().estimate(
            sample, population.size, 0.05
        )
        assert estimate.error_bound == 1.0
        assert estimate.value == 0.0

    def test_bound_shrinks_with_sample_size(self, population):
        rng = np.random.default_rng(3)
        estimator = SmokescreenVarianceEstimator()
        small = estimator.estimate(
            rng.choice(population, 500, replace=False), population.size, 0.05
        )
        large = estimator.estimate(
            rng.choice(population, 4500, replace=False), population.size, 0.05
        )
        assert large.error_bound < small.error_bound

    def test_extras_expose_sample_variance(self, population):
        rng = np.random.default_rng(4)
        sample = rng.choice(population, 100, replace=False)
        estimate = SmokescreenVarianceEstimator().estimate(
            sample, population.size, 0.05
        )
        assert estimate.extras["sample_variance"] == pytest.approx(sample.var())

    def test_constant_sample_certain_zero_variance(self):
        estimate = SmokescreenVarianceEstimator().estimate(
            np.full(50, 3.0), 1000, 0.05
        )
        # Zero range on both moments: the interval is a point at 0... the
        # degenerate LB=0 branch reports err_b=1, the honest answer for a
        # quantity that could still be anything in [0, UB].
        assert estimate.value == 0.0

    def test_rejects_empty(self):
        with pytest.raises(EstimationError):
            SmokescreenVarianceEstimator().estimate(np.array([]), 10, 0.05)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=20.0), min_size=2, max_size=100
        ),
        extra=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40)
    def test_bound_in_unit_interval(self, values, extra):
        sample = np.array(values)
        estimate = SmokescreenVarianceEstimator().estimate(
            sample, sample.size + extra, 0.05
        )
        assert 0.0 <= estimate.error_bound <= 1.0
        assert estimate.value >= 0.0


class TestCLTVariance:
    def test_value_is_sample_variance(self, population):
        rng = np.random.default_rng(5)
        sample = rng.choice(population, 200, replace=False)
        estimate = CLTVarianceEstimator().estimate(sample, population.size, 0.05)
        assert estimate.value == pytest.approx(sample.var())

    def test_tighter_than_smokescreen_at_moderate_n(self, population):
        rng = np.random.default_rng(6)
        sample = rng.choice(population, 1000, replace=False)
        clt = CLTVarianceEstimator().estimate(sample, population.size, 0.05)
        ours = SmokescreenVarianceEstimator().estimate(sample, population.size, 0.05)
        assert clt.error_bound < ours.error_bound

    def test_single_sample_infinite(self, population):
        estimate = CLTVarianceEstimator().estimate(
            np.array([1.0]), population.size, 0.05
        )
        assert math.isinf(estimate.error_bound)

    def test_degenerate_when_radius_swallows_variance(self):
        """Heavy outlier at tiny n: the lower endpoint goes non-positive."""
        sample = np.array([0.0, 0.0, 0.0, 100.0])
        estimate = CLTVarianceEstimator().estimate(sample, 1000, 0.05)
        assert math.isinf(estimate.error_bound)


class TestVarDispatch:
    def test_var_routes_to_variance_registry(self, processor, detrac_dataset, yolo_car, rng):
        from repro.errors import ConfigurationError
        from repro.estimators.dispatch import estimate_query
        from repro.interventions import InterventionPlan
        from repro.query import Aggregate, AggregateQuery

        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.VAR)
        execution = processor.execute(query, InterventionPlan.from_knobs(f=0.5), rng)
        ours = estimate_query(query, execution, "smokescreen")
        clt = estimate_query(query, execution, "clt")
        assert ours.method == "smokescreen"
        assert clt.method == "clt"
        with pytest.raises(ConfigurationError):
            estimate_query(query, execution, "ebgs")

    def test_var_true_answer(self, processor, detrac_dataset, yolo_car):
        from repro.query import Aggregate, AggregateQuery

        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.VAR)
        truth = processor.true_answer(query)
        expected = yolo_car.run(detrac_dataset).counts.astype(float).var()
        assert truth == pytest.approx(expected)

    def test_var_profile_generation(self, processor, detrac_dataset, yolo_car):
        """The profiler handles VAR end to end, including correction."""
        from repro.core.correction import determine_correction_set
        from repro.core.profiler import DegradationProfiler
        from repro.query import Aggregate, AggregateQuery

        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.VAR)
        correction = determine_correction_set(processor, query, 7)
        profiler = DegradationProfiler(processor, trials=2)
        profile = profiler.profile_sampling_seeded(
            query, (0.3, 0.6, 0.9), 12345, correction=correction
        )
        assert len(profile.points) == 3
        assert all(0.0 <= point.error_bound <= 1.0 for point in profile.points)
