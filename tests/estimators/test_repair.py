"""Tests for Algorithm 3 (profile repair with a correction set)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimators.repair import ProfileRepair
from repro.estimators.sentinel import BoundSentinel
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.query.aggregates import Aggregate


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(31)
    return rng.poisson(5.0, size=6000).astype(float)


def biased_sample(population, rng, n=500, shrink=0.6):
    """A sample whose values are systematically low — the signature of a
    non-random intervention (missed detections at low resolution)."""
    sample = rng.choice(population, size=n, replace=False)
    return np.floor(sample * shrink)


class TestMeanRepair:
    def test_corrected_bound_formula(self, population):
        rng = np.random.default_rng(1)
        correction = rng.choice(population, size=400, replace=False)
        estimate = SmokescreenMeanEstimator().estimate(
            correction, population.size, 0.05
        )
        y_approx = 3.0
        bound = ProfileRepair.corrected_mean_bound(y_approx, estimate)
        drift = abs(y_approx - estimate.value) / abs(estimate.value)
        assert bound == pytest.approx(
            (1 + estimate.error_bound) * drift + estimate.error_bound
        )

    def test_corrected_bound_at_least_correction_bound(self, population):
        rng = np.random.default_rng(2)
        correction = rng.choice(population, size=400, replace=False)
        estimate = SmokescreenMeanEstimator().estimate(
            correction, population.size, 0.05
        )
        bound = ProfileRepair.corrected_mean_bound(estimate.value, estimate)
        assert bound >= estimate.error_bound

    def test_zero_correction_value_gives_infinite_bound(self):
        estimate = SmokescreenMeanEstimator().estimate(np.zeros(10), 100, 0.05)
        assert math.isinf(ProfileRepair.corrected_mean_bound(1.0, estimate))

    def test_repair_covers_biased_estimates(self, population):
        """The §5.2.2 guarantee: under systematic bias the corrected bound
        covers the true error in >= 1 - delta of trials, while the
        uncorrected bound often does not."""
        rng = np.random.default_rng(3)
        estimator = SmokescreenMeanEstimator()
        mu = population.mean()
        corrected_violations = 0
        uncorrected_violations = 0
        trials = 150
        for _ in range(trials):
            degraded_values = biased_sample(population, rng, n=800, shrink=0.6)
            correction_values = rng.choice(population, size=500, replace=False)
            degraded = estimator.estimate(degraded_values, population.size, 0.05)
            correction = estimator.estimate(
                correction_values, population.size, 0.05
            )
            bound = ProfileRepair.corrected_mean_bound(degraded.value, correction)
            true_error = abs(degraded.value - mu) / mu
            if true_error > bound:
                corrected_violations += 1
            if true_error > degraded.error_bound:
                uncorrected_violations += 1
        assert corrected_violations / trials <= 0.05
        assert uncorrected_violations / trials > 0.5

    def test_repaired_value_is_degraded_estimate(self, population):
        """A sentinel's automatic repair keeps the degraded answer and
        corrects only its bound (Eq. 12 against the correction set)."""
        rng = np.random.default_rng(4)
        estimator = SmokescreenMeanEstimator()
        correction = estimator.estimate(
            rng.choice(population, size=300, replace=False),
            population.size,
            0.05,
        )
        reference = estimator.estimate(population, population.size, 0.05)
        sentinel = BoundSentinel(
            reference, 0.0, population.size, correction=correction
        )
        sentinel.extend(biased_sample(population, rng))
        sentinel.extend(biased_sample(population, rng))
        repair = sentinel.repair
        assert sentinel.tripped and repair is not None
        assert repair.value == repair.degraded.value
        assert repair.correction is correction
        assert repair.error_bound == ProfileRepair.corrected_mean_bound(
            repair.value, correction
        )


class TestQuantileRepair:
    def test_repair_covers_biased_quantiles(self, population):
        from repro.estimators.quantile import SmokescreenQuantileEstimator
        from repro.stats.quantiles import relative_rank_error

        rng = np.random.default_rng(5)
        estimator = SmokescreenQuantileEstimator()
        r, delta = 0.99, 0.05
        ordered = np.sort(population)
        true_quantile = ordered[int(population.size * r)]
        violations = 0
        trials = 120
        for _ in range(trials):
            degraded_values = biased_sample(population, rng, n=800, shrink=0.7)
            correction_values = rng.choice(population, size=600, replace=False)
            degraded = estimator.estimate(
                degraded_values, population.size, r, delta, Aggregate.MAX
            )
            correction = estimator.estimate(
                correction_values, population.size, r, delta, Aggregate.MAX
            )
            bound = ProfileRepair.corrected_quantile_bound(
                degraded.value, correction.value, correction_values, r,
                correction,
            )
            error = relative_rank_error(population, degraded.value, true_quantile)
            if error > bound:
                violations += 1
        assert violations / trials <= delta + 0.03

    def test_rank_difference_term(self, population):
        """The corrected quantile bound adds the in-correction-set rank gap
        between the two answers, normalised by r."""
        rng = np.random.default_rng(6)
        correction = rng.choice(population, size=500, replace=False)
        from repro.estimators.quantile import SmokescreenQuantileEstimator

        estimator = SmokescreenQuantileEstimator()
        correction_estimate = estimator.estimate(
            correction, population.size, 0.99, 0.05, Aggregate.MAX
        )
        bound_same = ProfileRepair.corrected_quantile_bound(
            correction_estimate.value,
            correction_estimate.value,
            correction,
            0.99,
            correction_estimate,
        )
        assert bound_same == pytest.approx(correction_estimate.error_bound)

        lower_value = float(np.quantile(correction, 0.5))
        bound_far = ProfileRepair.corrected_quantile_bound(
            lower_value,
            correction_estimate.value,
            correction,
            0.99,
            correction_estimate,
        )
        assert bound_far > bound_same

    def test_empty_correction_rejected(self):
        from repro.estimators.base import Estimate

        dummy = Estimate(value=1.0, error_bound=0.1, method="x", n=1, universe_size=10)
        with pytest.raises(EstimationError):
            ProfileRepair.corrected_quantile_bound(1.0, 1.0, np.array([]), 0.99, dummy)


class TestRepairEdgeCases:
    """Degenerate inputs Equation (12)/(13) must handle without NaNs."""

    def _exact(self, value: float):
        from repro.estimators.base import Estimate

        return Estimate(
            value=value, error_bound=0.0, method="exact",
            n=100, universe_size=100,
        )

    def test_zero_width_correction_reduces_to_pure_drift(self):
        """With err_v == 0 (exhaustive correction) Equation (12) collapses
        to the relative drift itself — no inflation term left."""
        correction = self._exact(4.0)
        assert ProfileRepair.corrected_mean_bound(5.0, correction) == (
            pytest.approx(abs(5.0 - 4.0) / 4.0)
        )
        assert ProfileRepair.corrected_mean_bound(4.0, correction) == 0.0

    def test_zero_width_quantile_correction_is_rank_gap_only(self, population):
        correction = np.sort(population[:500])
        exact = self._exact(float(correction[-1]))
        bound = ProfileRepair.corrected_quantile_bound(
            float(correction[-1]), float(correction[-1]), correction, 0.99, exact
        )
        assert bound == 0.0

    def test_batch_matches_scalar_elementwise(self, population):
        rng = np.random.default_rng(8)
        correction = SmokescreenMeanEstimator().estimate(
            rng.choice(population, size=300, replace=False), population.size, 0.05
        )
        y_approx = np.array([0.0, 1.5, correction.value, 12.0])
        batch = ProfileRepair.corrected_mean_bound_batch(y_approx, correction)
        scalars = [
            ProfileRepair.corrected_mean_bound(float(y), correction)
            for y in y_approx
        ]
        assert batch.tolist() == pytest.approx(scalars)

    def test_batch_on_empty_input_is_empty_not_nan(self):
        correction = self._exact(4.0)
        out = ProfileRepair.corrected_mean_bound_batch(np.array([]), correction)
        assert out.shape == (0,)

    def test_batch_zero_correction_value_all_infinite(self):
        correction = self._exact(0.0)
        out = ProfileRepair.corrected_mean_bound_batch(
            np.array([0.0, 1.0, 2.0]), correction
        )
        assert np.all(np.isinf(out))

    def test_batch_never_produces_nan_on_finite_inputs(self, population):
        rng = np.random.default_rng(9)
        correction = SmokescreenMeanEstimator().estimate(
            rng.choice(population, size=200, replace=False), population.size, 0.05
        )
        y_approx = rng.uniform(-50.0, 50.0, size=1000)
        out = ProfileRepair.corrected_mean_bound_batch(y_approx, correction)
        assert not np.any(np.isnan(out))
        assert np.all(out >= correction.error_bound)

    def test_quantile_bound_extreme_rank_gap(self, population):
        """Worst case: the degraded answer ranks below every correction
        value while the correction answer ranks above — the gap term hits
        its 1/r ceiling and stays finite."""
        correction_values = np.sort(population[:400])
        estimate = self._exact(float(correction_values[-1]))
        bound = ProfileRepair.corrected_quantile_bound(
            float(correction_values[0]) - 1.0,
            float(correction_values[-1]),
            correction_values,
            0.5,
            estimate,
        )
        assert np.isfinite(bound)
        assert bound <= 1.0 / 0.5 + estimate.error_bound
