"""Differential tests: the batch estimator API matches the scalar API.

One matrix of trial prefixes, every registered estimator: the batch result
must reproduce the per-trial scalar result within the repo's 1e-9
numerical-equivalence policy (most kernels are in fact bitwise-identical;
CLT's one-pass prefix standard deviation is the documented exception).
A grid of prefix lengths must reproduce, row for row and byte for byte,
the one-length call at each of its sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.estimators.base import BatchEstimate, validate_batch_request
from repro.estimators.dispatch import (
    corrected_bounds,
    estimate_batch,
    mean_estimator_registry,
    quantile_estimator_registry,
    variance_estimator_registry,
)
from repro.interventions import InterventionPlan
from repro.query import Aggregate, AggregateQuery
from repro.stats.prefix_moments import PrefixMoments

TRIALS = 7
MAX_SIZE = 120
UNIVERSE = 900
DELTA = 0.05
RTOL = 1e-9
ATOL = 1e-12
#: An ascending grid with a repeated length and the n=1 edge.
GRID = (1, 2, 2, 17, 40, MAX_SIZE)


@pytest.fixture(scope="module")
def matrix() -> np.ndarray:
    return np.random.default_rng(21).gamma(2.0, 1.5, size=(TRIALS, MAX_SIZE))


@pytest.fixture(scope="module")
def moments(matrix) -> PrefixMoments:
    return PrefixMoments(matrix)


def batch_vs_scalar(estimator, moments, matrix, n, value_range=None):
    batch = estimator.estimate_batch(
        moments, (n,), UNIVERSE, DELTA, value_range=value_range
    )
    for t in range(moments.trials):
        scalar = estimator.estimate(
            matrix[t, :n], UNIVERSE, DELTA, value_range=value_range
        )
        assert batch.values[0, t] == pytest.approx(
            scalar.value, rel=RTOL, abs=ATOL
        )
        assert batch.error_bounds[0, t] == pytest.approx(
            scalar.error_bound, rel=RTOL, abs=ATOL
        )
    assert batch.method == estimator.name
    assert batch.sizes == (n,)
    assert batch.universe_size == UNIVERSE


class TestMeanEstimators:
    @pytest.mark.parametrize("method", sorted(mean_estimator_registry()))
    @pytest.mark.parametrize("n", [2, 17, MAX_SIZE])
    def test_batch_matches_scalar(self, moments, matrix, method, n):
        batch_vs_scalar(mean_estimator_registry()[method], moments, matrix, n)

    @pytest.mark.parametrize("method", sorted(mean_estimator_registry()))
    def test_known_range_is_honoured(self, moments, matrix, method):
        batch_vs_scalar(
            mean_estimator_registry()[method], moments, matrix, 20,
            value_range=25.0,
        )

    @pytest.mark.parametrize("method", ["smokescreen", "hoeffding", "ebgs"])
    def test_constant_trials(self, method):
        constant = np.full((3, 30), 2.5)
        batch_vs_scalar(
            mean_estimator_registry()[method], PrefixMoments(constant),
            constant, 30,
        )

    def test_single_sample_prefix(self, moments, matrix):
        # n=1 exercises the degenerate edges: zero sample range for the
        # Hoeffding family, infinite nominal bound for CLT.
        for method in ("smokescreen", "hoeffding", "hoeffding-serfling", "clt"):
            batch_vs_scalar(
                mean_estimator_registry()[method], moments, matrix, 1
            )


class TestVarianceAndQuantileFallbacks:
    def test_variance_estimators(self, moments, matrix):
        for estimator in variance_estimator_registry().values():
            batch = estimator.estimate_batch(moments, (40,), UNIVERSE, DELTA)
            for t in range(TRIALS):
                scalar = estimator.estimate(matrix[t, :40], UNIVERSE, DELTA)
                assert batch.values[0, t] == pytest.approx(scalar.value)
                assert batch.error_bounds[0, t] == pytest.approx(
                    scalar.error_bound
                )

    def test_quantile_estimators(self, moments, matrix):
        counts = PrefixMoments(np.floor(matrix))
        for estimator in quantile_estimator_registry().values():
            batch = estimator.estimate_batch(
                counts, (40,), UNIVERSE, 0.99, DELTA, Aggregate.MAX
            )
            for t in range(TRIALS):
                scalar = estimator.estimate(
                    np.floor(matrix[t, :40]), UNIVERSE, 0.99, DELTA, Aggregate.MAX
                )
                assert batch.values[0, t] == pytest.approx(scalar.value)
                assert batch.error_bounds[0, t] == pytest.approx(
                    scalar.error_bound
                )


class TestDispatch:
    def query(self, dataset, model, aggregate):
        return AggregateQuery(dataset, model, aggregate)

    def test_avg_routes_unscaled(self, detrac_dataset, yolo_car, moments):
        query = self.query(detrac_dataset, yolo_car, Aggregate.AVG)
        batch = estimate_batch(
            query, moments, (30,), UNIVERSE, detrac_dataset.frame_count
        )
        assert batch.method == "smokescreen"
        assert np.all(batch.values < 100)

    def test_sum_scaled_to_population(self, detrac_dataset, yolo_car, moments):
        avg = estimate_batch(
            self.query(detrac_dataset, yolo_car, Aggregate.AVG),
            moments, (30,), UNIVERSE, detrac_dataset.frame_count,
        )
        total = estimate_batch(
            self.query(detrac_dataset, yolo_car, Aggregate.SUM),
            moments, (30,), UNIVERSE, detrac_dataset.frame_count,
        )
        np.testing.assert_allclose(
            total.values, avg.values * detrac_dataset.frame_count
        )
        np.testing.assert_array_equal(total.error_bounds, avg.error_bounds)

    def test_unknown_method_rejected(self, detrac_dataset, yolo_car, moments):
        with pytest.raises(ConfigurationError):
            estimate_batch(
                self.query(detrac_dataset, yolo_car, Aggregate.AVG),
                moments, (30,), UNIVERSE, detrac_dataset.frame_count,
                method="nope",
            )

    def test_matches_scalar_dispatch_on_executions(
        self, processor, detrac_dataset, yolo_car, rng
    ):
        from repro.estimators.dispatch import estimate_query

        query = self.query(detrac_dataset, yolo_car, Aggregate.AVG)
        plan = InterventionPlan.from_knobs(f=0.05)
        executions = [processor.execute(query, plan, rng) for _ in range(4)]
        moments = PrefixMoments(np.stack([e.values for e in executions]))
        n = executions[0].values.size
        for method in mean_estimator_registry():
            batch = estimate_batch(
                query, moments, (n,), executions[0].universe_size,
                executions[0].population_size, method,
            )
            for t, execution in enumerate(executions):
                scalar = estimate_query(query, execution, method)
                assert batch.values[0, t] == pytest.approx(
                    scalar.value, rel=RTOL, abs=ATOL
                )
                assert batch.error_bounds[0, t] == pytest.approx(
                    scalar.error_bound, rel=RTOL, abs=ATOL
                )


class TestBatchEstimateContainer:
    def test_trial_view(self, moments):
        batch = mean_estimator_registry()["smokescreen"].estimate_batch(
            moments, (10, 20), UNIVERSE, DELTA
        )
        one = batch.trial(3)
        assert one.value == float(batch.values[0, 3])
        assert one.error_bound == float(batch.error_bounds[0, 3])
        assert one.n == 10
        assert batch.trial(3, row=1).n == 20

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            BatchEstimate(
                values=np.zeros((1, 3)), error_bounds=np.zeros((1, 2)),
                method="m", sizes=(1,), universe_size=10,
            )

    def test_negative_bounds_rejected(self):
        with pytest.raises(EstimationError):
            BatchEstimate(
                values=np.zeros((1, 2)), error_bounds=np.array([[0.1, -0.2]]),
                method="m", sizes=(1,), universe_size=10,
            )

    @pytest.mark.parametrize(
        "n,universe", [(0, UNIVERSE), (MAX_SIZE + 1, UNIVERSE), (50, 10)]
    )
    def test_request_validation(self, moments, n, universe):
        with pytest.raises(EstimationError):
            validate_batch_request(moments, (n,), universe)


def assert_rows_match_single_sizes(price, sizes):
    """Row ``f`` of ``price(sizes)`` equals ``price((sizes[f],))`` bytewise.

    ``price`` takes fresh prefix moments for every call, so no running
    state carries from the grid call into a single-size call.
    """
    grid = price(sizes)
    assert grid.sizes == tuple(sizes)
    assert grid.values.shape == grid.error_bounds.shape == (len(sizes), TRIALS)
    for f, n in enumerate(sizes):
        single = price((n,))
        assert grid.values[f].tobytes() == single.values[0].tobytes()
        assert grid.error_bounds[f].tobytes() == single.error_bounds[0].tobytes()


class TestGridRowsMatchSingleSizes:
    @pytest.mark.parametrize("value_range", [None, 25.0])
    @pytest.mark.parametrize("method", sorted(mean_estimator_registry()))
    def test_mean_family(self, matrix, method, value_range):
        estimator = mean_estimator_registry()[method]
        assert_rows_match_single_sizes(
            lambda sizes: estimator.estimate_batch(
                PrefixMoments(matrix), sizes, UNIVERSE, DELTA,
                value_range=value_range,
            ),
            GRID,
        )

    @pytest.mark.parametrize("method", sorted(variance_estimator_registry()))
    def test_variance_family(self, matrix, method):
        estimator = variance_estimator_registry()[method]
        assert_rows_match_single_sizes(
            lambda sizes: estimator.estimate_batch(
                PrefixMoments(matrix), sizes, UNIVERSE, DELTA
            ),
            (2, 17, 40),
        )

    @pytest.mark.parametrize("method", sorted(quantile_estimator_registry()))
    def test_quantile_family(self, matrix, method):
        estimator = quantile_estimator_registry()[method]
        assert_rows_match_single_sizes(
            lambda sizes: estimator.estimate_batch(
                PrefixMoments(np.floor(matrix)), sizes, UNIVERSE, 0.99, DELTA,
                Aggregate.MAX,
            ),
            (5, 17, 17, 40),
        )

    @pytest.mark.parametrize("plan_is_random", [True, False])
    @pytest.mark.parametrize("aggregate", [Aggregate.AVG, Aggregate.MAX])
    def test_through_corrected_bounds(
        self, detrac_dataset, yolo_car, matrix, aggregate, plan_is_random
    ):
        query = AggregateQuery(detrac_dataset, yolo_car, aggregate)
        counts = np.floor(matrix)
        correction = np.random.default_rng(4).permutation(counts.ravel())[:200]

        def price(sizes):
            batch = estimate_batch(
                query, PrefixMoments(counts), sizes, UNIVERSE,
                detrac_dataset.frame_count,
            )
            bounds = corrected_bounds(query, batch, correction, plan_is_random)
            return BatchEstimate(
                values=batch.values, error_bounds=bounds, method=batch.method,
                sizes=batch.sizes, universe_size=batch.universe_size,
            )

        assert_rows_match_single_sizes(price, (3, 17, 40, MAX_SIZE))


class TestGridValidation:
    @pytest.mark.parametrize("sizes", [(), (17, 2), (2.0,), ((2, 3),)])
    def test_rejects_bad_grids(self, moments, sizes):
        with pytest.raises(EstimationError):
            validate_batch_request(moments, sizes, UNIVERSE)

    def test_rows_must_match_sizes(self):
        with pytest.raises(EstimationError):
            BatchEstimate(
                values=np.zeros((2, 3)), error_bounds=np.zeros((2, 3)),
                method="m", sizes=(1,), universe_size=10,
            )
