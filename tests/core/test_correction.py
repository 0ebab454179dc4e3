"""Tests for correction-set construction (the §3.3.1 elbow heuristic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.correction import determine_correction_set
from repro.errors import ConfigurationError
from repro.query import Aggregate, AggregateQuery

#: The root seed of every correction set drawn here.
ROOT = 12345


@pytest.fixture
def avg_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)


@pytest.fixture
def max_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.MAX)


class TestDetermineCorrectionSet:
    def test_grows_in_one_percent_steps(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        step = round(avg_query.dataset.frame_count * 0.01)
        sizes = [size for size, _ in correction.trace]
        assert sizes[0] == step
        assert all(b - a == step for a, b in zip(sizes, sizes[1:]))

    def test_stops_at_elbow(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        assert correction.size < avg_query.dataset.frame_count
        # The last step's improvement is below the 2% tolerance.
        if len(correction.trace) >= 2:
            previous = correction.trace[-2][1]
            final = correction.trace[-1][1]
            assert abs(previous - final) < 0.02

    def test_trace_bounds_decrease_overall(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        bounds = [bound for _, bound in correction.trace]
        assert bounds[-1] <= bounds[0]

    def test_error_bound_matches_final_trace_entry(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        assert correction.error_bound == correction.trace[-1][1]

    def test_size_limit_respected(self, processor, avg_query):
        limit = round(avg_query.dataset.frame_count * 0.02)
        correction = determine_correction_set(
            processor, avg_query, ROOT, size_limit=limit, tolerance=0.0
        )
        assert correction.size <= limit

    def test_values_are_native_resolution_outputs(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        full = processor.true_values(avg_query)
        assert np.array_equal(correction.values, full[correction.frame_indices])

    def test_indices_distinct(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        assert len(set(correction.frame_indices.tolist())) == correction.size

    def test_max_query_uses_quantile_bound(self, processor, max_query):
        """MAX correction sets can stop much earlier (paper: 2% vs 4-6%)."""
        correction = determine_correction_set(processor, max_query, ROOT)
        assert correction.size >= 1
        assert correction.error_bound >= 0.0

    def test_quantile_correction_smaller_than_mean(
        self, processor, avg_query, max_query
    ):
        """The paper's observed pattern: the MAX correction set is smaller
        than the AVG one on the same video."""
        avg_correction = determine_correction_set(processor, avg_query, 0)
        max_correction = determine_correction_set(processor, max_query, 0)
        assert max_correction.size <= avg_correction.size

    def test_fraction_helper(self, processor, avg_query):
        correction = determine_correction_set(processor, avg_query, ROOT)
        population = avg_query.dataset.frame_count
        assert correction.fraction(population) == correction.size / population

    def test_rejects_bad_growth_step(self, processor, avg_query):
        with pytest.raises(ConfigurationError):
            determine_correction_set(processor, avg_query, ROOT, growth_step=0.0)

    def test_rejects_negative_tolerance(self, processor, avg_query):
        with pytest.raises(ConfigurationError):
            determine_correction_set(processor, avg_query, ROOT, tolerance=-0.1)

    def test_zero_tolerance_runs_to_limit(self, processor, avg_query):
        limit = round(avg_query.dataset.frame_count * 0.03)
        correction = determine_correction_set(
            processor, avg_query, ROOT, tolerance=0.0, size_limit=limit
        )
        assert correction.size == limit

    @pytest.mark.parametrize("limit", [0, -5])
    def test_rejects_non_positive_size_limit(
        self, processor, avg_query, limit
    ):
        # 0 used to read as "no limit"; a negative limit failed deep in the
        # sampler. Both are rejected at the boundary, naming the argument.
        with pytest.raises(ConfigurationError, match="size_limit"):
            determine_correction_set(processor, avg_query, ROOT, size_limit=limit)
