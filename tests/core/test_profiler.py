"""Tests for the degradation profiler."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.candidates import CandidateGrid
from repro.core.correction import determine_correction_set
from repro.core.profiler import DegradationProfiler
from repro.errors import ConfigurationError
from repro.interventions import InterventionPlan
from repro.query import Aggregate, AggregateQuery
from repro.system.costs import InvocationLedger
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


ROOT = 12345


@pytest.fixture
def avg_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)


@pytest.fixture
def profiler(processor):
    return DegradationProfiler(processor, trials=2)


class TestSamplingProfiles:
    def test_bounds_decrease_with_fraction(self, profiler, avg_query):
        profile = profiler.profile_sampling_seeded(
            avg_query, (0.02, 0.05, 0.1, 0.3, 0.6), ROOT
        )
        bounds = profile.error_bounds()
        assert bounds[-1] < bounds[0]

    def test_points_carry_sample_sizes(self, profiler, avg_query):
        profile = profiler.profile_sampling_seeded(avg_query, (0.1, 0.2), ROOT)
        assert profile.points[0].n == round(avg_query.dataset.frame_count * 0.1)

    def test_early_stop_truncates_sweep(self, profiler, avg_query):
        full = profiler.profile_sampling_seeded(
            avg_query, (0.05, 0.1, 0.2, 0.4, 0.8), ROOT
        )
        stopped = profiler.profile_sampling_seeded(
            avg_query,
            (0.05, 0.1, 0.2, 0.4, 0.8),
            ROOT,
            early_stop_tolerance=0.5,
        )
        assert len(stopped.points) < len(full.points)

    def test_fractions_must_be_ascending(self, profiler, avg_query):
        with pytest.raises(ConfigurationError):
            profiler.profile_sampling_seeded(avg_query, (0.5, 0.1), ROOT)

    def test_duplicate_fractions_rejected(self, profiler, avg_query):
        # A repeated fraction's zero bound difference would trip early
        # stopping right after the repeat.
        with pytest.raises(ConfigurationError, match="strictly ascending"):
            profiler.profile_sampling_seeded(
                avg_query, (0.1, 0.1, 0.2), ROOT, early_stop_tolerance=1e-6
            )

    def test_removal_restricts_universe(self, profiler, avg_query):
        profile = profiler.profile_sampling_seeded(
            avg_query, (0.1,), ROOT, removal=(ObjectClass.PERSON,)
        )
        assert profile.points[0].n < round(avg_query.dataset.frame_count * 0.1)


class TestResolutionProfiles:
    def test_resolution_axis(self, profiler, avg_query):
        profile = profiler.profile_resolution_seeded(
            avg_query,
            (Resolution(128), Resolution(320), Resolution(608)),
            ROOT,
            fraction=0.3,
        )
        assert profile.axis == "resolution"
        assert profile.knob_values() == [128.0, 320.0, 608.0]

    def test_correction_keeps_bounds_valid_at_low_resolution(
        self, processor, avg_query
    ):
        """Figure 6's second row: with a correction set, the profiled bound
        at a strong resolution intervention covers the true error."""
        correction = determine_correction_set(processor, avg_query, 1)
        profiler = DegradationProfiler(processor, trials=5)
        profile = profiler.profile_resolution_seeded(
            avg_query, (Resolution(192),), ROOT, fraction=0.5, correction=correction
        )
        truth = processor.true_answer(avg_query)
        degraded_mean = avg_query.model.run(
            avg_query.dataset, Resolution(192)
        ).counts.mean()
        true_error = abs(degraded_mean - truth) / truth
        assert profile.points[0].error_bound >= true_error


class TestRemovalProfiles:
    def test_removal_axis_labels(self, profiler, avg_query):
        profile = profiler.profile_removal_seeded(
            avg_query,
            ((), (ObjectClass.PERSON,), (ObjectClass.FACE,)),
            ROOT,
            fraction=0.3,
        )
        assert profile.knob_values() == ["none", "remove person", "remove face"]


class TestEstimatePlan:
    def test_random_plan_min_of_bounds(self, processor, avg_query):
        """With a correction set on a random plan, the tighter of the basic
        and corrected bounds is used — never worse than basic alone."""
        correction = determine_correction_set(processor, avg_query, 2)
        profiler = DegradationProfiler(processor, trials=1)
        plan = InterventionPlan.from_knobs(f=0.1)
        with_correction = profiler.estimate_plan_seeded(
            avg_query, plan, 3, 0, correction
        )
        without = profiler.estimate_plan_seeded(avg_query, plan, 3, 0, None)
        assert with_correction.error_bound <= without.error_bound + 1e-12

    def test_trials_average(self, processor, avg_query):
        profiler = DegradationProfiler(processor, trials=10)
        plan = InterventionPlan.from_knobs(f=0.05)
        point = profiler.estimate_plan_seeded(avg_query, plan, 4, 0)
        assert point.error_bound > 0
        assert point.n == round(avg_query.dataset.frame_count * 0.05)

    def test_rejects_nonpositive_trials(self, processor):
        with pytest.raises(ConfigurationError):
            DegradationProfiler(processor, trials=0)


class TestHypercube:
    def test_generate_full_grid(self, processor, avg_query):
        grid = CandidateGrid(
            fractions=(0.05, 0.2),
            resolutions=(Resolution(256), Resolution(608)),
            removals=((), (ObjectClass.FACE,)),
        )
        profiler = DegradationProfiler(processor, trials=1)
        cube = profiler.generate_hypercube_seeded(avg_query, grid, ROOT)
        assert cube.bounds.shape == (2, 2, 2)
        assert not np.isnan(cube.bounds).any()

    def test_early_stop_leaves_nan_cells(self, processor, avg_query):
        grid = CandidateGrid(
            fractions=(0.05, 0.1, 0.2, 0.4),
            resolutions=(Resolution(608),),
            removals=((),),
        )
        profiler = DegradationProfiler(processor, trials=1)
        cube = profiler.generate_hypercube_seeded(
            avg_query, grid, ROOT, early_stop_tolerance=0.9
        )
        assert np.isnan(cube.bounds).any()

    def test_ledger_counts_reused_invocations(self, processor, avg_query):
        """Nested sweeps record each frame once per resolution: total
        invocations equal the largest sample size, not the sum."""
        ledger = InvocationLedger()
        profiler = DegradationProfiler(processor, trials=1, ledger=ledger)
        grid = CandidateGrid(
            fractions=(0.05, 0.1, 0.2),
            resolutions=(Resolution(608),),
            removals=((),),
        )
        profiler.generate_hypercube_seeded(avg_query, grid, ROOT)
        expected = round(avg_query.dataset.frame_count * 0.2)
        assert ledger.total == expected
