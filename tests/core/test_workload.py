"""Tests for multi-query workloads sharing samples and corrections."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.workload import QueryWorkload
from repro.errors import ConfigurationError, ProfileError
from repro.query import Aggregate, AggregateQuery

#: The root seed of the workloads' trial draws.
ROOT = 12345


@pytest.fixture
def workload(detrac_dataset, yolo_car, processor):
    queries = [
        AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG),
        AggregateQuery(detrac_dataset, yolo_car, Aggregate.COUNT),
        AggregateQuery(detrac_dataset, yolo_car, Aggregate.MAX),
    ]
    return QueryWorkload(queries, processor, trials=2)


class TestConstruction:
    def test_rejects_empty(self, processor):
        with pytest.raises(ConfigurationError):
            QueryWorkload([], processor)

    def test_rejects_mixed_corpora(self, detrac_dataset, night_dataset, yolo_car, processor):
        queries = [
            AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG),
            AggregateQuery(night_dataset, yolo_car, Aggregate.AVG),
        ]
        with pytest.raises(ConfigurationError):
            QueryWorkload(queries, processor)

    def test_rejects_duplicate_queries(self, detrac_dataset, yolo_car, processor):
        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)
        with pytest.raises(ConfigurationError):
            QueryWorkload([query, query], processor)


class TestSharedCorrection:
    def test_shared_set_is_largest_per_query_elbow(self, workload, processor, detrac_dataset, yolo_car):
        from repro.core.correction import determine_correction_set

        shared = workload.build_shared_correction_set(3)
        for query in workload.queries:
            own = determine_correction_set(processor, query, 3)
            assert shared.size >= own.size

    def test_per_query_sets_are_prefixes(self, workload, processor):
        """One root stream drives every query's sizing, so smaller sets
        are prefixes of the shared one."""
        from repro.core.correction import determine_correction_set

        shared = workload.build_shared_correction_set(4)
        own = determine_correction_set(processor, workload.queries[0], 4)
        assert np.array_equal(
            shared.frame_indices[: own.size], own.frame_indices
        )


class TestProfilesAndChoice:
    def test_profiles_per_query(self, workload):
        profiles = workload.profile_sampling((0.05, 0.1, 0.3), ROOT)
        assert len(profiles) == 3
        for profile in profiles.values():
            assert len(profile.points) == 3

    def test_each_profile_is_the_standalone_seeded_profile(
        self, workload, processor
    ):
        """Every query prices the same root's trials, alone or together."""
        from repro.core.profiler import DegradationProfiler

        fractions = (0.05, 0.3)
        profiles = workload.profile_sampling(fractions, ROOT)
        profiler = DegradationProfiler(processor, trials=2)
        for query in workload.queries:
            alone = profiler.profile_sampling_seeded(query, fractions, ROOT)
            assert profiles[query.label()].error_bounds().tolist() == (
                alone.error_bounds().tolist()
            )

    def test_correction_values_re_evaluated_per_query(self, workload):
        """COUNT sees indicators, AVG sees counts — the shared frames must
        be re-valued per query."""
        correction = workload.build_shared_correction_set(5)
        profiles = workload.profile_sampling((0.1, 0.4), ROOT, correction=correction)
        assert set(profiles) == {q.label() for q in workload.queries}

    def test_choice_satisfies_every_query(self, workload):
        profiles = workload.profile_sampling((0.05, 0.1, 0.3, 0.6), ROOT)
        targets = {
            label: float(profile.error_bounds().max()) + 0.01
            for label, profile in profiles.items()
        }
        choice = workload.choose_sampling(profiles, targets)
        assert choice.fraction == 0.05  # loose targets: max degradation
        assert set(choice.bounds) == set(profiles)

    def test_strictest_query_dominates(self, workload):
        """Tightening one query's target can only raise the fraction."""
        profiles = workload.profile_sampling((0.05, 0.1, 0.3, 0.6), ROOT)
        loose = {
            label: float(profile.error_bounds().max()) + 0.01
            for label, profile in profiles.items()
        }
        loose_choice = workload.choose_sampling(profiles, loose)
        strict = dict(loose)
        first = next(iter(profiles))
        strict[first] = float(profiles[first].error_bounds().min()) + 1e-9
        strict_choice = workload.choose_sampling(profiles, strict)
        assert strict_choice.fraction >= loose_choice.fraction

    def test_missing_target_rejected(self, workload):
        profiles = workload.profile_sampling((0.1,), ROOT)
        with pytest.raises(ProfileError):
            workload.choose_sampling(profiles, {})

    def test_infeasible_targets_rejected(self, workload):
        profiles = workload.profile_sampling((0.05,), ROOT)
        targets = {label: 1e-9 for label in profiles}
        with pytest.raises(ProfileError):
            workload.choose_sampling(profiles, targets)
