"""Failure injection and adversarial inputs across the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.base import DetectorOutputs
from repro.errors import (
    ConfigurationError,
    EstimationError,
    InterventionError,
)
from repro.interventions import InterventionPlan
from repro.query import Aggregate, AggregateQuery, QueryProcessor
from repro.video.dataset import ObjectArrays, VideoDataset
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


class BrokenDetector:
    """A detector that returns NaN outputs (a crashed/misloaded model)."""

    name = "broken"
    target_class = ObjectClass.CAR
    threshold = 0.7

    def run(self, dataset, resolution=None, quality=1.0):
        counts = np.full(dataset.frame_count, np.nan)
        return DetectorOutputs(
            counts=counts, resolution=resolution or dataset.native_resolution
        )


class EmptySceneDetector:
    """A detector that never finds anything (all-zero outputs)."""

    name = "empty"
    target_class = ObjectClass.CAR
    threshold = 0.7

    def run(self, dataset, resolution=None, quality=1.0):
        counts = np.zeros(dataset.frame_count, dtype=np.int64)
        return DetectorOutputs(
            counts=counts, resolution=resolution or dataset.native_resolution
        )


def empty_dataset(frames: int = 100) -> VideoDataset:
    return VideoDataset(
        name="empty-scene",
        native_resolution=Resolution(608),
        frame_count=frames,
        objects={ObjectClass.CAR: ObjectArrays.empty()},
        clutter=np.linspace(0, 1, frames, endpoint=False),
        seed=0,
    )


class TestBrokenModelOutputs:
    def test_nan_outputs_rejected_at_estimation(self, detrac_dataset, rng):
        """Non-finite model outputs surface as EstimationError, not as a
        silently wrong bound."""
        from repro.estimators import estimate_query

        query = AggregateQuery(detrac_dataset, BrokenDetector(), Aggregate.AVG)
        processor = QueryProcessor()
        execution = processor.execute(query, InterventionPlan.from_knobs(f=0.1), rng)
        with pytest.raises(EstimationError):
            estimate_query(query, execution)


class TestDegenerateScenes:
    def test_all_zero_outputs_yield_certain_zero(self, rng):
        """An empty scene: every sampled output is 0, the interval
        collapses to the point {0}, and the estimate is a certain zero."""
        from repro.estimators import estimate_query

        dataset = empty_dataset()
        query = AggregateQuery(dataset, EmptySceneDetector(), Aggregate.AVG)
        processor = QueryProcessor()
        execution = processor.execute(query, InterventionPlan.from_knobs(f=0.3), rng)
        estimate = estimate_query(query, execution)
        assert estimate.value == 0.0
        assert estimate.error_bound == 0.0

    def test_count_on_empty_scene_partial_sample_stays_uncertain(self, rng):
        """COUNT knows its indicator range is 1 a priori, so an all-zero
        *partial* sample cannot certify absence — the estimator reports 0
        with the honest err_b = 1 rather than a falsely certain zero."""
        from repro.estimators import estimate_query

        dataset = empty_dataset()
        query = AggregateQuery(dataset, EmptySceneDetector(), Aggregate.COUNT)
        processor = QueryProcessor()
        execution = processor.execute(query, InterventionPlan.from_knobs(f=0.3), rng)
        estimate = estimate_query(query, execution)
        assert estimate.value == 0.0
        assert estimate.error_bound == 1.0

    def test_count_on_empty_scene_census_is_certain(self, rng):
        """A full census collapses the interval regardless of the known
        range (rho_N = 0): zero frames contain cars, with certainty."""
        from repro.estimators import estimate_query

        dataset = empty_dataset()
        query = AggregateQuery(dataset, EmptySceneDetector(), Aggregate.COUNT)
        processor = QueryProcessor()
        execution = processor.execute(query, InterventionPlan.from_knobs(f=1.0), rng)
        estimate = estimate_query(query, execution)
        assert estimate.value == 0.0
        assert estimate.error_bound == 0.0

    def test_single_frame_corpus(self, rng):
        dataset = empty_dataset(frames=1)
        query = AggregateQuery(dataset, EmptySceneDetector(), Aggregate.AVG)
        processor = QueryProcessor()
        execution = processor.execute(query, InterventionPlan.from_knobs(f=1.0), rng)
        assert execution.size == 1


class TestRemovalEdgeCases:
    def test_removal_of_everything_rejected(self, rng):
        """If the restricted class appears in every frame, removal leaves
        nothing to sample — a clear error, not a crash."""
        from repro.detection.zoo import DetectorSuite

        class AlwaysPresent:
            name = "always"
            target_class = ObjectClass.PERSON
            threshold = 0.7

            def run(self, dataset, resolution=None, quality=1.0):
                return DetectorOutputs(
                    counts=np.ones(dataset.frame_count, dtype=np.int64),
                    resolution=resolution or dataset.native_resolution,
                )

        dataset = empty_dataset()
        suite = DetectorSuite(
            person_detector=AlwaysPresent(), face_detector=AlwaysPresent()
        )
        plan = InterventionPlan.from_knobs(c=(ObjectClass.PERSON,))
        with pytest.raises(InterventionError):
            plan.draw(dataset, rng, suite)

    def test_tiny_eligible_universe_still_samples(self, detrac_dataset, suite, rng):
        """Person removal on UA-DETRAC leaves ~1/3 of frames; sampling at
        any fraction of that universe works."""
        plan = InterventionPlan.from_knobs(f=0.001, c=(ObjectClass.PERSON,))
        sample = plan.draw(detrac_dataset, rng, suite)
        assert sample.size >= 1


class TestAdversarialCorrectionSets:
    def test_tiny_correction_set_gives_weak_not_wrong_bound(
        self, processor, detrac_dataset, yolo_car, rng
    ):
        """A 5-frame correction set cannot repair much — the corrected
        bound must be huge (or infinite), never confidently wrong."""
        from repro.estimators.dispatch import corrected_bounds, estimate_batch
        from repro.stats.prefix_moments import PrefixMoments

        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)
        degraded = processor.execute(
            query, InterventionPlan.from_knobs(f=0.3, p=128), rng
        )
        tiny = processor.true_values(query)[:5]
        batch = estimate_batch(
            query,
            PrefixMoments(degraded.values[None, :]),
            (degraded.values.size,),
            degraded.universe_size,
            detrac_dataset.frame_count,
        )
        bound = corrected_bounds(query, batch, tiny, plan_is_random=False)
        truth = processor.true_answer(query)
        true_error = abs(batch.values[0, 0] - truth) / truth
        assert bound[0, 0] >= true_error

    def test_constant_correction_set_certifies_only_itself(self):
        """A constant correction set claims zero uncertainty about its own
        mean; the corrected bound then reduces to the pure drift term."""
        from repro.estimators import ProfileRepair
        from repro.estimators.smokescreen import SmokescreenMeanEstimator

        correction = np.full(50, 4.0)
        estimate = SmokescreenMeanEstimator().estimate(correction, 1000, 0.05)
        assert estimate.error_bound == 0.0
        bound = ProfileRepair.corrected_mean_bound(6.0, estimate)
        assert bound == pytest.approx(abs(6.0 - 4.0) / 4.0)


class TestExtremeDeltas:
    @pytest.mark.parametrize("delta", [0.001, 0.3])
    def test_bounds_defined_across_delta_range(
        self, processor, detrac_dataset, yolo_car, rng, delta
    ):
        from repro.estimators import estimate_query

        query = AggregateQuery(
            detrac_dataset, yolo_car, Aggregate.AVG, delta=delta
        )
        execution = processor.execute(query, InterventionPlan.from_knobs(f=0.1), rng)
        estimate = estimate_query(query, execution)
        assert 0.0 <= estimate.error_bound <= 1.0

    def test_rejects_delta_of_zero_or_one(self, detrac_dataset, yolo_car):
        with pytest.raises(ConfigurationError):
            AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG, delta=0.0)
        with pytest.raises(ConfigurationError):
            AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG, delta=1.0)


class TestNearCensusSampling:
    def test_n_equals_population_minus_one(self, processor, detrac_dataset, yolo_car):
        """The rho_n factor stays positive right up to the census."""
        from repro.estimators import SmokescreenMeanEstimator

        values = processor.true_values(
            AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)
        )
        estimate = SmokescreenMeanEstimator().estimate(
            values[:-1], values.size, 0.05
        )
        assert 0.0 < estimate.error_bound < 0.05

    def test_census_is_certain(self, processor, detrac_dataset, yolo_car):
        from repro.estimators import SmokescreenMeanEstimator

        values = processor.true_values(
            AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)
        )
        estimate = SmokescreenMeanEstimator().estimate(values, values.size, 0.05)
        assert estimate.error_bound == 0.0
        assert estimate.value == pytest.approx(values.mean())
