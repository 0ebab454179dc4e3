"""Tests for multi-camera fleet estimation and resilient execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import mask_rcnn_like, yolo_v4_like
from repro.errors import ConfigurationError, EstimationError, TransmissionError
from repro.system.camera import Camera
from repro.system.faults import FaultModel
from repro.system.fleet import CameraStatus, FleetQueryProcessor
from repro.system.resilience import BreakerState, RetryPolicy
from repro.video import night_street, ua_detrac


class _EmptyDataset:
    """A dataset-shaped object with no frames (misconfiguration)."""

    name = "empty"
    frame_count = 0


@pytest.fixture(scope="module")
def fleet_parts(suite, processor):
    downtown = Camera("downtown", ua_detrac(frame_count=2000), suite)
    suburb = Camera("suburb", night_street(frame_count=1500), suite)
    for camera in (downtown, suburb):
        camera.configure(fraction=0.2)
    return downtown, suburb


def model_for(camera):
    return yolo_v4_like() if camera.name == "downtown" else mask_rcnn_like()


class TestConstruction:
    def test_rejects_empty_fleet(self, processor):
        with pytest.raises(ConfigurationError):
            FleetQueryProcessor([], processor)

    def test_rejects_duplicate_names(self, fleet_parts, processor, suite):
        downtown, _ = fleet_parts
        clone = Camera("downtown", downtown.dataset, suite)
        with pytest.raises(ConfigurationError):
            FleetQueryProcessor([downtown, clone], processor)

    def test_total_frames(self, fleet_parts, processor):
        fleet = FleetQueryProcessor(list(fleet_parts), processor)
        assert fleet.total_frames == 3500

    def test_rejects_empty_dataset_camera(self, fleet_parts, processor, suite):
        downtown, _ = fleet_parts
        dead = Camera("dead", _EmptyDataset(), suite)
        with pytest.raises(ConfigurationError, match="empty dataset"):
            FleetQueryProcessor([downtown, dead], processor)

    def test_resilient_processor_shares_fleet_validation(self, processor):
        """Fault injection, retries and breakers change nothing about the
        eager checks: a faulty fleet is validated like a fault-free one."""
        with pytest.raises(ConfigurationError, match="at least one camera"):
            FleetQueryProcessor(
                [],
                processor,
                faults=FaultModel(outage_probability=0.5),
                retry_policy=RetryPolicy(),
            )


class TestFleetEstimate:
    """The fault-free fleet: every camera answers over a perfect channel."""

    def test_combined_answer_and_per_camera_parts(self, fleet_parts, processor):
        fleet = FleetQueryProcessor(list(fleet_parts), processor)
        report = fleet.execute(model_for, seed=0)
        assert set(report.per_camera) == {"downtown", "suburb"}
        assert report.combined.method == "smokescreen-fleet-resilient"
        assert report.combined.universe_size == 3500

    def test_combined_interval_is_weighted(self, fleet_parts, processor):
        fleet = FleetQueryProcessor(list(fleet_parts), processor)
        report = fleet.execute(model_for, seed=0)
        weights = {
            camera.name: camera.dataset.frame_count / fleet.total_frames
            for camera in fleet.cameras
        }
        expected_upper = sum(
            weights[name] * camera.estimate.extras["upper"]
            for name, camera in report.per_camera.items()
        )
        assert report.combined.extras["upper"] == pytest.approx(expected_upper)
        for name, camera in report.per_camera.items():
            assert camera.weight == pytest.approx(weights[name])

    def test_combined_bound_covers_fleet_truth(self, fleet_parts, processor):
        """Empirical coverage of the union-budget combination."""
        fleet = FleetQueryProcessor(list(fleet_parts), processor)
        truths = []
        for camera in fleet.cameras:
            counts = model_for(camera).run(camera.dataset).counts
            truths.append((camera.dataset.frame_count, counts.mean()))
        total = sum(weight for weight, _ in truths)
        fleet_truth = sum(weight * mean for weight, mean in truths) / total

        violations = 0
        trials = 60
        for seed in range(trials):
            report = fleet.execute(model_for, seed=seed)
            error = abs(report.combined.value - fleet_truth) / fleet_truth
            if error > report.combined.error_bound:
                violations += 1
        assert violations / trials <= 0.05

    def test_per_camera_budget_split(self, fleet_parts, processor):
        """Per-camera intervals use delta/k; a solo camera spends all of
        delta on the same sample size."""
        downtown, suburb = fleet_parts
        pair = FleetQueryProcessor([downtown, suburb], processor)
        report = pair.execute(model_for, delta=0.05, seed=3)
        solo = FleetQueryProcessor([downtown], processor).execute(
            model_for, delta=0.05, seed=3
        )
        assert report.share == pytest.approx(0.025)
        assert solo.share == pytest.approx(0.05)
        assert solo.combined.universe_size == downtown.dataset.frame_count
        assert (
            report.per_camera["downtown"].estimate.n
            == solo.per_camera["downtown"].estimate.n
        )

    def test_rejects_bad_delta(self, fleet_parts, processor):
        fleet = FleetQueryProcessor(list(fleet_parts), processor)
        with pytest.raises(EstimationError):
            fleet.execute(model_for, delta=0.0, seed=0)

    def test_same_seed_is_bit_identical(self, fleet_parts, processor):
        """Fleet execution draws only from its seed: fresh processors
        given one seed match bit for bit (no module-level RNG anywhere in
        repro.system)."""
        first, second = (
            FleetQueryProcessor(list(fleet_parts), processor).execute(
                model_for, seed=42
            )
            for _ in range(2)
        )
        assert first.combined == second.combined
        assert first.per_camera == second.per_camera


@pytest.fixture(scope="module")
def chaos_cameras(suite):
    datasets = [
        ua_detrac(frame_count=1200),
        night_street(frame_count=1000),
        ua_detrac(frame_count=800),
        night_street(frame_count=1500),
    ]
    cameras = []
    for index, dataset in enumerate(datasets):
        camera = Camera(f"cam{index}", dataset, suite)
        camera.configure(fraction=0.25)
        cameras.append(camera)
    return cameras


def _surviving_truth(cameras, surviving):
    weighted = 0.0
    frames = 0
    for camera in cameras:
        if camera.name not in surviving:
            continue
        counts = model_for(camera).run(camera.dataset).counts
        weighted += counts.mean() * camera.dataset.frame_count
        frames += camera.dataset.frame_count
    return weighted / frames


class TestFleetQueryProcessor:
    def test_fault_free_execution_covers_all_cameras(
        self, chaos_cameras, processor
    ):
        fleet = FleetQueryProcessor(chaos_cameras, processor)
        report = fleet.execute(model_for, delta=0.05, seed=1)
        assert report.lost == ()
        assert report.coverage == 1.0
        assert report.share == pytest.approx(0.05 / 4)
        assert set(report.surviving) == {c.name for c in chaos_cameras}
        assert all(
            r.status is CameraStatus.OK for r in report.per_camera.values()
        )
        assert report.combined.method == "smokescreen-fleet-resilient"

    def test_rejects_bad_delta(self, chaos_cameras, processor):
        fleet = FleetQueryProcessor(chaos_cameras, processor)
        with pytest.raises(EstimationError):
            fleet.execute(model_for, delta=1.5, seed=0)

    def test_lost_camera_resplits_delta_and_reports(
        self, chaos_cameras, processor
    ):
        # Full outage of some cameras: find a fault seed losing >= 1.
        faults = FaultModel(outage_probability=0.5)
        for fault_seed in range(20):
            fleet = FleetQueryProcessor(
                chaos_cameras, processor, faults=faults, fault_seed=fault_seed
            )
            try:
                report = fleet.execute(model_for, delta=0.05, seed=2)
            except TransmissionError:
                continue
            if report.lost:
                break
        else:
            pytest.fail("no fault seed lost a camera")
        survivors = len(report.surviving)
        assert report.share == pytest.approx(0.05 / survivors)
        assert report.coverage < 1.0
        total = sum(c.dataset.frame_count for c in chaos_cameras)
        surviving_frames = sum(
            c.dataset.frame_count
            for c in chaos_cameras
            if c.name in report.surviving
        )
        assert report.coverage == pytest.approx(surviving_frames / total)
        assert report.combined.universe_size == surviving_frames
        for name in report.lost:
            lost_report = report.per_camera[name]
            assert lost_report.status is CameraStatus.LOST
            assert lost_report.estimate is None
            assert lost_report.reason

    def test_chaos_reports_are_reproducible_from_seeds(
        self, chaos_cameras, processor
    ):
        faults = FaultModel(
            outage_probability=0.3,
            transient_failure_probability=0.2,
            frame_drop_probability=0.1,
            straggler_probability=0.2,
        )
        reports = []
        for _ in range(2):
            fleet = FleetQueryProcessor(
                chaos_cameras, processor, faults=faults, fault_seed=7
            )
            reports.append(fleet.execute(model_for, delta=0.05, seed=3))
        first, second = reports
        assert first.combined == second.combined
        assert first.per_camera == second.per_camera
        assert first.lost == second.lost
        assert first.elapsed == second.elapsed

    def test_never_raises_and_bound_holds_across_200_seeded_trials(
        self, chaos_cameras, processor
    ):
        """The acceptance property: under outage up to 0.5 the processor
        answers every surviving-camera query, and the interval covers the
        exact surviving-fleet answer at the configured confidence."""
        delta = 0.05
        faults = FaultModel(
            outage_probability=0.5,
            transient_failure_probability=0.2,
            frame_drop_probability=0.15,
            frame_corruption_probability=0.05,
            straggler_probability=0.1,
        )
        answered = 0
        unavailable = 0
        violations = 0
        for trial in range(200):
            fleet = FleetQueryProcessor(
                chaos_cameras, processor, faults=faults, fault_seed=trial
            )
            try:
                report = fleet.execute(model_for, delta=delta, seed=trial)
            except TransmissionError:
                unavailable += 1  # every camera lost: nothing to answer from
                continue
            answered += 1
            truth = _surviving_truth(chaos_cameras, report.surviving)
            error = abs(report.combined.value - truth) / truth
            if error > report.combined.error_bound:
                violations += 1
        # All-lost fleets are rare even at 0.5 outage (~0.5^4 + retries).
        assert answered >= 150
        assert unavailable + answered == 200
        assert violations / answered <= delta

    def test_all_cameras_lost_raises_transmission_error(
        self, chaos_cameras, processor
    ):
        fleet = FleetQueryProcessor(
            chaos_cameras, processor,
            faults=FaultModel(outage_probability=1.0),
        )
        with pytest.raises(TransmissionError, match="no camera delivered"):
            fleet.execute(model_for, delta=0.05, seed=0)

    def test_breaker_opens_after_repeated_failures_and_skips(
        self, chaos_cameras, processor
    ):
        fleet = FleetQueryProcessor(
            chaos_cameras, processor,
            faults=FaultModel(outage_probability=1.0),
            breaker_threshold=2,
            breaker_cooldown=1000.0,
        )
        for seed in range(2):
            with pytest.raises(TransmissionError):
                fleet.execute(model_for, delta=0.05, seed=seed)
        for camera in chaos_cameras:
            assert fleet.breaker_state(camera.name) is BreakerState.OPEN
        with pytest.raises(TransmissionError):
            fleet.execute(model_for, delta=0.05, seed=99)
        for camera in chaos_cameras:
            assert fleet.ledger.health(camera.name).skipped_queries == 1
            # The skipped query made no new attempts.
            assert fleet.ledger.health(camera.name).attempts == 2

    def test_health_ledger_accumulates_across_queries(
        self, chaos_cameras, processor
    ):
        faults = FaultModel(
            transient_failure_probability=0.3, frame_drop_probability=0.2
        )
        fleet = FleetQueryProcessor(
            chaos_cameras, processor, faults=faults, fault_seed=3,
            retry_policy=RetryPolicy(max_attempts=4),
        )
        for seed in range(3):
            fleet.execute(model_for, delta=0.05, seed=seed)
        totals = fleet.ledger.summary()
        assert set(totals) == {c.name for c in chaos_cameras}
        assert sum(h.attempts for h in totals.values()) >= 3 * len(chaos_cameras)
        assert sum(h.frames_dropped for h in totals.values()) > 0
        assert fleet.clock > 0.0

    def test_unknown_camera_breaker_lookup_rejected(
        self, chaos_cameras, processor
    ):
        fleet = FleetQueryProcessor(chaos_cameras, processor)
        with pytest.raises(ConfigurationError):
            fleet.breaker_state("nope")


class TestBernsteinSerflingRadius:
    """The [8] variance-adaptive without-replacement radius."""

    def test_tighter_than_hs_for_low_variance_data(self):
        from repro.stats.inequalities import (
            empirical_bernstein_serfling_radius,
            hoeffding_serfling_radius,
        )

        # Low variance relative to range: EBS wins at moderate n.
        ebs = empirical_bernstein_serfling_radius(
            2000, 10_000, 0.05, value_range=100.0, sample_std=2.0
        )
        hs = hoeffding_serfling_radius(2000, 10_000, 0.05, 100.0)
        assert ebs < hs

    def test_looser_than_hs_at_tiny_n(self):
        from repro.stats.inequalities import (
            empirical_bernstein_serfling_radius,
            hoeffding_serfling_radius,
        )

        ebs = empirical_bernstein_serfling_radius(
            10, 10_000, 0.05, value_range=100.0, sample_std=30.0
        )
        hs = hoeffding_serfling_radius(10, 10_000, 0.05, 100.0)
        assert ebs > hs

    def test_coverage(self):
        from repro.stats.inequalities import empirical_bernstein_serfling_radius

        rng = np.random.default_rng(13)
        population = rng.poisson(5.0, size=4000).astype(float)
        mu = population.mean()
        value_range = population.max() - population.min()
        misses = 0
        trials = 300
        for _ in range(trials):
            sample = rng.choice(population, size=400, replace=False)
            radius = empirical_bernstein_serfling_radius(
                400, population.size, 0.1, value_range, float(sample.std())
            )
            if abs(sample.mean() - mu) > radius:
                misses += 1
        assert misses / trials <= 0.1

    def test_validation(self):
        from repro.errors import ConfigurationError
        from repro.stats.inequalities import empirical_bernstein_serfling_radius

        with pytest.raises(ConfigurationError):
            empirical_bernstein_serfling_radius(0, 10, 0.05, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            empirical_bernstein_serfling_radius(5, 10, 0.05, 1.0, -1.0)


class TestFleetSentinelLocalization:
    """The fleet sentinel names the camera whose profile broke."""

    @pytest.fixture(scope="class")
    def sentinel_cameras(self, suite):
        cameras = [
            Camera("plaza", ua_detrac(frame_count=2000), suite),
            Camera("bridge", night_street(frame_count=2000), suite),
            Camera("depot", ua_detrac(frame_count=2000, seed=9), suite),
        ]
        for camera in cameras:
            camera.configure(fraction=0.5)
        return cameras

    @staticmethod
    def _armed_sentinel(cameras, processor):
        from repro.estimators.base import Estimate
        from repro.query.aggregates import Aggregate
        from repro.query.query import AggregateQuery
        from repro.system.fleet import FleetSentinel

        references = {}
        for camera in cameras:
            query = AggregateQuery(camera.dataset, model_for(camera), Aggregate.AVG)
            truth = processor.true_answer(query)
            references[camera.name] = Estimate(
                value=truth,
                error_bound=0.0,
                method="exact",
                n=camera.dataset.frame_count,
                universe_size=camera.dataset.frame_count,
            )
        bounds = {name: 0.1 for name in references}
        return FleetSentinel(references, bounds, patience=2)

    def test_clean_fleet_flags_nothing(self, sentinel_cameras, processor):
        fleet = FleetQueryProcessor(
            sentinel_cameras,
            processor,
            sentinel=self._armed_sentinel(sentinel_cameras, processor),
        )
        report = fleet.execute(model_for, seed=11)
        assert report.sentinel is not None
        assert report.sentinel.flagged == ()
        assert set(report.sentinel.verdicts) == {"plaza", "bridge", "depot"}
        assert any("bounds held" in line for line in report.summary_lines())

    def test_occluded_camera_is_localized(self, sentinel_cameras, processor):
        from repro.interventions import Occlusion

        def hostile_model_for(camera):
            model = model_for(camera)
            if camera.name == "bridge":
                return Occlusion(0.7).attach(model)
            return model

        fleet = FleetQueryProcessor(
            sentinel_cameras,
            processor,
            sentinel=self._armed_sentinel(sentinel_cameras, processor),
        )
        report = fleet.execute(hostile_model_for, seed=11)
        assert report.sentinel is not None
        assert report.sentinel.flagged == ("bridge",)
        assert report.sentinel.verdicts["bridge"].tripped
        assert not report.sentinel.verdicts["plaza"].tripped
        assert not report.sentinel.verdicts["depot"].tripped
        assert any(
            "VIOLATED" in line and "bridge" in line
            for line in report.summary_lines()
        )

    def test_localization_is_deterministic(self, sentinel_cameras, processor):
        from repro.interventions import TargetedFrameCorruption

        def hostile_model_for(camera):
            model = model_for(camera)
            if camera.name == "depot":
                return TargetedFrameCorruption(0.4).attach(model)
            return model

        flagged = []
        for _ in range(2):
            fleet = FleetQueryProcessor(
                sentinel_cameras,
                processor,
                sentinel=self._armed_sentinel(sentinel_cameras, processor),
            )
            flagged.append(fleet.execute(hostile_model_for, seed=5).sentinel.flagged)
        assert flagged[0] == flagged[1] == ("depot",)

    def test_sentinel_rejects_mismatched_arming(self):
        from repro.estimators.base import Estimate
        from repro.system.fleet import FleetSentinel

        reference = Estimate(
            value=1.0, error_bound=0.0, method="exact", n=1, universe_size=1
        )
        with pytest.raises(ConfigurationError):
            FleetSentinel({"a": reference}, {"b": 0.1})


class TestFleetExecutorParity:
    """The pooled per-camera values stage changes nothing but wall time."""

    def test_results_identical_with_and_without_executor(
        self, chaos_cameras, processor
    ):
        from repro.system.executor import (
            ExecutorConfig,
            ParallelExecutor,
            shutdown_pool,
        )

        faults = FaultModel(outage_probability=0.2, frame_drop_probability=0.1)

        def one_report(executor):
            fleet = FleetQueryProcessor(
                chaos_cameras,
                processor,
                faults=faults,
                fault_seed=4,
                executor=executor,
            )
            return fleet.execute(model_for, delta=0.05, seed=21)

        serial = one_report(None)
        try:
            pooled = one_report(ParallelExecutor(ExecutorConfig(workers=2)))
        finally:
            shutdown_pool()
        assert pooled.combined.value == serial.combined.value
        assert pooled.combined.error_bound == serial.combined.error_bound
        assert pooled.surviving == serial.surviving
        assert pooled.lost == serial.lost
        for name, report in serial.per_camera.items():
            twin = pooled.per_camera[name]
            assert (twin.estimate is None) == (report.estimate is None)
            if report.estimate is not None:
                assert twin.estimate.value == report.estimate.value
                assert twin.estimate.error_bound == report.estimate.error_bound
