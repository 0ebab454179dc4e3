"""Differential tests: the profiler's batch kernels vs the scalar oracle.

The kernels carry the determinism contract: against
:mod:`tests.scalar_oracle`, which re-draws every trial and prices each
``(fraction, trial)`` slice with the scalar estimators, they draw the same
samples, record the same ledger totals, keep the same early-stop
selections, and agree on every value and bound within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import CandidateGrid
from repro.core.correction import determine_correction_set
from repro.core.profiler import DegradationProfiler
from repro.interventions import InterventionPlan
from repro.query import Aggregate, AggregateQuery
from repro.system.costs import InvocationLedger
from repro.system.executor import PlanUnit
from repro.video.geometry import Resolution, resolution_grid
from tests import scalar_oracle

RTOL = 1e-9
ATOL = 1e-12

FRACTIONS = (0.02, 0.05, 0.1, 0.2)


@pytest.fixture
def avg_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)


@pytest.fixture
def max_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.MAX)


def kernel_and_oracle(monkeypatch, run):
    """``run()`` on the kernels, then again with the oracle installed."""
    kernel = run()
    scalar_oracle.install(monkeypatch)
    return kernel, run()


def oracle_point(processor, query, plan, trials, root, correction=None):
    point, _ = scalar_oracle.plan_unit(
        PlanUnit(query=query, plan=plan, correction=correction, trials=trials,
                 root=(root,), unit_index=0, suite=processor.suite)
    )
    return point


class TestHypercubeDifferential:
    def test_bounds_ledger_and_nan_mask_agree(
        self, processor, avg_query, monkeypatch
    ):
        grid = CandidateGrid(
            fractions=FRACTIONS,
            resolutions=tuple(
                resolution_grid(avg_query.dataset.native_resolution, 3)
            ),
            removals=((),),
        )
        ledgers = []

        def run():
            ledgers.append(InvocationLedger())
            profiler = DegradationProfiler(
                processor, trials=3, ledger=ledgers[-1]
            )
            return profiler.generate_hypercube_seeded(
                avg_query, grid, root=5, early_stop_tolerance=0.05
            )

        cube_vec, cube_loop = kernel_and_oracle(monkeypatch, run)
        # Identical early-stop decisions: the NaN masks match exactly.
        np.testing.assert_array_equal(
            np.isnan(cube_vec.bounds), np.isnan(cube_loop.bounds)
        )
        np.testing.assert_allclose(
            cube_vec.bounds, cube_loop.bounds, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            cube_vec.values, cube_loop.values, rtol=RTOL, atol=ATOL
        )
        # Identical samples drawn: the ledger folds to the oracle's counts.
        assert ledgers[0].by_resolution() == ledgers[1].by_resolution()
        assert ledgers[0].total == ledgers[1].total

    def test_max_aggregate_uses_quantile_fallback(
        self, processor, max_query, monkeypatch
    ):
        profiler = DegradationProfiler(processor, trials=2)
        profile_vec, profile_loop = kernel_and_oracle(
            monkeypatch,
            lambda: profiler.profile_sampling_seeded(max_query, FRACTIONS, root=3),
        )
        np.testing.assert_allclose(
            profile_vec.error_bounds(), profile_loop.error_bounds(),
            rtol=RTOL, atol=ATOL,
        )


class TestSamplingSweepDifferential:
    def test_with_correction_set(self, processor, avg_query, monkeypatch):
        correction = determine_correction_set(processor, avg_query, 12345)
        profiler = DegradationProfiler(processor, trials=3)
        profile_vec, profile_loop = kernel_and_oracle(
            monkeypatch,
            lambda: profiler.profile_sampling_seeded(
                avg_query, FRACTIONS, root=11,
                resolution=Resolution(160), correction=correction,
            ),
        )
        assert profile_vec.knob_values() == profile_loop.knob_values()
        np.testing.assert_allclose(
            profile_vec.error_bounds(), profile_loop.error_bounds(),
            rtol=RTOL, atol=ATOL,
        )

    def test_random_plan_takes_tighter_corrected_bound(
        self, processor, detrac_dataset, yolo_car, monkeypatch
    ):
        # COUNT at small fractions: the corrected bound wins the minimum.
        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.COUNT)
        correction = determine_correction_set(processor, query, 12345)
        profiler = DegradationProfiler(processor, trials=3)
        profile_vec, profile_loop = kernel_and_oracle(
            monkeypatch,
            lambda: profiler.profile_sampling_seeded(
                query, (0.005, 0.01, 0.02), root=13, correction=correction
            ),
        )
        np.testing.assert_allclose(
            profile_vec.error_bounds(), profile_loop.error_bounds(),
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize(
        "aggregate, resolution",
        [
            # Random plan: the tighter of the basic and Eq. 13 bounds.
            pytest.param(Aggregate.MAX, None, id="max-random"),
            # Non-random plan: the Eq. 13 bound alone.
            pytest.param(Aggregate.MAX, Resolution(160), id="max-resolution"),
            pytest.param(Aggregate.VAR, Resolution(160), id="var-resolution"),
        ],
    )
    def test_sweep_with_correction_set_matches_loop(
        self, processor, detrac_dataset, yolo_car, aggregate, resolution,
        monkeypatch,
    ):
        query = AggregateQuery(detrac_dataset, yolo_car, aggregate)
        correction = determine_correction_set(processor, query, 12345)
        profiler = DegradationProfiler(processor, trials=3)
        profile_vec, profile_loop = kernel_and_oracle(
            monkeypatch,
            lambda: profiler.profile_sampling_seeded(
                query, FRACTIONS, root=19, resolution=resolution,
                correction=correction,
            ),
        )
        np.testing.assert_allclose(
            profile_vec.error_bounds(), profile_loop.error_bounds(),
            rtol=RTOL, atol=ATOL,
        )
        np.testing.assert_allclose(
            [point.value for point in profile_vec.points],
            [point.value for point in profile_loop.points],
            rtol=RTOL, atol=ATOL,
        )

    def test_early_stop_keeps_same_points(
        self, processor, avg_query, monkeypatch
    ):
        profiler = DegradationProfiler(processor, trials=2)
        fractions = (0.05, 0.1, 0.2, 0.4, 0.8)
        profile_vec, profile_loop = kernel_and_oracle(
            monkeypatch,
            lambda: profiler.profile_sampling_seeded(
                avg_query, fractions, root=2, early_stop_tolerance=0.5
            ),
        )
        assert profile_vec.knob_values() == profile_loop.knob_values()
        assert len(profile_vec.points) < len(fractions)


class TestPointEstimates:
    @pytest.mark.parametrize(
        "aggregate, knobs, corrected",
        [
            pytest.param(Aggregate.AVG, {}, False, id="Aggregate.AVG"),
            pytest.param(Aggregate.SUM, {}, False, id="Aggregate.SUM"),
            # Random plan: the tighter of the basic and Eq. 13 bounds.
            pytest.param(Aggregate.MAX, {}, True, id="max-sampling-corrected"),
            # Non-random plan: the Eq. 13 bound alone.
            pytest.param(
                Aggregate.MAX, {"p": 256}, True, id="max-resolution-corrected"
            ),
            pytest.param(
                Aggregate.VAR, {"p": 256}, True, id="var-resolution-corrected"
            ),
        ],
    )
    def test_estimate_plan_matches_loop(
        self, processor, detrac_dataset, yolo_car, aggregate, knobs, corrected
    ):
        query = AggregateQuery(detrac_dataset, yolo_car, aggregate)
        plan = InterventionPlan.from_knobs(f=0.1, **knobs)
        correction = (
            determine_correction_set(processor, query, 12345)
            if corrected
            else None
        )
        profiler = DegradationProfiler(processor, trials=3)
        point_vec = profiler.estimate_plan_seeded(
            query, plan, root=9, unit_index=0, correction=correction
        )
        point_loop = oracle_point(
            processor, query, plan, trials=3, root=9, correction=correction
        )
        assert point_vec.value == pytest.approx(point_loop.value, rel=RTOL)
        assert point_vec.error_bound == pytest.approx(
            point_loop.error_bound, rel=RTOL
        )
        assert point_vec.n == point_loop.n

    def test_estimate_plan_seeded_matches_loop(self, processor, avg_query):
        plan = InterventionPlan.from_knobs(f=0.08, p=160)
        profiler = DegradationProfiler(processor, trials=4)
        point_vec = profiler.estimate_plan_seeded(avg_query, plan, root=17, unit_index=0)
        point_loop = oracle_point(processor, avg_query, plan, trials=4, root=17)
        assert point_vec.value == pytest.approx(point_loop.value, rel=RTOL)
        assert point_vec.error_bound == pytest.approx(
            point_loop.error_bound, rel=RTOL
        )
        assert point_vec.n == point_loop.n

    def test_n_is_max_across_trials(self, processor, avg_query):
        # Every trial samples the same count here, so n must equal it —
        # the regression was reporting only the *last* trial's n.
        profiler = DegradationProfiler(processor, trials=3)
        plan = InterventionPlan.from_knobs(f=0.1)
        point = profiler.estimate_plan_seeded(avg_query, plan, root=1, unit_index=0)
        assert point.n == round(avg_query.dataset.frame_count * 0.1)
