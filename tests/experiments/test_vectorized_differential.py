"""Differential runs of the seeded experiment drivers: kernels vs oracle.

The acceptance contract for the batch-trial kernels: every seeded driver
produces the same series as with :mod:`tests.scalar_oracle` swapped under
its work units within 1e-9 — same samples drawn, same decisions, only the
arithmetic pipeline differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import default_suite, yolo_v4_like
from repro.experiments.fig4_bound_comparison import run_fig4
from repro.experiments.fig6_profile_repair import run_fig6
from repro.experiments.timing import run_timing
from repro.experiments.trials import run_repair_trials_seeded
from repro.interventions import InterventionPlan
from repro.query import AggregateQuery, QueryProcessor
from repro.query.aggregates import Aggregate
from repro.system.costs import InvocationLedger
from repro.video import ua_detrac
from tests import scalar_oracle

FRAMES = 2500
RTOL = 1e-9
ATOL = 1e-12


def assert_series_close(vec, loop):
    assert set(vec.series) == set(loop.series)
    for name, values in vec.series.items():
        np.testing.assert_allclose(
            np.asarray(values, dtype=float),
            np.asarray(loop.series[name], dtype=float),
            rtol=RTOL, atol=ATOL, err_msg=name,
        )


class TestFig4Differential:
    @pytest.mark.parametrize("aggregate", [Aggregate.AVG, Aggregate.MAX])
    def test_panel_matches_loop(self, aggregate, monkeypatch):
        common = dict(
            trials=6, frame_count=FRAMES, grid_points=3, seed=7
        )
        vec = run_fig4("ua-detrac", aggregate, **common)
        scalar_oracle.install(monkeypatch)
        loop = run_fig4("ua-detrac", aggregate, **common)
        assert vec.knobs == loop.knobs
        assert_series_close(vec, loop)


class TestFig6Differential:
    @pytest.mark.parametrize(
        "aggregate, axis",
        [
            pytest.param(Aggregate.AVG, "sampling", id="sampling"),
            pytest.param(Aggregate.AVG, "resolution", id="resolution"),
            pytest.param(Aggregate.MAX, "resolution", id="max-resolution"),
        ],
    )
    def test_row_matches_loop(self, aggregate, axis, monkeypatch):
        common = dict(trials=6, frame_count=FRAMES, seed=3)
        vec = run_fig6("ua-detrac", aggregate, axis, **common)
        scalar_oracle.install(monkeypatch)
        loop = run_fig6("ua-detrac", aggregate, axis, **common)
        assert vec.knobs == loop.knobs
        assert_series_close(vec, loop)


class TestRepairTrialsDifferential:
    @pytest.mark.parametrize(
        "aggregate", [Aggregate.AVG, Aggregate.SUM, Aggregate.COUNT]
    )
    def test_summary_matches_loop(self, aggregate, monkeypatch):
        # SUM/COUNT answers are scaled to the corpus length before they are
        # scored against the corpus total, as in every other pricing path.
        query = AggregateQuery(
            ua_detrac(frame_count=FRAMES), yolo_v4_like(), aggregate
        )
        processor = QueryProcessor(default_suite())
        correction = processor.true_values(query)[
            np.random.default_rng(0).choice(FRAMES, size=100, replace=False)
        ]
        plan = InterventionPlan.from_knobs(f=0.2, p=320)

        def run():
            return run_repair_trials_seeded(
                processor, query, plan, correction, trials=6, root=3
            )

        vec = run()
        scalar_oracle.install(monkeypatch)
        loop = run()
        np.testing.assert_allclose(
            [vec.uncorrected_bound, vec.corrected_bound, vec.true_error],
            [loop.uncorrected_bound, loop.corrected_bound, loop.true_error],
            rtol=RTOL, atol=ATOL,
        )


class TestTimingDifferential:
    def test_sweep_matches_loop_and_ledger(self, monkeypatch):
        ledger_vec = InvocationLedger()
        ledger_loop = InvocationLedger()
        vec = run_timing(frame_count=FRAMES, trials=3, ledger=ledger_vec)
        scalar_oracle.install(monkeypatch)
        loop = run_timing(frame_count=FRAMES, trials=3, ledger=ledger_loop)
        assert vec.knobs == loop.knobs
        assert_series_close(vec, loop)
        # Identical samples drawn: the invocation accounting folds equal.
        assert ledger_vec.by_resolution() == ledger_loop.by_resolution()
        assert ledger_vec.total == ledger_loop.total
