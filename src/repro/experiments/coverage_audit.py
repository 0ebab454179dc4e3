"""Global coverage audit: every guaranteed bound, validated at once.

Table 1 of the paper claims validity (an error bound holding with
probability at least ``1 - delta``) for its estimators under random
interventions. This audit measures the empirical violation rate of *every*
estimator on *every* aggregate and dataset over a grid of sample
fractions — one table certifying the whole estimator suite, and putting
the not-guaranteed methods (CLT) in contrast.

Scoring is per-method against its own claim (the Figure 5 convention):
value-relative error for the mean family and VAR, rank-relative error for
MAX/MIN.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.classic import (
    CLTEstimator,
    HoeffdingEstimator,
    HoeffdingSerflingEstimator,
)
from repro.estimators.ebgs import EBGSEstimator
from repro.estimators.quantile import SmokescreenQuantileEstimator
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.stein import SteinEstimator
from repro.estimators.variance import SmokescreenVarianceEstimator
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import DATASET_NAMES, Workload, shared_suite
from repro.query.aggregates import Aggregate, aggregate_value
from repro.query.processor import QueryProcessor
from repro.stats.quantiles import relative_rank_error
from repro.stats.sampling import SampleDesign
from repro.system.executor import child_rng

#: Methods whose bounds carry a formal guarantee under random interventions.
GUARANTEED_ROWS: tuple[tuple[str, Aggregate], ...] = (
    ("smokescreen", Aggregate.AVG),
    ("smokescreen", Aggregate.SUM),
    ("smokescreen", Aggregate.COUNT),
    ("smokescreen", Aggregate.MAX),
    ("smokescreen", Aggregate.MIN),
    ("smokescreen", Aggregate.VAR),
    ("ebgs", Aggregate.AVG),
    ("hoeffding", Aggregate.AVG),
    ("hoeffding-serfling", Aggregate.AVG),
    ("stein", Aggregate.MAX),
)

#: Not-guaranteed contrast rows.
NOMINAL_ROWS: tuple[tuple[str, Aggregate], ...] = (("clt", Aggregate.AVG),)


def _estimator_for(method: str, aggregate: Aggregate):
    if aggregate.is_extreme:
        return {
            "smokescreen": SmokescreenQuantileEstimator,
            "stein": SteinEstimator,
        }[method]()
    if aggregate.is_variance:
        return {"smokescreen": SmokescreenVarianceEstimator}[method]()
    return {
        "smokescreen": SmokescreenMeanEstimator,
        "ebgs": EBGSEstimator,
        "hoeffding": HoeffdingEstimator,
        "hoeffding-serfling": HoeffdingSerflingEstimator,
        "clt": CLTEstimator,
    }[method]()


def _violations(
    values: np.ndarray,
    method: str,
    aggregate: Aggregate,
    fraction: float,
    trials: int,
    rng: np.random.Generator,
    delta: float,
) -> float:
    population = values.size
    estimator = _estimator_for(method, aggregate)
    r = aggregate.default_quantile if aggregate.is_extreme else None
    truth = aggregate_value(values, aggregate, r)
    n = SampleDesign(population, fraction).size
    misses = 0
    for _ in range(trials):
        sample = values[rng.choice(population, size=n, replace=False)]
        if aggregate.is_extreme:
            estimate = estimator.estimate(sample, population, r, delta, aggregate)
            error = relative_rank_error(values, estimate.value, truth)
        else:
            known_range = 1.0 if aggregate == Aggregate.COUNT else None
            estimate = estimator.estimate(
                sample, population, delta, value_range=known_range
            )
            if aggregate in (Aggregate.SUM, Aggregate.COUNT):
                estimate = estimate.scaled(population)
            if truth == 0.0:
                continue
            error = abs(estimate.value - truth) / abs(truth)
        if error > estimate.error_bound:
            misses += 1
    return 100.0 * misses / trials


def run_coverage_audit(
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.005, 0.02, 0.1),
    seed: int = 0,
    delta: float = 0.05,
) -> ExperimentResult:
    """Audit every estimator's empirical coverage.

    Args:
        trials: Trials per (row, dataset, fraction) cell.
        frame_count: Optional reduced corpus size.
        fractions: Sample fractions audited; the worst cell is reported.
        seed: Randomness seed.
        delta: Nominal failure probability.

    Returns:
        Per (method, aggregate) row: the worst violation percentage across
        both datasets and all fractions.
    """
    rng = child_rng(seed)
    processor = QueryProcessor(shared_suite())

    knobs: list[str] = []
    worst: list[float] = []
    for method, aggregate in GUARANTEED_ROWS + NOMINAL_ROWS:
        cell_worst = 0.0
        for dataset_name in DATASET_NAMES:
            values = processor.true_values(
                Workload(dataset_name, aggregate, frame_count).query()
            )
            for fraction in fractions:
                rate = _violations(
                    values, method, aggregate, fraction, trials, rng, delta
                )
                cell_worst = max(cell_worst, rate)
        knobs.append(f"{method}/{aggregate.name}")
        worst.append(cell_worst)

    guaranteed_flags = [1.0] * len(GUARANTEED_ROWS) + [0.0] * len(NOMINAL_ROWS)
    return ExperimentResult(
        title=(
            f"Coverage audit: worst violation % over datasets x fractions "
            f"({trials} trials/cell, delta={delta})"
        ),
        knob_label="method/agg",
        knobs=knobs,
        series={
            "worst_violation_pct": worst,
            "guaranteed": guaranteed_flags,
        },
        notes=(
            "guaranteed rows must stay near or below 100*delta = "
            f"{100 * delta:.0f}%",
            "clt/AVG is the not-guaranteed contrast row (Figure 5)",
        ),
    )
