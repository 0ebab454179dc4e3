"""Figure 5: how often the CLT bound falls below the true error.

The paper shows the percentage of 100 trials in which CLT's nominal 95%
guarantee fails on UA-DETRAC — well above the 5% a valid bound would allow
at small sample fractions, because the sample standard deviation badly
underestimates the spread of skewed data at tiny ``n``.

Each method is scored against its own 95% claim: for CLT, that the true
mean lies inside ``x_bar ± z * sigma_hat / sqrt(n)``; for Smokescreen, that
the true relative error is at most ``err_b``. (Scoring CLT through the
ratio-bound construction would mask failures: whenever the radius swallows
the sample mean the relative bound is infinite and can never be violated,
yet the interval itself missed the truth.)
"""

from __future__ import annotations

import numpy as np

from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import UA_DETRAC, Workload, shared_suite
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.stats.hypergeometric import z_score
from repro.stats.sampling import SampleDesign
from repro.system.executor import child_rng


def run_fig5(
    dataset_name: str = UA_DETRAC,
    aggregate: Aggregate = Aggregate.AVG,
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] | None = None,
    seed: int = 0,
    delta: float = 0.05,
) -> ExperimentResult:
    """Regenerate Figure 5's violation percentages.

    Args:
        dataset_name: Corpus (paper: UA-DETRAC).
        aggregate: Aggregate (paper: a mean-family query).
        trials: Trials per fraction (paper: 100).
        frame_count: Optional reduced corpus size.
        fractions: The small-fraction grid; defaults to the region where
            CLT misbehaves.
        seed: Trial randomness seed.
        delta: Nominal failure probability of both methods.

    Returns:
        Violation percentages per fraction for CLT and Smokescreen.
    """
    workload = Workload(dataset_name, aggregate, frame_count)
    query = workload.query()
    values = QueryProcessor(shared_suite()).true_values(query)
    population = values.size
    mu = float(values.mean())
    rng = child_rng(seed)
    z = z_score(delta)
    estimator = SmokescreenMeanEstimator()

    if fractions is None:
        fractions = (0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032)

    series: dict[str, list[float]] = {
        "clt_violation_pct": [],
        "smokescreen_violation_pct": [],
    }
    for fraction in fractions:
        n = SampleDesign(population, fraction).size
        clt_misses = 0
        our_misses = 0
        for _ in range(trials):
            sample = values[rng.choice(population, size=n, replace=False)]
            sample_mean = float(sample.mean())
            if n >= 2:
                radius = z * float(sample.std(ddof=1)) / np.sqrt(n)
            else:
                radius = 0.0
            if abs(sample_mean - mu) > radius:
                clt_misses += 1
            estimate = estimator.estimate(sample, population, delta)
            if abs(estimate.value - mu) / mu > estimate.error_bound:
                our_misses += 1
        series["clt_violation_pct"].append(100.0 * clt_misses / trials)
        series["smokescreen_violation_pct"].append(100.0 * our_misses / trials)

    return ExperimentResult(
        title=(
            f"Figure 5: % of {trials} trials where the 95% claim fails "
            f"({workload.name})"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "a valid 95% bound must stay at or below 5%",
            "CLT exceeds it at small fractions; Smokescreen does not",
            "each method is scored against its own guarantee (CLT: interval "
            "coverage; Smokescreen: relative error bound)",
        ),
    )
