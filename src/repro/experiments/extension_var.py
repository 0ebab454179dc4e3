"""Extension experiment: the VAR aggregate (paper future work, §7).

The paper names VAR as a future aggregate type. Our extension bounds it
through moment intervals (see :mod:`repro.estimators.variance`); this
experiment characterises what a distribution-free VAR bound can and cannot
do on skewed detector outputs:

- the Smokescreen-VAR bound is *valid* at every fraction (0 violations),
- but the second moment's quadratically-growing range makes it informative
  only at large fractions,
- while the delta-method CLT baseline is tight everywhere yet violates its
  nominal confidence level at small fractions — the same tight-vs-trusted
  split as the paper's Figure 4/5 for the mean family.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.variance import (
    CLTVarianceEstimator,
    SmokescreenVarianceEstimator,
)
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import UA_DETRAC, Workload, shared_suite
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.stats.sampling import SampleDesign
from repro.system.executor import child_rng


def run_extension_var(
    dataset_name: str = UA_DETRAC,
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.002, 0.005, 0.02, 0.1, 0.4, 0.7, 0.9),
    seed: int = 0,
) -> ExperimentResult:
    """Bound vs. true error for the VAR extension.

    Args:
        dataset_name: The corpus.
        trials: Trials per fraction.
        frame_count: Optional reduced corpus size.
        fractions: Sample fractions to sweep (VAR needs larger ones).
        seed: Randomness seed.

    Returns:
        Per fraction: Smokescreen-VAR bound/error/violations and the CLT
        baseline's bound/violations.
    """
    workload = Workload(dataset_name, Aggregate.VAR, frame_count)
    query = workload.query()
    values = QueryProcessor(shared_suite()).true_values(query)
    population = values.size
    truth = float(values.var())
    rng = child_rng(seed)

    ours = SmokescreenVarianceEstimator()
    clt = CLTVarianceEstimator()

    series: dict[str, list[float]] = {
        "smokescreen_bound": [],
        "smokescreen_err": [],
        "smokescreen_violation_pct": [],
        "clt_bound": [],
        "clt_violation_pct": [],
    }
    for fraction in fractions:
        n = SampleDesign(population, fraction).size
        our_bounds: list[float] = []
        our_errors: list[float] = []
        our_misses = 0
        clt_bounds: list[float] = []
        clt_misses = 0
        for _ in range(trials):
            sample = values[rng.choice(population, size=n, replace=False)]
            our_estimate = ours.estimate(sample, population, query.delta)
            error = abs(our_estimate.value - truth) / truth
            our_bounds.append(our_estimate.error_bound)
            our_errors.append(error)
            if error > our_estimate.error_bound:
                our_misses += 1
            clt_estimate = clt.estimate(sample, population, query.delta)
            clt_error = abs(clt_estimate.value - truth) / truth
            if np.isfinite(clt_estimate.error_bound):
                clt_bounds.append(clt_estimate.error_bound)
            if clt_error > clt_estimate.error_bound:
                clt_misses += 1
        series["smokescreen_bound"].append(float(np.mean(our_bounds)))
        series["smokescreen_err"].append(float(np.mean(our_errors)))
        series["smokescreen_violation_pct"].append(100.0 * our_misses / trials)
        series["clt_bound"].append(
            float(np.mean(clt_bounds)) if clt_bounds else float("inf")
        )
        series["clt_violation_pct"].append(100.0 * clt_misses / trials)

    return ExperimentResult(
        title=(
            f"Extension: VAR aggregate bounds ({workload.name}, "
            f"{trials} trials; true VAR = {truth:.2f})"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "VAR is the paper's named future-work aggregate (§7)",
            "Smokescreen-VAR: always valid; informative only at large "
            "fractions (the second moment's range grows quadratically)",
            "CLT-VAR: tight everywhere but unguaranteed (violations occur; "
            "some are masked when the ratio bound degenerates to infinity)",
        ),
    )
