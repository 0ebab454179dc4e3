"""Accuracy metrics of the evaluation (§5.1).

The relative error of the approximate result against the true result for
AVG/SUM/COUNT, and the relative error of the *true ranks* for MAX/MIN; the
query result without destructive interventions is the true result.
"""

from __future__ import annotations

import math

import numpy as np

from repro.query.aggregates import aggregate_value
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.quantiles import relative_rank_error


def true_error(
    processor: QueryProcessor, query: AggregateQuery, approx_value: float
) -> float:
    """The paper's accuracy metric for an approximate answer.

    Args:
        processor: Processor with oracle access to the non-degraded video.
        query: The query.
        approx_value: The approximate answer to score.

    Returns:
        Relative value error (mean family) or relative rank error (MAX/MIN).
    """
    reference = processor.true_values(query)
    if not query.aggregate.is_extreme:
        truth = aggregate_value(reference, query.aggregate)
        if truth == 0.0:
            return math.inf if approx_value != 0.0 else 0.0
        return abs(approx_value - truth) / abs(truth)
    truth = aggregate_value(reference, query.aggregate, query.effective_quantile)
    return relative_rank_error(reference, approx_value, truth)


def violation_rate(bounds: np.ndarray, errors: np.ndarray) -> float:
    """Fraction of trials where the bound fell below the true error.

    This is Figure 5's y-axis for CLT, and the validity check for every
    other method (must stay below delta).

    Args:
        bounds: Per-trial error bounds.
        errors: Per-trial true errors.

    Returns:
        The violation fraction in [0, 1].
    """
    bounds = np.asarray(bounds, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if bounds.size == 0:
        raise ValueError("no trials to score")
    return float(np.mean(bounds < errors))


def tightness_improvement(baseline_bound: float, our_bound: float) -> float:
    """How much tighter one bound is than another, as the paper reports it.

    "Our error bound can be up to 154.70% tighter": the baseline's excess
    over ours, relative to ours — ``(baseline - ours) / ours``.

    Args:
        baseline_bound: The competing method's bound.
        our_bound: Smokescreen's bound.

    Returns:
        The relative improvement (1.547 means 154.7% tighter); infinity
        when our bound is zero and the baseline's is not.
    """
    if our_bound == 0.0:
        return math.inf if baseline_bound > 0.0 else 0.0
    return (baseline_bound - our_bound) / our_bound
