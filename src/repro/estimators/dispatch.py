"""The one pricing route: a (query, sample, method) triple to an estimate.

Pricing a setting takes three steps, and this module is the only place
that writes them down:

1. pick the estimator for the aggregate family — Algorithm 1 (or a
   baseline) for AVG/SUM/COUNT, Algorithm 2 for MAX/MIN, the VAR
   extension for VAR;
2. scale SUM/COUNT answers by the corpus length (paper §3.2.2–3.2.3: the
   video length is known in advance, and scaling by a known constant
   leaves the relative bound unchanged);
3. with a correction set, apply Algorithm 3 (Equation 12 or 13) and keep
   the tighter of the basic and corrected bounds on random plans
   (§5.2.2) — :func:`corrected_bounds`.

The profiler, the experiment trial helpers, the serving daemon and the
correction-set heuristic all price through these functions, so
experiments can ask for any method by name.
"""

from __future__ import annotations

from typing import TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.base import (
    BatchEstimate,
    Estimate,
    MeanEstimator,
    QuantileEstimator,
)
from repro.estimators.classic import (
    CLTEstimator,
    HoeffdingEstimator,
    HoeffdingSerflingEstimator,
)
from repro.estimators.ebgs import EBGSEstimator
from repro.estimators.quantile import SmokescreenQuantileEstimator
from repro.estimators.repair import ProfileRepair
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.stein import SteinEstimator
from repro.estimators.variance import (
    CLTVarianceEstimator,
    SmokescreenVarianceEstimator,
)
from repro.query.aggregates import Aggregate
from repro.query.processor import DegradedExecution
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments

_Priced = TypeVar("_Priced", Estimate, BatchEstimate)


#: Each aggregate family's estimators by name: mean for AVG/SUM/COUNT,
#: variance for VAR, quantile for MAX/MIN.
_FAMILIES: dict[str, dict[str, type]] = {
    family: {cls.name: cls for cls in classes}
    for family, classes in (
        ("mean", (
            SmokescreenMeanEstimator, EBGSEstimator, HoeffdingEstimator,
            HoeffdingSerflingEstimator, CLTEstimator,
        )),
        ("variance", (SmokescreenVarianceEstimator, CLTVarianceEstimator)),
        ("quantile", (SmokescreenQuantileEstimator, SteinEstimator)),
    )
}

#: Family -> its sorted method names, so a caller can check a method
#: without building estimators.
_METHOD_NAMES = {
    family: tuple(sorted(names)) for family, names in _FAMILIES.items()
}


def _family(aggregate: Aggregate) -> str:
    if aggregate.is_mean_family:
        return "mean"
    if aggregate.is_variance:
        return "variance"
    return "quantile"


def method_names(aggregate: Aggregate) -> tuple[str, ...]:
    """The sorted estimator names that can price ``aggregate``."""
    return _METHOD_NAMES[_family(aggregate)]


def mean_estimator_registry() -> dict[str, MeanEstimator]:
    """Fresh instances of every mean-family estimator, keyed by name."""
    return {name: cls() for name, cls in _FAMILIES["mean"].items()}


def quantile_estimator_registry() -> dict[str, QuantileEstimator]:
    """Fresh instances of every quantile estimator, keyed by name."""
    return {name: cls() for name, cls in _FAMILIES["quantile"].items()}


def variance_estimator_registry() -> dict[str, MeanEstimator]:
    """Fresh instances of every VAR estimator, keyed by name."""
    return {name: cls() for name, cls in _FAMILIES["variance"].items()}


def _resolve(
    query: AggregateQuery, method: str
) -> tuple[MeanEstimator | QuantileEstimator, tuple]:
    """The estimator for the query's aggregate family, and its arguments.

    Returns a fresh ``method`` estimator of the family's registry (mean
    for AVG/SUM/COUNT, variance for VAR, quantile for MAX/MIN) together
    with the arguments its ``estimate``/``estimate_batch`` take after the
    sample and its universe size.
    """
    aggregate = query.aggregate
    family = _family(aggregate)
    estimator_class = _FAMILIES[family].get(method)
    if estimator_class is None:
        raise ConfigurationError(
            f"unknown {family} estimator {method!r}; "
            f"valid: {list(_METHOD_NAMES[family])}"
        )
    estimator = estimator_class()
    if family == "quantile":
        return estimator, (query.effective_quantile, query.delta, aggregate)
    return estimator, (query.delta, query.known_value_range)


def _scaled(
    query: AggregateQuery, estimate: _Priced, population_size: int
) -> _Priced:
    """SUM/COUNT answers scaled from the mean to the corpus length."""
    if query.aggregate.name in ("SUM", "COUNT"):
        return estimate.scaled(population_size)
    return estimate


def estimate_values(
    query: AggregateQuery,
    values: np.ndarray,
    universe_size: int,
    population_size: int,
    method: str = "smokescreen",
) -> Estimate:
    """Estimate a query's answer and error bound from sampled values.

    Args:
        query: The query (selects the aggregate and its parameters).
        values: The sampled values, in draw order.
        universe_size: Eligible-universe size the sample was drawn from.
        population_size: Total corpus length, for SUM/COUNT scaling.
        method: Estimator name — one of the mean registry for
            AVG/SUM/COUNT (``smokescreen``, ``ebgs``, ``hoeffding``,
            ``hoeffding-serfling``, ``clt``), the variance registry for
            VAR (``smokescreen``, ``clt``) or the quantile registry for
            MAX/MIN (``smokescreen``, ``stein``).

    Returns:
        The estimate, with SUM/COUNT answers scaled to the corpus length.
    """
    estimator, arguments = _resolve(query, method)
    estimate = estimator.estimate(values, universe_size, *arguments)
    return _scaled(query, estimate, population_size)


def estimate_query(
    query: AggregateQuery,
    execution: DegradedExecution,
    method: str = "smokescreen",
) -> Estimate:
    """Estimate a query's answer and error bound from a degraded execution.

    Args:
        query: The query (selects the aggregate and its parameters).
        execution: A degraded execution produced by
            :meth:`repro.query.processor.QueryProcessor.execute`.
        method: Estimator name, as for :func:`estimate_values`.

    Returns:
        The estimate, with SUM/COUNT answers scaled to the corpus length.
    """
    return estimate_values(
        query,
        execution.values,
        execution.universe_size,
        execution.population_size,
        method,
    )


def estimate_batch(
    query: AggregateQuery,
    moments: PrefixMoments,
    sizes: tuple[int, ...],
    universe_size: int,
    population_size: int,
    method: str = "smokescreen",
) -> BatchEstimate:
    """Batch analogue of :func:`estimate_values` over prefix moments.

    Prices every trial's prefix at each of the ascending ``sizes`` at once,
    as one ``(sizes, trials)`` grid, with the same routing and scaling as
    the scalar path: mean-family methods use their vectorized
    ``estimate_batch`` kernels, while variance and quantile methods (whose
    estimators have no closed batch form) fall through the per-trial
    fallback of :class:`~repro.estimators.base.MeanEstimator` /
    :class:`~repro.estimators.base.QuantileEstimator`. A single length is
    the one-row call ``sizes=(n,)``.

    Args:
        query: The query (selects the aggregate and its parameters).
        moments: Prefix moments of the ``(trials, max_size)`` value matrix,
            gathered under this query's degradation setting.
        sizes: Ascending prefix lengths to price.
        universe_size: Eligible-universe size the trials sampled from.
        population_size: Total corpus length, for SUM/COUNT scaling.
        method: Estimator name, as for :func:`estimate_values`.

    Returns:
        Per-size, per-trial values and bounds, SUM/COUNT answers scaled to
        the corpus length.
    """
    estimator, arguments = _resolve(query, method)
    batch = estimator.estimate_batch(moments, sizes, universe_size, *arguments)
    return _scaled(query, batch, population_size)


def corrected_bounds(
    query: AggregateQuery,
    batch: BatchEstimate,
    correction_values: np.ndarray,
    plan_is_random: bool,
) -> np.ndarray:
    """Per-trial bounds under Algorithm 3 and the §5.2.2 policy.

    The correction set — a random sample of the whole corpus — is priced
    once with the batch's method, for the whole grid. Each trial's
    degraded answer at each size is then repaired with Equation (12) for
    AVG/SUM/COUNT/VAR or Equation (13) for MAX/MIN. A plan with only
    random interventions keeps the tighter of the basic and corrected
    bounds; any other plan gets the corrected one.

    Args:
        query: The query the batch priced.
        batch: Per-trial basic estimates from :func:`estimate_batch`.
        correction_values: The correction set's values.
        plan_is_random: Whether the degraded samples came from random
            interventions only.

    Returns:
        Per-trial error bounds, shaped and aligned like ``batch.values``.
    """
    population = query.dataset.frame_count
    reference = estimate_values(
        query, correction_values, population, population, batch.method
    )
    if query.aggregate.is_mean_family or query.aggregate.is_variance:
        corrected = ProfileRepair.corrected_mean_bound_batch(
            batch.values, reference
        )
    else:
        corrected = np.array(
            [
                ProfileRepair.corrected_quantile_bound(
                    value,
                    reference.value,
                    correction_values,
                    query.effective_quantile,
                    reference,
                )
                for value in batch.values.ravel().tolist()
            ]
        ).reshape(batch.values.shape)
    if plan_is_random:
        return np.minimum(batch.error_bounds, corrected)
    return corrected


def estimate_rows(
    query: AggregateQuery,
    matrix: np.ndarray,
    universe_size: int,
    population_size: int,
    method: str = "smokescreen",
) -> list[Estimate]:
    """Price every row of a raw value matrix with one batched kernel call.

    The serving-daemon entry point: N coalesced requests stack their
    sampled values into one ``(N, n)`` matrix, the prefix moments are
    built in a single pass, and :func:`estimate_batch` prices all rows at
    once. Every moment and bound operation is row-independent, so row
    ``i`` of the result is **bit-identical** to calling this function on
    ``matrix[i : i + 1]`` alone — the property the daemon's
    micro-batched-vs-serial determinism guarantee rests on.

    Args:
        query: The query (selects the aggregate and its parameters).
        matrix: ``(rows, n)`` value matrix; each row is one request's
            sampled values in draw order. All rows share the degradation
            setting, hence the same ``n``.
        universe_size: Eligible-universe size the rows sampled from.
        population_size: Total corpus length, for SUM/COUNT scaling.
        method: Estimator name, as for :func:`estimate_query`.

    Returns:
        One :class:`~repro.estimators.base.Estimate` per row, in order.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ConfigurationError(
            f"estimate_rows needs a non-empty (rows, n) matrix, got shape "
            f"{matrix.shape}"
        )
    batch = estimate_batch(
        query,
        PrefixMoments(matrix),
        (matrix.shape[1],),
        universe_size,
        population_size,
        method,
    )
    return [batch.trial(t) for t in range(matrix.shape[0])]
