"""Smokescreen's mean-family estimator: Algorithm 1 / Theorem 3.1.

The construction: compute the Hoeffding–Serfling interval radius ``I`` for
the sample mean at the *single* final sample size ``n`` (relaxing the EBGS
requirement of simultaneous intervals for every prefix — one source of the
tighter bound), then set

    UB = |x_bar| + I        LB = max(0, |x_bar| - I)
    Y_approx = sgn(x_bar) * 2 UB LB / (UB + LB)
    err_b    = (UB - LB) / (UB + LB)

``Y_approx`` is the harmonic mean of the interval endpoints. That choice is
what makes the *relative* error bound symmetric: Theorem 3.1 shows
``|Y_approx - mu| / |mu| <= err_b`` whenever ``mu`` is inside the interval,
which happens with probability at least ``1 - delta``.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BatchEstimate,
    Estimate,
    MeanEstimator,
    effective_range,
    effective_range_batch,
    validate_batch_request,
    validate_sample,
)
from repro.stats.inequalities import (
    hoeffding_serfling_radius,
    hoeffding_serfling_radius_batch,
)
from repro.stats.prefix_moments import PrefixMoments


def bound_aware_estimate(
    sample_mean: float, radius: float, n: int, universe_size: int, method: str
) -> Estimate:
    """Theorem 3.1's output formulas from a mean and an interval radius.

    Shared by the Smokescreen and EBGS estimators, which differ only in how
    they construct the radius (or the UB/LB pair directly — see
    :func:`bound_aware_estimate_from_interval`).

    Args:
        sample_mean: The sample mean ``x_bar``.
        radius: Two-sided interval radius ``I``.
        n: Sample size.
        universe_size: Universe size the sample came from.
        method: Estimator name to record.

    Returns:
        The bound-aware estimate.
    """
    upper = abs(sample_mean) + radius
    lower = max(0.0, abs(sample_mean) - radius)
    return bound_aware_estimate_from_interval(
        sample_mean, upper, lower, n, universe_size, method
    )


def bound_aware_estimate_from_interval(
    sample_mean: float,
    upper: float,
    lower: float,
    n: int,
    universe_size: int,
    method: str,
) -> Estimate:
    """Theorem 3.1's output formulas from an explicit (UB, LB) pair.

    Args:
        sample_mean: The sample mean (only its sign is used).
        upper: Upper bound ``UB`` on ``|mu|``.
        lower: Lower bound ``LB`` on ``|mu|``; clipped at zero by callers.
        n: Sample size.
        universe_size: Universe size.
        method: Estimator name to record.

    Returns:
        The bound-aware estimate; when ``LB == 0`` the answer is 0 with
        error bound 1, as in the theorem's degenerate case. The one
        exception: ``UB == 0`` pins ``|mu|`` to exactly zero, so the
        estimate is a *certain* zero (e.g. a COUNT whose sample contains
        no satisfying frame and whose interval collapsed).
    """
    if upper <= 0.0:
        return Estimate(
            value=0.0,
            error_bound=0.0,
            method=method,
            n=n,
            universe_size=universe_size,
            extras={"upper": 0.0, "lower": 0.0},
        )
    if lower <= 0.0:
        return Estimate(
            value=0.0,
            error_bound=1.0,
            method=method,
            n=n,
            universe_size=universe_size,
            extras={"upper": upper, "lower": max(lower, 0.0)},
        )
    sign = 1.0 if sample_mean >= 0 else -1.0
    value = sign * 2.0 * upper * lower / (upper + lower)
    error_bound = (upper - lower) / (upper + lower)
    return Estimate(
        value=value,
        error_bound=error_bound,
        method=method,
        n=n,
        universe_size=universe_size,
        extras={"upper": upper, "lower": lower},
    )


def bound_aware_batch_from_interval(
    sample_means: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Theorem 3.1 output formulas over trial arrays.

    Elementwise identical to
    :func:`bound_aware_estimate_from_interval`, including both degenerate
    cases: ``upper <= 0`` pins the answer to a certain zero (bound 0),
    ``lower <= 0`` yields answer 0 with bound 1.

    Args:
        sample_means: Per-trial sample means (only their signs are used).
        upper: Per-trial upper bounds ``UB`` on ``|mu|``.
        lower: Per-trial lower bounds ``LB``, clipped at zero by callers.

    Returns:
        Per-trial ``(values, error_bounds)`` arrays.
    """
    sign = np.where(sample_means >= 0, 1.0, -1.0)
    total = upper + lower
    with np.errstate(divide="ignore", invalid="ignore"):
        values = sign * 2.0 * upper * lower / total
        bounds = (upper - lower) / total
    degenerate_lower = lower <= 0.0
    values = np.where(degenerate_lower, 0.0, values)
    bounds = np.where(degenerate_lower, 1.0, bounds)
    certain_zero = upper <= 0.0
    values = np.where(certain_zero, 0.0, values)
    bounds = np.where(certain_zero, 0.0, bounds)
    return values, bounds


def bound_aware_batch(
    sample_means: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized analogue of :func:`bound_aware_estimate`.

    Args:
        sample_means: Per-trial sample means.
        radii: Per-trial two-sided interval radii.

    Returns:
        Per-trial ``(values, error_bounds)`` arrays.
    """
    abs_means = np.abs(sample_means)
    upper = abs_means + radii
    lower = np.maximum(0.0, abs_means - radii)
    return bound_aware_batch_from_interval(sample_means, upper, lower)


class SmokescreenMeanEstimator(MeanEstimator):
    """Algorithm 1: Hoeffding–Serfling interval + bound-aware output."""

    name = "smokescreen"

    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> Estimate:
        """See :class:`repro.estimators.base.MeanEstimator`.

        By default the range ``R`` is the *sample* range, as in Algorithm 1
        line 2 (the population range is unknown under degradation); pass
        ``value_range`` when it is structurally known (COUNT indicators).
        """
        array = validate_sample(values, universe_size)
        sample_range = effective_range(array, value_range)
        sample_mean = float(array.mean())
        radius = hoeffding_serfling_radius(
            array.size, universe_size, delta, sample_range
        )
        return bound_aware_estimate(
            sample_mean, radius, array.size, universe_size, self.name
        )

    def estimate_batch(
        self,
        moments: PrefixMoments,
        sizes: tuple[int, ...],
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> BatchEstimate:
        """Vectorized Algorithm 1 over all trials and every prefix length.

        See :meth:`repro.estimators.base.MeanEstimator.estimate_batch`;
        the means and sample ranges are ``(sizes, trials)`` slices of the
        precomputed prefix moments, and one Hoeffding–Serfling call prices
        the whole grid with ``n`` broadcast as a column.
        """
        sizes = validate_batch_request(moments, sizes, universe_size)
        means = moments.mean(sizes)
        ranges = effective_range_batch(moments, sizes, value_range)
        radii = hoeffding_serfling_radius_batch(
            sizes[:, None], universe_size, delta, ranges
        )
        values, bounds = bound_aware_batch(means, np.broadcast_to(radii, means.shape))
        return BatchEstimate(
            values=values,
            error_bounds=bounds,
            method=self.name,
            sizes=tuple(sizes.tolist()),
            universe_size=universe_size,
        )
