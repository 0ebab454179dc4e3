"""Estimator interfaces and the estimate containers.

Estimators come in two granularities: the scalar :meth:`MeanEstimator.
estimate` prices one sample, while :meth:`MeanEstimator.estimate_batch`
prices an ascending tuple of prefix lengths across *all* trials of a
:class:`~repro.stats.prefix_moments.PrefixMoments` matrix at once,
returning ``(sizes, trials)`` grids in a :class:`BatchEstimate`. One
length is the one-row case of the same call. Estimators without a
vectorized form inherit a per-trial fallback that loops over the sizes,
slices each row and delegates to ``estimate``, so the batch API is total
over the registry.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import EstimationError
from repro.query.aggregates import Aggregate
from repro.stats.prefix_moments import PrefixMoments


@dataclass(frozen=True)
class Estimate:
    """An approximate query answer with its error bound.

    Attributes:
        value: The approximate answer ``Y_approx``.
        error_bound: Upper bound ``err_b`` on the relative error (relative
            value error for AVG/SUM/COUNT, relative *rank* error for
            MAX/MIN), valid with probability at least ``1 - delta``.
            May be ``inf`` when a baseline's construction degenerates.
        method: Estimator name, e.g. ``"smokescreen"``.
        n: Sample size the estimate was computed from.
        universe_size: Eligible-universe size the sample was drawn from.
        extras: Method-specific diagnostics (e.g. the interval's UB/LB).
    """

    value: float
    error_bound: float
    method: str
    n: int
    universe_size: int
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.error_bound < 0:
            raise EstimationError(
                f"error bound must be non-negative, got {self.error_bound}"
            )

    def scaled(self, factor: float) -> "Estimate":
        """The same estimate with the value scaled (AVG -> SUM/COUNT).

        Scaling the answer by a known constant leaves the *relative* error
        bound unchanged (paper §3.2.2).

        Args:
            factor: Multiplier for the value.

        Returns:
            A new estimate with ``value * factor``.
        """
        return Estimate(
            value=self.value * factor,
            error_bound=self.error_bound,
            method=self.method,
            n=self.n,
            universe_size=self.universe_size,
            extras=self.extras,
        )


@dataclass(frozen=True)
class BatchEstimate:
    """Per-trial estimates over a grid of prefix lengths, as aligned arrays.

    The batch analogue of :class:`Estimate` for sweeps that price the same
    sample sizes across many trials: ``values[f, t]`` /
    ``error_bounds[f, t]`` are exactly the ``value`` / ``error_bound`` the
    scalar estimator would produce on trial ``t``'s prefix of length
    ``sizes[f]`` (per-trial ``extras`` are dropped; the profiler's sweeps
    never read them).

    Attributes:
        values: Per-trial approximate answers, shape ``(len(sizes), trials)``.
        error_bounds: Per-trial relative error bounds, same shape.
        method: Estimator name, e.g. ``"smokescreen"``.
        sizes: The priced prefix lengths, ascending, one per row.
        universe_size: Eligible-universe size the samples were drawn from.
    """

    values: np.ndarray
    error_bounds: np.ndarray
    method: str
    sizes: tuple[int, ...]
    universe_size: int

    def __post_init__(self) -> None:
        if self.values.shape != self.error_bounds.shape:
            raise EstimationError(
                f"values shape {self.values.shape} does not match error "
                f"bounds shape {self.error_bounds.shape}"
            )
        if self.values.ndim != 2 or self.values.shape[0] != len(self.sizes):
            raise EstimationError(
                f"values shape {self.values.shape} is not one row per size "
                f"of {self.sizes}"
            )
        if np.any(self.error_bounds < 0):
            raise EstimationError("error bounds must be non-negative")

    def scaled(self, factor: float) -> "BatchEstimate":
        """The same estimates with values scaled (AVG -> SUM/COUNT)."""
        return BatchEstimate(
            values=self.values * factor,
            error_bounds=self.error_bounds,
            method=self.method,
            sizes=self.sizes,
            universe_size=self.universe_size,
        )

    def trial(self, t: int, row: int = 0) -> Estimate:
        """Trial ``t``'s result at ``sizes[row]`` as an :class:`Estimate`."""
        return Estimate(
            value=float(self.values[row, t]),
            error_bound=float(self.error_bounds[row, t]),
            method=self.method,
            n=self.sizes[row],
            universe_size=self.universe_size,
        )


def _batch_from_estimates(
    method: str, sizes: np.ndarray, universe_size: int, grid: list[list[Estimate]]
) -> BatchEstimate:
    """A :class:`BatchEstimate` from scalar estimates, ``grid[f][t]``."""
    return BatchEstimate(
        values=np.array([[e.value for e in row] for row in grid]),
        error_bounds=np.array([[e.error_bound for e in row] for row in grid]),
        method=method,
        sizes=tuple(sizes.tolist()),
        universe_size=universe_size,
    )


def validate_sample(values: np.ndarray, universe_size: int) -> np.ndarray:
    """Common input validation for estimators.

    Args:
        values: Sample values.
        universe_size: Size of the universe they were drawn from.

    Returns:
        The values as a float array.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise EstimationError("cannot estimate from an empty sample")
    if array.size > universe_size:
        raise EstimationError(
            f"sample of size {array.size} exceeds universe size {universe_size}"
        )
    if not np.all(np.isfinite(array)):
        raise EstimationError("sample contains non-finite values")
    return array


def validate_batch_request(
    moments: PrefixMoments, sizes: tuple[int, ...], universe_size: int
) -> np.ndarray:
    """Common validation for batch estimation over prefix moments.

    Mirrors :func:`validate_sample` for the batch API: each prefix length
    plays the role of the sample size (finiteness was already checked by
    the :class:`~repro.stats.prefix_moments.PrefixMoments` constructor).

    Args:
        moments: The precomputed prefix moments.
        sizes: Requested prefix lengths, a non-empty ascending sequence.
        universe_size: Size of the universe the trials sampled from.

    Returns:
        The sizes as a 1-d integer array.
    """
    array = np.asarray(sizes)
    if array.ndim != 1 or array.size == 0 or array.dtype.kind not in "iu":
        raise EstimationError(
            f"prefix lengths must be a non-empty sequence of ints, got {sizes!r}"
        )
    if (array[1:] < array[:-1]).any():
        raise EstimationError(f"prefix lengths must ascend, got {sizes!r}")
    if array[0] <= 0:
        raise EstimationError("cannot estimate from an empty sample")
    if array[-1] > moments.max_size:
        raise EstimationError(
            f"prefix length {array[-1]} exceeds gathered prefix "
            f"{moments.max_size}"
        )
    if array[-1] > universe_size:
        raise EstimationError(
            f"sample of size {array[-1]} exceeds universe size {universe_size}"
        )
    return array


class MeanEstimator(abc.ABC):
    """Estimates a population mean with a relative error bound.

    Serves AVG directly; SUM and COUNT scale the result by the known corpus
    length (see :func:`repro.estimators.dispatch.estimate_query`).
    """

    name: str = "mean-estimator"

    @abc.abstractmethod
    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> Estimate:
        """Estimate the universe mean from a without-replacement sample.

        Args:
            values: Sampled values.
            universe_size: Size of the universe they were drawn from.
            delta: Bound failure probability.
            value_range: The population range ``R`` when it is known a
                priori (e.g. 1.0 for predicate indicators); None falls back
                to the sample range. A known range closes the sample-range
                approximation's blind spot: a sample of identical values
                would otherwise claim a zero-width interval.

        Returns:
            The estimate, with ``error_bound`` holding with probability at
            least ``1 - delta`` under random interventions.
        """

    def estimate_batch(
        self,
        moments: PrefixMoments,
        sizes: tuple[int, ...],
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> BatchEstimate:
        """Price every trial's prefix at each of ``sizes`` at once.

        The base implementation is the per-trial fallback: for each size,
        slice each row's prefix and delegate to :meth:`estimate`, so every
        estimator supports the batch API even without a vectorized form.
        Subclasses with closed-form array versions override this with
        broadcasted kernels over the ``(sizes, trials)`` grid, whose row
        ``f`` equals the one-size call at ``sizes[f]`` byte for byte.

        Args:
            moments: Prefix moments of the ``(trials, max_size)`` matrix.
            sizes: Ascending prefix lengths to price, each in
                ``[1, max_size]``; ``(n,)`` prices one length.
            universe_size: Size of the universe the trials sampled from.
            delta: Bound failure probability.
            value_range: A-priori known population range, or None for each
                trial's sample range.

        Returns:
            ``(len(sizes), trials)`` values and bounds, columns aligned
            with the matrix rows.
        """
        sizes = validate_batch_request(moments, sizes, universe_size)
        grid = [
            [
                self.estimate(
                    moments.row(t)[:n], universe_size, delta,
                    value_range=value_range,
                )
                for t in range(moments.trials)
            ]
            for n in sizes.tolist()
        ]
        return _batch_from_estimates(self.name, sizes, universe_size, grid)


def effective_range(values: np.ndarray, value_range: float | None) -> float:
    """The range an estimator should use: known if given, else sampled.

    Args:
        values: The sample.
        value_range: A-priori known population range, or None.

    Returns:
        ``value_range`` when provided (validated non-negative), else the
        sample range.
    """
    if value_range is not None:
        if value_range < 0:
            raise EstimationError(
                f"known value range must be non-negative, got {value_range}"
            )
        return float(value_range)
    return float(values.max() - values.min())


def effective_range_batch(
    moments: PrefixMoments, sizes, value_range: float | None
) -> float | np.ndarray:
    """Batch analogue of :func:`effective_range`.

    Args:
        moments: Prefix moments of the trial matrix.
        sizes: Prefix length(s), as :meth:`PrefixMoments.value_range`
            takes them.
        value_range: A-priori known population range, or None.

    Returns:
        The known range as a scalar (broadcasts over the grid), else the
        per-trial sample ranges of the prefixes.
    """
    if value_range is not None:
        if value_range < 0:
            raise EstimationError(
                f"known value range must be non-negative, got {value_range}"
            )
        return float(value_range)
    return moments.value_range(sizes)


class QuantileEstimator(abc.ABC):
    """Estimates an extreme quantile with a relative rank-error bound."""

    name: str = "quantile-estimator"

    @abc.abstractmethod
    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        r: float,
        delta: float,
        aggregate: Aggregate,
    ) -> Estimate:
        """Estimate the ``r``-th quantile from a without-replacement sample.

        Args:
            values: Sampled values.
            universe_size: Size of the universe they were drawn from.
            r: Quantile level (close to 1 for MAX, close to 0 for MIN).
            delta: Bound failure probability.
            aggregate: MAX or MIN; selects the variance term of the bound.

        Returns:
            The estimate; ``error_bound`` bounds the relative *rank* error.
        """

    def estimate_batch(
        self,
        moments: PrefixMoments,
        sizes: tuple[int, ...],
        universe_size: int,
        r: float,
        delta: float,
        aggregate: Aggregate,
    ) -> BatchEstimate:
        """Per-trial fallback of the batch API for quantile estimators.

        Quantile estimation walks a distinct-value table per sample, which
        has no cheap prefix-cumulative form, so the batch entry point
        always delegates to :meth:`estimate`, size by size and row by row.
        """
        sizes = validate_batch_request(moments, sizes, universe_size)
        grid = [
            [
                self.estimate(
                    moments.row(t)[:n], universe_size, r, delta, aggregate
                )
                for t in range(moments.trials)
            ]
            for n in sizes.tolist()
        ]
        return _batch_from_estimates(self.name, sizes, universe_size, grid)
