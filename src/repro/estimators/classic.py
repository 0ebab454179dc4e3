"""Classic online-aggregation baselines: Hoeffding, Hoeffding–Serfling, CLT.

All three estimate the answer by the plain sample mean and derive an upper
bound of the *absolute* error from their respective interval radius; the
relative-error bound is then the radius divided by the lower bound of the
query result (``|x_bar| - I``), exactly how the paper constructs these
baselines in §5.1. When the radius swallows the sample mean the lower bound
is non-positive and the relative bound is reported as infinity.

The CLT variant is nominal only — its radius is not a guaranteed bound, and
the paper's Figure 5 measures how often it falls below the true error.
"""

from __future__ import annotations

import math

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
    clt_radius,
    clt_radius_batch,
    hoeffding_radius,
    hoeffding_radius_batch,
    hoeffding_serfling_radius,
    hoeffding_serfling_radius_batch,
)
from repro.stats.prefix_moments import PrefixMoments


def _mean_with_ratio_bound(
    sample_mean: float, radius: float, n: int, universe_size: int, method: str
) -> Estimate:
    """Sample-mean estimate with the radius / lower-bound relative bound."""
    lower = abs(sample_mean) - radius
    error_bound = radius / lower if lower > 0 else math.inf
    return Estimate(
        value=sample_mean,
        error_bound=error_bound,
        method=method,
        n=n,
        universe_size=universe_size,
        extras={"radius": radius},
    )


def _ratio_batch(
    method: str,
    sizes: np.ndarray,
    universe_size: int,
    means: np.ndarray,
    radii: np.ndarray,
) -> BatchEstimate:
    """Sample means with the vectorized radius / lower-bound relative
    bound (inf when the radius swallows the mean)."""
    lower = np.abs(means) - radii
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = radii / lower
    return BatchEstimate(
        values=means,
        error_bounds=np.where(lower > 0, bounds, math.inf),
        method=method,
        sizes=tuple(sizes.tolist()),
        universe_size=universe_size,
    )


class HoeffdingEstimator(MeanEstimator):
    """Hoeffding's inequality (i.i.d. assumption), as in online aggregation."""

    name = "hoeffding"

    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> Estimate:
        """See :class:`repro.estimators.base.MeanEstimator`."""
        array = validate_sample(values, universe_size)
        sample_range = effective_range(array, value_range)
        radius = hoeffding_radius(array.size, delta, sample_range)
        return _mean_with_ratio_bound(
            float(array.mean()), radius, array.size, universe_size, self.name
        )

    def estimate_batch(
        self,
        moments: PrefixMoments,
        sizes: tuple[int, ...],
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> BatchEstimate:
        """Vectorized Hoeffding pricing over all trials and sizes."""
        sizes = validate_batch_request(moments, sizes, universe_size)
        means = moments.mean(sizes)
        ranges = effective_range_batch(moments, sizes, value_range)
        radii = np.broadcast_to(
            hoeffding_radius_batch(sizes[:, None], delta, ranges), means.shape
        )
        return _ratio_batch(self.name, sizes, universe_size, means, radii)


class HoeffdingSerflingEstimator(MeanEstimator):
    """Hoeffding–Serfling inequality (without replacement), ratio bound."""

    name = "hoeffding-serfling"

    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> Estimate:
        """See :class:`repro.estimators.base.MeanEstimator`."""
        array = validate_sample(values, universe_size)
        sample_range = effective_range(array, value_range)
        radius = hoeffding_serfling_radius(
            array.size, universe_size, delta, sample_range
        )
        return _mean_with_ratio_bound(
            float(array.mean()), radius, array.size, universe_size, self.name
        )

    def estimate_batch(
        self,
        moments: PrefixMoments,
        sizes: tuple[int, ...],
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> BatchEstimate:
        """Vectorized Hoeffding–Serfling pricing over all trials and sizes."""
        sizes = validate_batch_request(moments, sizes, universe_size)
        means = moments.mean(sizes)
        ranges = effective_range_batch(moments, sizes, value_range)
        radii = np.broadcast_to(
            hoeffding_serfling_radius_batch(
                sizes[:, None], universe_size, delta, ranges
            ),
            means.shape,
        )
        return _ratio_batch(self.name, sizes, universe_size, means, radii)


class CLTEstimator(MeanEstimator):
    """Central-limit-theorem radius — tight but *not* guaranteed.

    With a single sample the standard deviation is undefined, so the bound
    degenerates to infinity.
    """

    name = "clt"

    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> Estimate:
        """See :class:`repro.estimators.base.MeanEstimator` (the CLT radius
        is variance-based, so a known range is ignored)."""
        array = validate_sample(values, universe_size)
        sample_mean = float(array.mean())
        if array.size < 2:
            return Estimate(
                value=sample_mean,
                error_bound=math.inf,
                method=self.name,
                n=array.size,
                universe_size=universe_size,
                extras={"radius": math.inf},
            )
        sample_std = float(array.std(ddof=1))
        radius = clt_radius(array.size, delta, sample_std)
        return _mean_with_ratio_bound(
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
        """Vectorized CLT pricing over all trials and sizes.

        Rows with ``n < 2`` keep the infinite radius, hence the infinite
        bound, of the scalar path.
        """
        sizes = validate_batch_request(moments, sizes, universe_size)
        means = moments.mean(sizes)
        radii = np.full_like(means, math.inf)
        priced = sizes >= 2
        if priced.any():
            kept = sizes[priced]
            radii[priced] = clt_radius_batch(
                kept[:, None], delta, moments.std(kept, ddof=1)
            )
        return _ratio_batch(self.name, sizes, universe_size, means, radii)
