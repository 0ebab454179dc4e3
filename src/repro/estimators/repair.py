"""Profile repair: Algorithm 3 — correcting bounds under non-random
interventions with a correction set.

Outputs sampled from video degraded by non-random interventions (reduced
resolution, image removal) can be systematically wrong in one direction, so
the basic §3.2 bounds are invalid there. The correction set ``v_1..v_m`` —
frames degraded only by *random* interventions (a plain without-replacement
sample at native resolution and no removal) — anchors an unbiased estimate,
and the triangle inequality transfers its guaranteed bound to the degraded
estimate:

- mean family (Eq. 12)::

    err_b = (1 + err_b(v)) |Y_approx - Y_approx(v)| / |Y_approx(v)| + err_b(v)

- MAX/MIN (Eq. 13): the unknown true rank difference between the two
  answers is estimated by their rank difference *within the correction
  set*, divided by ``r``, plus ``err_b(v)``.

No distributional assumption is made about the degraded outputs; the
corrected bound inherits the correction set's ``1 - delta`` guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import Estimate
from repro.stats.quantiles import rank_of_value


@dataclass(frozen=True)
class RepairedEstimate:
    """A degraded estimate with its repaired error bound.

    Attributes:
        value: The degraded approximate answer ``Y_approx`` (unchanged by
            repair — only the bound is corrected).
        error_bound: The corrected bound from Algorithm 3.
        degraded: The uncorrected estimate on the degraded sample.
        correction: The estimate computed from the correction set alone.
    """

    value: float
    error_bound: float
    degraded: Estimate
    correction: Estimate

    @property
    def uncorrected_bound(self) -> float:
        """The (possibly invalid) bound before repair, for comparison."""
        return self.degraded.error_bound


class ProfileRepair:
    """Algorithm 3: corrected error bounds for any intervention mix."""

    @staticmethod
    def corrected_mean_bound(y_approx: float, correction: Estimate) -> float:
        """Equation (12): the triangle-inequality transfer of the bound.

        Args:
            y_approx: The degraded approximate answer.
            correction: The correction set's own estimate (with a valid
                random-intervention bound).

        Returns:
            The corrected bound; infinity when the correction answer is 0
            (relative error is then undefined).
        """
        err_v = correction.error_bound
        if correction.value == 0.0:
            return math.inf
        drift = abs(y_approx - correction.value) / abs(correction.value)
        return (1.0 + err_v) * drift + err_v

    @staticmethod
    def corrected_mean_bound_batch(
        y_approx: np.ndarray, correction: Estimate
    ) -> np.ndarray:
        """Equation (12) broadcast over per-trial degraded answers.

        Elementwise identical to :meth:`corrected_mean_bound`: the
        correction estimate is shared, only the degraded answer varies by
        trial.

        Args:
            y_approx: Per-trial degraded approximate answers.
            correction: The correction set's estimate.

        Returns:
            Per-trial corrected bounds (all infinity when the correction
            answer is 0).
        """
        err_v = correction.error_bound
        if correction.value == 0.0:
            return np.full(np.shape(y_approx), math.inf)
        drift = np.abs(y_approx - correction.value) / abs(correction.value)
        return (1.0 + err_v) * drift + err_v

    @staticmethod
    def corrected_quantile_bound(
        y_approx: float,
        y_approx_v: float,
        correction_values: np.ndarray,
        r: float,
        correction: Estimate,
    ) -> float:
        """Equation (13): rank-difference transfer within the correction set.

        The unknown true rank gap between the degraded and correction
        answers is estimated by their cumulative-frequency gap in the
        correction set.

        Args:
            y_approx: Degraded approximate quantile.
            y_approx_v: Correction set's approximate quantile.
            correction_values: Correction-set values.
            r: Extreme quantile level.
            correction: The correction set's estimate (supplies
                ``err_b(v)``).

        Returns:
            The corrected rank-error bound.
        """
        m = np.asarray(correction_values).size
        if m == 0:
            raise EstimationError("correction set is empty")
        rank_degraded = rank_of_value(correction_values, y_approx) / m
        rank_correction = rank_of_value(correction_values, y_approx_v) / m
        return abs(rank_degraded - rank_correction) / r + correction.error_bound
