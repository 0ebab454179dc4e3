"""Incremental Algorithm 1 for streaming deployments.

Real cameras deliver frames over time. :class:`StreamingMeanEstimator`
maintains Algorithm 1's state (count, mean, min/max) under O(1) updates,
so the central system can read the current answer and bound after every
arrival — the online-aggregation usage pattern [30] with Smokescreen's
construction. Because Algorithm 1 only needs the interval at the *current*
``n`` (no union over prefixes — the very relaxation that distinguishes it
from EBGS), querying the estimate repeatedly over time is statistically
identical to running the batch estimator on the prefix each time.

Note the per-query guarantee is at confidence ``1 - delta`` for each read;
simultaneous guarantees across many reads would need a union budget (which
is exactly what EBGS pays, and what stopping rules require).

Long-lived feeds outgrow the cumulative estimator: its state never forgets,
so a quality drift mid-stream is diluted by every clean frame that came
before, and its universe exhausts on endless feeds. Two streaming variants
trade the fixed-corpus semantics for drift responsiveness, both reusing
``hoeffding_serfling_radius`` over an *effective* sample size:

- :class:`WindowedMeanEstimator` — the answer over the newest ``window``
  frames; the radius uses the window occupancy against the rolling
  population the window samples from (e.g. the frames of one re-profiling
  period).
- :class:`DecayedMeanEstimator` — exponentially decay-weighted answer; the
  radius plugs in the Kish effective sample size ``(Σw)²/Σw²``. The
  plug-in is the standard weighted-sample heuristic: the bound is per-read,
  like everything else in this module.

Either can be handed to :class:`~repro.estimators.sentinel.BoundSentinel`
(``stream=...``) so drift out of the profiled regime trips the Algorithm 3
repair path on *recent* evidence instead of the diluted all-time mean.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EstimationError
from repro.estimators.base import Estimate
from repro.estimators.smokescreen import bound_aware_estimate
from repro.stats.inequalities import hoeffding_serfling_radius
from repro.stats.prefix_moments import DecayedMoments, SlidingWindowMoments


class StreamingMeanEstimator:
    """O(1)-update mean estimator with the Algorithm 1 bound."""

    name = "smokescreen-streaming"

    def __init__(self, universe_size: int, delta: float = 0.05) -> None:
        """Start an empty stream.

        Args:
            universe_size: The finite universe the stream samples from
                (frames are assumed to arrive in without-replacement
                random order, e.g. from :class:`FrameSampling`).
            delta: Bound failure probability per read.
        """
        if universe_size <= 0:
            raise EstimationError(
                f"universe size must be positive, got {universe_size}"
            )
        if not 0.0 < delta < 1.0:
            raise EstimationError(f"delta must lie in (0, 1), got {delta}")
        self._universe_size = universe_size
        self._delta = delta
        self._count = 0
        self._sum = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    @property
    def count(self) -> int:
        """Values observed so far."""
        return self._count

    def update(self, value: float) -> None:
        """Fold one arriving model output into the state.

        Args:
            value: The frame's (finite) aggregate input value.
        """
        if not math.isfinite(value):
            raise EstimationError(f"stream value must be finite, got {value}")
        if self._count >= self._universe_size:
            raise EstimationError(
                f"stream exceeded its universe of {self._universe_size} frames"
            )
        self._count += 1
        self._sum += value
        self._minimum = min(self._minimum, value)
        self._maximum = max(self._maximum, value)

    def extend(self, values) -> None:
        """Fold a batch of arriving values, in order, atomically.

        The whole batch is validated before any value is folded in: a
        non-finite value or universe overflow raises with the estimator
        state untouched, so a failed ``extend`` can never leave a
        partially-updated count/sum behind a silently wrong ``estimate``.
        The sum is accumulated in arrival order (``np.cumsum``, not
        numpy's pairwise ``sum``), so a batch folds to bit-for-bit the
        state of one ``update`` per value.

        Args:
            values: Sequence or array of finite values.
        """
        batch = np.asarray(values, dtype=float)
        if batch.size == 0:
            return
        if batch.ndim != 1:
            raise EstimationError(
                f"extend expects a flat sequence of values, "
                f"got shape {batch.shape}"
            )
        if not np.all(np.isfinite(batch)):
            raise EstimationError("stream values must be finite")
        if self._count + batch.size > self._universe_size:
            raise EstimationError(
                f"extending by {batch.size} values would exceed the "
                f"universe of {self._universe_size} frames "
                f"({self._count} already observed)"
            )
        self._count += int(batch.size)
        self._sum = float(np.cumsum(np.append(self._sum, batch))[-1])
        self._minimum = min(self._minimum, float(batch.min()))
        self._maximum = max(self._maximum, float(batch.max()))

    def estimate(self) -> Estimate:
        """The current answer and bound (Theorem 3.1 at the current n).

        Returns:
            The bound-aware estimate over the values seen so far.
        """
        if self._count == 0:
            raise EstimationError("no values observed yet")
        mean = self._sum / self._count
        value_range = self._maximum - self._minimum
        radius = hoeffding_serfling_radius(
            self._count, self._universe_size, self._delta, value_range
        )
        return bound_aware_estimate(
            mean, radius, self._count, self._universe_size, self.name
        )

    def estimate_when_below(
        self, target_bound: float, min_count: int = 30
    ) -> Estimate | None:
        """The current estimate if its bound meets a target, else None.

        A convenience for "process frames until the answer is good enough"
        loops — note that *acting* on this repeatedly is a stopping rule,
        whose formal guarantee would need a union budget (see the module
        docstring); treat the result as the paper treats early stopping in
        profile generation (§3.3.2): an efficiency heuristic.

        Args:
            target_bound: The error-bound target.
            min_count: Warm-up floor before any stop is allowed. The
                sample-range radius can collapse to zero on a short
                constant prefix (e.g. the very first frame), which would
                otherwise trigger an absurd immediate stop; the floor
                guards that approximation.

        Returns:
            The estimate when ``error_bound <= target_bound`` and at least
            ``min_count`` values were observed, else None.
        """
        if min_count < 1:
            raise EstimationError(f"min count must be positive, got {min_count}")
        if min_count > self._universe_size:
            raise EstimationError(
                f"min_count {min_count} exceeds the universe of "
                f"{self._universe_size} frames: the stream exhausts before "
                f"the warm-up floor is reachable, so this loop can never "
                f"stop — lower min_count to at most the universe size"
            )
        if self._count < min_count:
            return None
        estimate = self.estimate()
        if estimate.error_bound <= target_bound:
            return estimate
        return None


class WindowedMeanEstimator:
    """Algorithm 1's bound over a sliding window of the newest frames.

    Designed for endless feeds: the window forgets, so the estimator never
    exhausts a universe, and a mid-stream quality drift dominates the
    answer within one window length instead of being diluted by the entire
    clean history. The radius is ``hoeffding_serfling_radius`` at the
    window occupancy against ``universe_size`` — the size of the rolling
    population the window samples from (e.g. the frames of one
    re-profiling period), with the window's exact min/max as the range.
    """

    name = "smokescreen-windowed"

    def __init__(
        self, universe_size: int, window: int, delta: float = 0.05
    ) -> None:
        """Start an empty windowed stream.

        Args:
            universe_size: Rolling population the window samples from;
                must be at least ``window``.
            window: Sliding-window capacity (frames retained).
            delta: Bound failure probability per read.
        """
        if universe_size <= 0:
            raise EstimationError(
                f"universe size must be positive, got {universe_size}"
            )
        if not 0.0 < delta < 1.0:
            raise EstimationError(f"delta must lie in (0, 1), got {delta}")
        if not 1 <= window <= universe_size:
            raise EstimationError(
                f"window {window} must lie in [1, universe {universe_size}]"
            )
        self._universe_size = universe_size
        self._delta = delta
        self._moments = SlidingWindowMoments(window)

    @property
    def count(self) -> int:
        """Values ever observed (retained or evicted)."""
        return self._moments.total_appended

    @property
    def window_count(self) -> int:
        """Values currently retained in the window."""
        return self._moments.count

    def update(self, value: float) -> None:
        """Fold one arriving value (oldest is evicted once full)."""
        self._moments.append(value)

    def extend(self, values) -> None:
        """Fold a batch of values, in order, atomically validated."""
        self._moments.extend(values)

    def estimate(self) -> Estimate:
        """Theorem 3.1 output over the current window contents."""
        n = self._moments.count
        if n == 0:
            raise EstimationError("no values observed yet")
        mean = self._moments.mean()
        value_range = self._moments.value_range()
        radius = hoeffding_serfling_radius(
            n, self._universe_size, self._delta, value_range
        )
        return bound_aware_estimate(
            mean, radius, n, self._universe_size, self.name
        )


class DecayedMeanEstimator:
    """Algorithm 1's bound over an exponentially decay-weighted stream.

    A smooth alternative to the hard window cutoff: value ``i`` arrivals
    ago carries weight ``decay**i``. The radius plugs the Kish effective
    sample size ``(Σw)²/Σw²`` into ``hoeffding_serfling_radius`` — the
    standard weighted-sample heuristic, per-read like every bound in this
    module. The effective size saturates at ``(1+decay)/(1-decay)``, which
    must fit inside ``universe_size`` for the Serfling correction to be
    meaningful; the constructor enforces that.
    """

    name = "smokescreen-decayed"

    def __init__(
        self, universe_size: int, decay: float, delta: float = 0.05
    ) -> None:
        """Start an empty decayed stream.

        Args:
            universe_size: Rolling population the decayed sample is drawn
                from.
            decay: Per-arrival weight multiplier in (0, 1).
            delta: Bound failure probability per read.
        """
        if universe_size <= 0:
            raise EstimationError(
                f"universe size must be positive, got {universe_size}"
            )
        if not 0.0 < delta < 1.0:
            raise EstimationError(f"delta must lie in (0, 1), got {delta}")
        decay = float(decay)
        if not math.isfinite(decay) or not 0.0 < decay < 1.0:
            raise EstimationError(
                f"decay must lie strictly in (0, 1), got {decay}"
            )
        saturation = (1.0 + decay) / (1.0 - decay)
        if saturation > universe_size:
            raise EstimationError(
                f"decay {decay} saturates at an effective sample size of "
                f"{saturation:.1f}, which exceeds the universe of "
                f"{universe_size} frames — use a smaller decay or a larger "
                f"universe"
            )
        self._universe_size = universe_size
        self._delta = delta
        self._moments = DecayedMoments(decay)

    @property
    def count(self) -> int:
        """Values ever observed."""
        return self._moments.count

    def effective_size(self) -> float:
        """Kish effective sample size of the current decayed state."""
        return self._moments.effective_size()

    def update(self, value: float) -> None:
        """Fold one arriving value; all prior weights decay."""
        self._moments.append(value)

    def extend(self, values) -> None:
        """Fold a batch of values, in order, atomically validated."""
        self._moments.extend(values)

    def estimate(self) -> Estimate:
        """Theorem 3.1 output over the decayed state.

        The recorded ``n`` is the floored effective sample size; the
        radius itself is computed at the exact (fractional) value.
        """
        if self._moments.count == 0:
            raise EstimationError("no values observed yet")
        effective = self._moments.effective_size()
        mean = self._moments.mean()
        value_range = self._moments.value_range()
        radius = hoeffding_serfling_radius(
            effective, self._universe_size, self._delta, value_range
        )
        return bound_aware_estimate(
            mean, radius, max(1, int(effective)), self._universe_size,
            self.name,
        )
