"""Prefix-cumulative moments of nested trial samples — batch and streaming.

The profiler's fraction sweeps evaluate every fraction of an ascending grid
on *nested* prefix samples (:class:`repro.stats.sampling.ProgressiveSampler`):
the sample at a low fraction is a prefix of the sample at any higher
fraction. The loop implementation re-derives the mean, variance, and range
of each prefix from scratch, costing O(trials × fractions × n) overall.

:class:`PrefixMoments` stacks each trial's maximal prefix gather into one
``(trials, max_size)`` matrix and computes its cumulative sums **once**
(O(trials × n)); the mean of *every* prefix length is then an O(trials)
slice. The shifted cumulative sums of values and squares that variances
need are built once too, but only when an estimator first asks for a
variance. Prefix ranges come from **running extrema**: growing the prefix
from ``m`` to ``n`` columns reduces only columns ``m..n-1`` and folds them
into the kept minima and maxima, so an ascending grid reads each column
once. An estimator pays only for the moments it reads. Every query takes
one prefix length or an ascending tuple of them, answering the tuple as
one ``(sizes, trials)`` grid; combined with the batch radius functions of
:mod:`repro.stats.inequalities`, a whole fraction grid is priced by a
handful of broadcasted numpy operations.

Live feeds do not arrive as a fixed matrix, so two streaming engines keep
the same shifted cumulants for a single feed:

- :class:`SlidingWindowMoments` — fixed-capacity window over the newest
  ``capacity`` values: deque-backed shifted cumulants with **exact** window
  minima/maxima via monotonic deques, all O(1) amortized per append. A
  chunk of at least ``capacity`` values replaces the window outright and
  is folded with array operations.
- :class:`DecayedMoments` — exponentially decay-weighted cumulants with the
  Kish effective sample size, for bounds that should forget the distant
  past smoothly instead of truncating it. A chunk folds in closed form.

Numerical note: prefix means come from a sequential cumulative sum, while
``numpy``'s direct ``mean`` uses pairwise summation. Both are correct to
floating-point accuracy; the profiler's differential tests pin the paths to
each other within 1e-9, which is the repo-wide numerical-equivalence policy
for the vectorized kernels. Variances are computed from cumulants *shifted
by each row's first element*: the raw ``E[x²] − E[x]²`` form catastrophically
cancels once values carry a large common offset (a ~1e8 offset leaves float64
with no significant bits for a small spread), and shifting by a value from
the data itself removes the offset without changing the variance.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError, EstimationError


class PrefixMoments:
    """Cumulative first/second moments and prefix extrema per trial row.

    One instance covers one ``(trials, max_size)`` matrix of prefix-sample
    values. Construction validates the matrix and computes its raw
    cumulative sum, which every estimator reads through :meth:`mean`. The
    *shifted* cumulative sum and sum of squares (values centered on each
    row's first element, held in ``_shift``) are built on the first
    variance-type call and kept.

    Every query method takes ``n``, either one prefix length or an
    ascending sequence of them. One length returns a ``(trials,)`` array;
    a sequence returns a C-contiguous ``(len(n), trials)`` grid whose row
    ``f`` equals the one-length answer at ``n[f]`` byte for byte. The
    moments are column slices at ``n - 1``. The extrema are running:
    the instance keeps the minima and maxima of its longest prefix served
    so far, and a longer prefix reduces only the columns it adds. A
    shorter one is reduced directly. ``min``/``max`` are exact, so either
    route equals a direct ``matrix[:, :n]`` reduction (up to the sign of a
    zero extremum, which no bound reads: it can only flip the sign of a
    zero range).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        """Validate the matrix and compute its cumulative sums.

        Args:
            matrix: Per-trial prefix values, shape ``(trials, max_size)``;
                row ``t`` holds trial ``t``'s maximal prefix gather, whose
                leading ``n`` entries are exactly the trial's sample at
                prefix length ``n``. A float matrix is kept by reference
                and read lazily, so it must not be mutated afterwards.
        """
        array = np.asarray(matrix, dtype=float)
        if array.ndim != 2:
            raise ConfigurationError(
                f"prefix matrix must be 2-D (trials, max_size), "
                f"got shape {array.shape}"
            )
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ConfigurationError(
                f"prefix matrix must be non-empty, got shape {array.shape}"
            )
        if not np.all(np.isfinite(array)):
            raise EstimationError("prefix matrix contains non-finite values")
        self._matrix = array
        self._shift = array[:, 0].copy()
        self._cumsum = np.cumsum(array, axis=1)
        # Minima and maxima of the first ``_extrema_size`` columns, set
        # by the first extrema query.
        self._extrema_size = 0
        self._low: np.ndarray | None = None
        self._high: np.ndarray | None = None

    @cached_property
    def _shifted_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative sums of the shifted values and of their squares."""
        shifted = self._matrix - self._shift[:, None]
        return np.cumsum(shifted, axis=1), np.cumsum(shifted * shifted, axis=1)

    @property
    def trials(self) -> int:
        """Number of trial rows."""
        return int(self._matrix.shape[0])

    @property
    def max_size(self) -> int:
        """Largest prefix length served."""
        return int(self._matrix.shape[1])

    def row(self, trial: int) -> np.ndarray:
        """One trial's full maximal prefix (view; do not mutate).

        Kept for estimators without a batch form: a per-trial fallback
        slices ``row(t)[:n]`` and runs the scalar estimator unchanged.
        """
        return self._matrix[trial]

    def _check_size(self, n) -> np.ndarray:
        """``n`` as a 0-d or 1-d integer array, every length in range."""
        sizes = np.asarray(n)
        if sizes.ndim > 1 or sizes.size == 0 or sizes.dtype.kind not in "iu":
            raise ConfigurationError(
                f"prefix length must be an int or a sequence of ints, got {n!r}"
            )
        if sizes.min() < 1 or sizes.max() > self.max_size:
            raise ConfigurationError(
                f"prefix length {n} must lie in [1, {self.max_size}]"
            )
        return sizes

    def mean(self, n) -> np.ndarray:
        """Per-trial means of the length-``n`` prefixes."""
        sizes = self._check_size(n)
        return self._cumsum.T[sizes - 1] / sizes[..., None]

    def second_moment(self, n) -> np.ndarray:
        """Per-trial raw second moments ``mean(x^2)`` of the prefixes.

        Reconstructed from the shifted cumulants:
        ``E[x²] = E[(x−c)²] + 2c·E[x] − c²`` with ``c`` the row shift.
        """
        sizes = self._check_size(n)
        column = sizes[..., None]
        shifted = self._shifted_sums[1].T[sizes - 1] / column
        mean = self._cumsum.T[sizes - 1] / column
        return shifted + self._shift * (2.0 * mean - self._shift)

    def variance(self, n, ddof: int = 0) -> np.ndarray:
        """Per-trial prefix variances, clipped at zero.

        Computed from the shifted cumulants, so the clip only ever absorbs
        rounding-level negatives — never the catastrophic cancellation the
        raw ``E[x²] − E[x]²`` form suffers on large-offset data.

        Args:
            n: Prefix length(s).
            ddof: Delta degrees of freedom (0 = population variance, as
                ``ndarray.var`` defaults; requires ``n > ddof``).
        """
        sizes = self._check_size(n)
        if ddof < 0 or sizes.min() <= ddof:
            raise ConfigurationError(
                f"ddof {ddof} must satisfy 0 <= ddof < n={n}"
            )
        column = sizes[..., None]
        scumsum, scumsq = self._shifted_sums
        shifted_mean = scumsum.T[sizes - 1] / column
        variance = np.maximum(
            scumsq.T[sizes - 1] / column - shifted_mean * shifted_mean,
            0.0,
        )
        if ddof:
            variance = variance * (column / (column - ddof))
        return variance

    def std(self, n, ddof: int = 0) -> np.ndarray:
        """Per-trial prefix standard deviations (see :meth:`variance`)."""
        return np.sqrt(self.variance(n, ddof))

    def prefix_mean_matrix(self, n: int) -> np.ndarray:
        """Means of *every* prefix length ``1..n``, shape ``(trials, n)``.

        Serves envelope constructions (EBGS) that need all prefixes
        simultaneously; column ``t-1`` equals :meth:`mean` at ``t``.
        """
        n = int(self._check_size(n))
        t = np.arange(1, n + 1, dtype=float)
        return self._cumsum[:, :n] / t

    def prefix_variance_matrix(self, n: int) -> np.ndarray:
        """Population variances of every prefix length ``1..n``."""
        n = int(self._check_size(n))
        t = np.arange(1, n + 1, dtype=float)
        scumsum, scumsq = self._shifted_sums
        shifted_mean = scumsum[:, :n] / t
        return np.maximum(scumsq[:, :n] / t - shifted_mean**2, 0.0)

    def _extrema_at(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Minima and maxima of the first ``n`` columns (may be cached)."""
        if n < self._extrema_size:
            head = self._matrix[:, :n]
            return head.min(axis=1), head.max(axis=1)
        if n > self._extrema_size:
            added = self._matrix[:, self._extrema_size : n]
            low, high = added.min(axis=1), added.max(axis=1)
            if self._extrema_size:
                np.minimum(self._low, low, out=low)
                np.maximum(self._high, high, out=high)
            self._low, self._high, self._extrema_size = low, high, n
        return self._low, self._high

    def _extrema(self, n) -> tuple[np.ndarray, np.ndarray]:
        """Fresh minima and maxima arrays, laid out like the answers."""
        sizes = self._check_size(n)
        if sizes.ndim == 0:
            low, high = self._extrema_at(int(sizes))
            return low.copy(), high.copy()
        low = np.empty((sizes.size, self.trials))
        high = np.empty_like(low)
        for row, size in enumerate(sizes.tolist()):
            low[row], high[row] = self._extrema_at(size)
        return low, high

    def minimum(self, n) -> np.ndarray:
        """Per-trial minima of the length-``n`` prefixes."""
        return self._extrema(n)[0]

    def maximum(self, n) -> np.ndarray:
        """Per-trial maxima of the length-``n`` prefixes."""
        return self._extrema(n)[1]

    def value_range(self, n) -> np.ndarray:
        """Per-trial sample ranges ``max - min`` of the prefixes."""
        low, high = self._extrema(n)
        return high - low


class SlidingWindowMoments:
    """Moments of the newest ``capacity`` values of a single live feed.

    Shifted first/second cumulants are maintained by add-on-arrival /
    subtract-on-eviction over a deque, and are rebuilt from scratch every
    ``capacity`` appends (O(1) amortized) so subtract-accumulation error
    can never grow with stream length — window statistics track a from-
    scratch recomputation within the repo's 1e-9 equivalence policy. Window
    minima and maxima are **exact** at every step via monotonic deques.
    """

    def __init__(self, capacity: int) -> None:
        """Create an empty window.

        Args:
            capacity: Maximum number of retained values (≥ 1).
        """
        if capacity < 1:
            raise ConfigurationError(
                f"window capacity must be positive, got {capacity}"
            )
        self._capacity = int(capacity)
        self._values: deque[float] = deque()
        self._shift = 0.0
        self._sum_s = 0.0
        self._sumsq_s = 0.0
        self._min_dq: deque[tuple[int, float]] = deque()
        self._max_dq: deque[tuple[int, float]] = deque()
        self._appended = 0
        self._since_rebuild = 0

    @property
    def count(self) -> int:
        """Values currently in the window."""
        return len(self._values)

    @property
    def total_appended(self) -> int:
        """Values ever appended (retained or evicted)."""
        return self._appended

    @property
    def is_full(self) -> bool:
        """Whether the window has reached capacity (and now slides)."""
        return len(self._values) == self._capacity

    def append(self, value: float) -> None:
        """Fold one arriving value, evicting the oldest when full."""
        x = float(value)
        if not math.isfinite(x):
            raise EstimationError(f"stream value must be finite, got {x}")
        if len(self._values) == self._capacity:
            evicted = self._values.popleft() - self._shift
            self._sum_s -= evicted
            self._sumsq_s -= evicted * evicted
        elif not self._values:
            self._shift = x
        self._values.append(x)
        shifted = x - self._shift
        self._sum_s += shifted
        self._sumsq_s += shifted * shifted
        index = self._appended
        self._appended += 1
        while self._min_dq and self._min_dq[-1][1] >= x:
            self._min_dq.pop()
        self._min_dq.append((index, x))
        while self._max_dq and self._max_dq[-1][1] <= x:
            self._max_dq.pop()
        self._max_dq.append((index, x))
        cutoff = self._appended - len(self._values)
        while self._min_dq[0][0] < cutoff:
            self._min_dq.popleft()
        while self._max_dq[0][0] < cutoff:
            self._max_dq.popleft()
        self._since_rebuild += 1
        if self._since_rebuild >= self._capacity:
            self._rebuild()

    def extend(self, values) -> None:
        """Fold a batch of values, in order, atomically validated.

        A chunk of at least ``capacity`` values evicts everything before
        it, so the window becomes exactly the chunk's last ``capacity``
        values and is rebuilt from them with array operations. A shorter
        chunk folds value by value.

        Args:
            values: Sequence or array of finite values.
        """
        batch = np.asarray(values, dtype=float).reshape(-1)
        if not np.isfinite(batch).all():
            raise EstimationError("stream values must be finite")
        if batch.size < self._capacity:
            for value in batch.tolist():
                self.append(value)
            return
        self._appended += int(batch.size)
        self._load(batch[-self._capacity :])

    def _load(self, window: np.ndarray) -> None:
        """Replace the window with ``window``, the newest values appended.

        The monotonic deques keep, as per-value appends would, each value
        strictly below (min) or above (max) every value after it.
        """
        first = self._appended - window.size
        shifted = window - window[0]
        # later_min[j] is min(window[j + 1:]), +inf past the newest value.
        later_min = np.append(np.minimum.accumulate(window[::-1])[-2::-1],
                              math.inf)
        later_max = np.append(np.maximum.accumulate(window[::-1])[-2::-1],
                              -math.inf)
        self._values = deque(window.tolist())
        self._shift = self._values[0]
        self._sum_s = float(shifted.sum())
        self._sumsq_s = float(np.dot(shifted, shifted))
        self._min_dq = self._monotonic(window, window < later_min, first)
        self._max_dq = self._monotonic(window, window > later_max, first)
        self._since_rebuild = 0

    @staticmethod
    def _monotonic(
        window: np.ndarray, keep: np.ndarray, first: int
    ) -> deque[tuple[int, float]]:
        kept = np.flatnonzero(keep)
        return deque(zip((kept + first).tolist(), window[kept].tolist()))

    def _rebuild(self) -> None:
        self._shift = self._values[0]
        sum_s = 0.0
        sumsq_s = 0.0
        for value in self._values:
            shifted = value - self._shift
            sum_s += shifted
            sumsq_s += shifted * shifted
        self._sum_s = sum_s
        self._sumsq_s = sumsq_s
        self._since_rebuild = 0

    def _require_values(self) -> int:
        n = len(self._values)
        if n == 0:
            raise EstimationError("window is empty — no values observed yet")
        return n

    def mean(self) -> float:
        """Mean of the current window."""
        n = self._require_values()
        return self._shift + self._sum_s / n

    def variance(self, ddof: int = 0) -> float:
        """Variance of the current window, clipped at zero."""
        n = self._require_values()
        if ddof < 0 or n <= ddof:
            raise ConfigurationError(
                f"ddof {ddof} must satisfy 0 <= ddof < n={n}"
            )
        shifted_mean = self._sum_s / n
        variance = max(self._sumsq_s / n - shifted_mean * shifted_mean, 0.0)
        if ddof:
            variance *= n / (n - ddof)
        return variance

    def std(self, ddof: int = 0) -> float:
        """Standard deviation of the current window."""
        return math.sqrt(self.variance(ddof))

    def minimum(self) -> float:
        """Exact minimum of the current window."""
        self._require_values()
        return self._min_dq[0][1]

    def maximum(self) -> float:
        """Exact maximum of the current window."""
        self._require_values()
        return self._max_dq[0][1]

    def value_range(self) -> float:
        """Exact range ``max - min`` of the current window."""
        return self.maximum() - self.minimum()

    def values(self) -> np.ndarray:
        """The current window contents, oldest first (copy)."""
        return np.fromiter(self._values, dtype=float, count=len(self._values))


class DecayedMoments:
    """Exponentially decay-weighted moments of a single live feed.

    Value ``i`` arrivals ago carries weight ``decay**i``; cumulants are
    one-multiply-one-add per append. The Kish effective sample size
    ``(Σw)² / Σw²`` converts the weighted state into the "how many
    independent frames is this worth" number the concentration bounds
    need; it saturates at ``(1 + decay) / (1 - decay)``.
    """

    def __init__(self, decay: float) -> None:
        """Create an empty decayed accumulator.

        Args:
            decay: Per-arrival weight multiplier in (0, 1) — older values
                fade geometrically. (For no forgetting use the cumulative
                :class:`~repro.estimators.streaming.StreamingMeanEstimator`
                instead.)
        """
        decay = float(decay)
        if not math.isfinite(decay) or not 0.0 < decay < 1.0:
            raise ConfigurationError(
                f"decay must lie strictly in (0, 1), got {decay}"
            )
        self._decay = decay
        self._count = 0
        self._weight = 0.0
        self._weight_sq = 0.0
        self._sum_s = 0.0
        self._sumsq_s = 0.0
        self._shift = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    @property
    def count(self) -> int:
        """Values ever appended."""
        return self._count

    @property
    def weight(self) -> float:
        """Total decayed weight ``Σ decay**age == (1 - d**n) / (1 - d)``."""
        return self._weight

    def effective_size(self) -> float:
        """Kish effective sample size ``(Σw)² / Σw²`` (≤ (1+d)/(1-d))."""
        if self._count == 0:
            raise EstimationError("no values observed yet")
        return self._weight * self._weight / self._weight_sq

    def append(self, value: float) -> None:
        """Fold one arriving value; all prior weights decay by ``decay``."""
        x = float(value)
        if not math.isfinite(x):
            raise EstimationError(f"stream value must be finite, got {x}")
        if self._count == 0:
            self._shift = x
        d = self._decay
        shifted = x - self._shift
        self._weight = d * self._weight + 1.0
        self._weight_sq = d * d * self._weight_sq + 1.0
        self._sum_s = d * self._sum_s + shifted
        self._sumsq_s = d * self._sumsq_s + shifted * shifted
        self._minimum = min(self._minimum, x)
        self._maximum = max(self._maximum, x)
        self._count += 1

    def extend(self, values) -> None:
        """Fold a batch of values, in order, atomically validated.

        Closed form of ``k`` appends: the old state decays by ``decay**k``
        and the chunk adds its own sums, weighted ``decay**(k-1) … 1``
        from oldest to newest.

        Args:
            values: Sequence or array of finite values.
        """
        batch = np.asarray(values, dtype=float).reshape(-1)
        if not np.isfinite(batch).all():
            raise EstimationError("stream values must be finite")
        k = int(batch.size)
        if k == 0:
            return
        if self._count == 0:
            self._shift = float(batch[0])
        d = self._decay
        weights = d ** np.arange(k - 1, -1, -1, dtype=float)
        shifted = batch - self._shift
        scale = d**k
        self._weight = scale * self._weight + float(weights.sum())
        self._weight_sq = (
            scale * scale * self._weight_sq + float(np.dot(weights, weights))
        )
        self._sum_s = scale * self._sum_s + float(np.dot(weights, shifted))
        self._sumsq_s = (
            scale * self._sumsq_s + float(np.dot(weights, shifted * shifted))
        )
        self._minimum = min(self._minimum, float(batch.min()))
        self._maximum = max(self._maximum, float(batch.max()))
        self._count += k

    def _require_values(self) -> None:
        if self._count == 0:
            raise EstimationError("no values observed yet")

    def mean(self) -> float:
        """Decay-weighted mean."""
        self._require_values()
        return self._shift + self._sum_s / self._weight

    def variance(self) -> float:
        """Decay-weighted population variance, clipped at zero."""
        self._require_values()
        shifted_mean = self._sum_s / self._weight
        return max(self._sumsq_s / self._weight - shifted_mean**2, 0.0)

    def std(self) -> float:
        """Decay-weighted standard deviation."""
        return math.sqrt(self.variance())

    def minimum(self) -> float:
        """Running minimum over *all* values seen (conservative: extrema
        do not decay, so the implied range never understates the data)."""
        self._require_values()
        return self._minimum

    def maximum(self) -> float:
        """Running maximum over all values seen (see :meth:`minimum`)."""
        self._require_values()
        return self._maximum

    def value_range(self) -> float:
        """Conservative range ``max - min`` over all values seen."""
        return self.maximum() - self.minimum()
