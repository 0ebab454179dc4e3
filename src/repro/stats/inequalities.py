"""Concentration-inequality interval radii.

Every function here returns the half-width ``I`` of a two-sided confidence
interval for the mean of bounded observations: with probability at least
``1 - delta`` the true mean lies in ``(sample_mean - I, sample_mean + I)``.

These radii are the raw statistical ingredients of the error-bound estimators
in :mod:`repro.estimators`; keeping them here, free of any video vocabulary,
makes them independently testable and reusable.

References (numbering follows the paper):

- Hoeffding [31] — i.i.d. bounded variables.
- Hoeffding–Serfling [8] — sampling *without replacement* from a finite
  population of size ``N``; strictly tighter than Hoeffding for ``n > 1``.
- Empirical Bernstein [7] — variance-adaptive bound; the union-over-time form
  is the one used inside the EBGS stopping algorithm [48].
- CLT — the normal-approximation radius used by online aggregation [30];
  *not* a guaranteed bound (see Figure 5 of the paper).

Every radius has two forms sharing one argument validator: the scalar
``*_radius`` functions (``math``-based, one interval at a time) and the
``*_radius_batch`` variants, which broadcast over ndarray ``n`` /
``value_range`` / ``sample_std`` and return an ndarray of radii. The batch
forms are the statistical core of the profiler's vectorized sweep kernel:
one call prices a whole (trials,) or (trials, fractions) grid of intervals.
Each public function checks each of its arguments once and then calls the
unchecked kernels (``_rho``, ``_bernstein`` and their batch twins), so a
radius built on another one does not validate twice.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.stats.hypergeometric import z_score


def _check_common(n, delta, value_range) -> None:
    """Validate arguments shared by every radius function.

    Accepts scalars and ndarrays alike (``n`` and ``value_range`` may be
    arrays in the batch variants). ``delta`` is a scalar except in
    :func:`empirical_bernstein_radius_batch`, whose union variant spends
    a different ``delta_t`` per prefix length.
    """
    if np.any(np.asarray(n) <= 0):
        raise ConfigurationError(f"sample size must be positive, got n={n}")
    if isinstance(delta, np.ndarray):
        delta_ok = np.all((delta > 0.0) & (delta < 1.0))
    else:
        delta_ok = 0.0 < delta < 1.0
    if not delta_ok:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    if np.any(np.asarray(value_range) < 0.0):
        raise ConfigurationError(
            f"value range must be non-negative, got {value_range}"
        )


def _check_std(sample_std) -> None:
    """Validate an empirical standard deviation (scalar or ndarray)."""
    if np.any(np.asarray(sample_std) < 0.0):
        raise ConfigurationError(
            f"sample standard deviation must be non-negative, got {sample_std}"
        )


def _check_population(n, population: int) -> None:
    """Validate a finite-population size against the sample size(s)."""
    if np.any(np.asarray(population) < np.asarray(n)):
        raise ConfigurationError(
            f"population {population} smaller than sample size {n}"
        )


def hoeffding_radius(n: int, delta: float, value_range: float) -> float:
    """Two-sided Hoeffding interval radius for i.i.d. samples.

    With probability at least ``1 - delta``,
    ``|sample_mean - mean| <= R * sqrt(log(2 / delta) / (2 n))`` where ``R``
    is the range of the observations.

    Args:
        n: Number of samples.
        delta: Failure probability of the two-sided interval.
        value_range: Range ``R`` of the bounded observations.

    Returns:
        The interval half-width ``I``.
    """
    _check_common(n, delta, value_range)
    return value_range * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def hoeffding_serfling_rho(n: int, population: int) -> float:
    """The ``rho_n`` factor of the Hoeffding–Serfling inequality.

    ``rho_n = min(1 - (n - 1) / N, (1 - n / N) (1 + 1 / n))`` exactly as in
    Algorithm 1 of the paper. It decays to zero as the sample exhausts the
    population, which is what makes the bound collapse at ``n = N``.

    Args:
        n: Number of samples drawn without replacement.
        population: Finite population size ``N``; must satisfy ``n <= N``.

    Returns:
        The dimensionless factor ``rho_n`` in ``[0, 1]``.
    """
    if n <= 0:
        raise ConfigurationError(f"sample size must be positive, got n={n}")
    _check_population(n, population)
    return _rho(n, population)


def _rho(n: int, population: int) -> float:
    """:func:`hoeffding_serfling_rho` over checked arguments."""
    first = 1.0 - (n - 1) / population
    second = (1.0 - n / population) * (1.0 + 1.0 / n)
    return min(first, second)


def hoeffding_serfling_radius(
    n: int, population: int, delta: float, value_range: float
) -> float:
    """Two-sided Hoeffding–Serfling radius for without-replacement samples.

    With probability at least ``1 - delta``,
    ``|sample_mean - mean| <= R * sqrt(rho_n * log(2 / delta) / (2 n))``.
    The factor 2 inside the logarithm is the union bound over the two
    one-sided inequalities, as derived in §3.2.1 of the paper.

    Args:
        n: Number of samples drawn without replacement.
        population: Finite population size ``N``.
        delta: Failure probability of the two-sided interval.
        value_range: Range ``R`` of the observations.

    Returns:
        The interval half-width ``I``.
    """
    _check_common(n, delta, value_range)
    _check_population(n, population)
    rho = _rho(n, population)
    return value_range * math.sqrt(rho * math.log(2.0 / delta) / (2.0 * n))


def empirical_bernstein_radius(
    n: int, delta: float, value_range: float, sample_std: float
) -> float:
    """Two-sided empirical Bernstein radius for a single sample size.

    ``I = sigma_hat * sqrt(2 log(3 / delta) / n) + 3 R log(3 / delta) / n``
    (Audibert et al. [7]). Variance-adaptive: much tighter than Hoeffding
    when the observations have small empirical standard deviation.

    Args:
        n: Number of samples.
        delta: Failure probability.
        value_range: Range ``R`` of the observations.
        sample_std: Empirical standard deviation of the samples.

    Returns:
        The interval half-width ``I``.
    """
    _check_common(n, delta, value_range)
    _check_std(sample_std)
    return _bernstein(n, delta, value_range, sample_std)


def _bernstein(n, delta: float, value_range, sample_std) -> float:
    """:func:`empirical_bernstein_radius` over checked arguments."""
    log_term = math.log(3.0 / delta)
    return sample_std * math.sqrt(2.0 * log_term / n) + 3.0 * value_range * log_term / n


def empirical_bernstein_union_radius(
    t: int, delta: float, value_range: float, sample_std: float
) -> float:
    """Empirical Bernstein radius valid *simultaneously* for all times ``t``.

    The EBGS stopping algorithm [48] needs intervals that hold jointly for
    every prefix length ``t`` of the sample stream, so it spends
    ``delta_t = delta / (t (t + 1))`` at step ``t`` (these sum to ``delta``
    over ``t >= 1``). This is the construction Smokescreen's Algorithm 1
    deliberately *relaxes* — it only needs the interval at the final ``n`` —
    which is one source of its tighter bound.

    Args:
        t: Prefix length (1-based step of the sample stream).
        delta: Total failure probability, shared across all steps.
        value_range: Range ``R`` of the observations.
        sample_std: Empirical standard deviation of the first ``t`` samples.

    Returns:
        The interval half-width at step ``t``.
    """
    _check_common(t, delta, value_range)
    _check_std(sample_std)
    delta_t = delta / (t * (t + 1))
    return _bernstein(t, delta_t, value_range, sample_std)


def empirical_bernstein_serfling_radius(
    n: int, population: int, delta: float, value_range: float, sample_std: float
) -> float:
    """Two-sided empirical Bernstein–Serfling radius (without replacement).

    Bardenet & Maillard's [8] variance-adaptive companion to the
    Hoeffding–Serfling inequality: with probability at least ``1 - delta``,

    ``|x_bar - mu| <= sigma_hat * sqrt(2 rho_n log(5/delta) / n)
                       + kappa * R * log(5/delta) / n``

    with ``kappa = 7/3 + 3/sqrt(2)`` and the same ``rho_n`` shrinkage as
    Hoeffding–Serfling. Tighter than H-S when the empirical standard
    deviation is well below the range; looser at very small ``n`` where
    the ``R/n`` correction term dominates. The `ablation-radius`
    experiment compares both inside Algorithm 1's output construction.

    Args:
        n: Number of samples drawn without replacement.
        population: Finite population size ``N``.
        delta: Failure probability of the two-sided interval.
        value_range: Range ``R`` of the observations.
        sample_std: Empirical standard deviation of the samples.

    Returns:
        The interval half-width ``I``.
    """
    _check_common(n, delta, value_range)
    _check_std(sample_std)
    _check_population(n, population)
    rho = _rho(n, population)
    log_term = math.log(5.0 / delta)
    kappa = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)
    return sample_std * math.sqrt(2.0 * rho * log_term / n) + (
        kappa * value_range * log_term / n
    )


def clt_radius(n: int, delta: float, sample_std: float) -> float:
    """Normal-approximation radius used by online aggregation.

    ``I = z_{delta/2} * sigma_hat / sqrt(n)``. This is *not* a guaranteed
    bound: at small ``n`` or skewed data the coverage can fall below
    ``1 - delta`` (the paper's Figure 5 quantifies exactly this failure).

    Args:
        n: Number of samples.
        delta: Nominal two-sided failure probability.
        sample_std: Empirical standard deviation of the samples.

    Returns:
        The nominal interval half-width ``I``.
    """
    _check_common(n, delta, value_range=0.0)
    _check_std(sample_std)
    return z_score(delta) * sample_std / math.sqrt(n)


# ---------------------------------------------------------------------------
# Batch (array-broadcasting) variants.
#
# Each function accepts ndarray `n` / `value_range` / `sample_std` (any
# mutually broadcastable shapes; scalars work too) and returns the ndarray
# of radii that the scalar form would produce elementwise. `delta` and
# `population` stay scalar: one sweep prices every interval at a single
# failure probability over a single universe.
# ---------------------------------------------------------------------------


def hoeffding_radius_batch(n, delta: float, value_range) -> np.ndarray:
    """Broadcasted :func:`hoeffding_radius` over ndarray ``n``/``value_range``.

    Args:
        n: Sample sizes (scalar or ndarray).
        delta: Failure probability of the two-sided intervals.
        value_range: Observation ranges ``R`` (scalar or ndarray).

    Returns:
        The elementwise interval half-widths.
    """
    _check_common(n, delta, value_range)
    n = np.asarray(n, dtype=float)
    return np.asarray(value_range) * np.sqrt(math.log(2.0 / delta) / (2.0 * n))


def hoeffding_serfling_rho_batch(n, population: int) -> np.ndarray:
    """Broadcasted :func:`hoeffding_serfling_rho` over ndarray ``n``.

    Args:
        n: Sample sizes (scalar or ndarray); each must satisfy ``n <= N``.
        population: Finite population size ``N``.

    Returns:
        The elementwise ``rho_n`` factors in ``[0, 1]``.
    """
    if np.any(np.asarray(n) <= 0):
        raise ConfigurationError(f"sample size must be positive, got n={n}")
    _check_population(n, population)
    return _rho_batch(np.asarray(n, dtype=float), population)


def _rho_batch(n: np.ndarray, population: int) -> np.ndarray:
    """:func:`hoeffding_serfling_rho_batch` over checked float ``n``."""
    first = 1.0 - (n - 1.0) / population
    second = (1.0 - n / population) * (1.0 + 1.0 / n)
    return np.minimum(first, second)


def hoeffding_serfling_radius_batch(
    n, population: int, delta: float, value_range
) -> np.ndarray:
    """Broadcasted :func:`hoeffding_serfling_radius`.

    Args:
        n: Sample sizes drawn without replacement (scalar or ndarray).
        population: Finite population size ``N``.
        delta: Failure probability of the two-sided intervals.
        value_range: Observation ranges ``R`` (scalar or ndarray).

    Returns:
        The elementwise interval half-widths.
    """
    _check_common(n, delta, value_range)
    _check_population(n, population)
    n = np.asarray(n, dtype=float)
    rho = _rho_batch(n, population)
    return np.asarray(value_range) * np.sqrt(
        rho * math.log(2.0 / delta) / (2.0 * n)
    )


def empirical_bernstein_radius_batch(
    n, delta, value_range, sample_std
) -> np.ndarray:
    """Broadcasted :func:`empirical_bernstein_radius`.

    ``delta`` may itself be an ndarray here (unlike the other batch forms)
    because the union variant spends a different ``delta_t`` per prefix
    length. The log term is taken with :func:`math.log` per element, as the
    scalar form does: ``np.log`` differs from it by 1 ulp on some deltas.

    Args:
        n: Sample sizes (scalar or ndarray).
        delta: Failure probabilities (scalar or ndarray in ``(0, 1)``).
        value_range: Observation ranges ``R`` (scalar or ndarray).
        sample_std: Empirical standard deviations (scalar or ndarray).

    Returns:
        The elementwise interval half-widths.
    """
    _check_common(n, delta, value_range)
    _check_std(sample_std)
    return _bernstein_batch(
        np.asarray(n, dtype=float), delta, value_range, sample_std
    )


def _bernstein_batch(n: np.ndarray, delta, value_range, sample_std):
    """:func:`empirical_bernstein_radius_batch` over checked arguments."""
    delta = np.asarray(delta, dtype=float)
    log_term = np.array(
        [math.log(3.0 / d) for d in delta.flat], dtype=float
    ).reshape(delta.shape)
    return np.asarray(sample_std) * np.sqrt(2.0 * log_term / n) + (
        3.0 * np.asarray(value_range) * log_term / n
    )


def empirical_bernstein_union_radius_batch(
    t, delta: float, value_range, sample_std
) -> np.ndarray:
    """Broadcasted :func:`empirical_bernstein_union_radius` over prefixes.

    Args:
        t: Prefix lengths (scalar or ndarray, 1-based).
        delta: Total failure probability shared across all steps.
        value_range: Observation ranges ``R`` (scalar or ndarray).
        sample_std: Per-prefix empirical standard deviations.

    Returns:
        The elementwise interval half-widths at each step.
    """
    _check_common(t, delta, value_range)
    _check_std(sample_std)
    t = np.asarray(t, dtype=float)
    delta_t = delta / (t * (t + 1.0))
    return _bernstein_batch(t, delta_t, value_range, sample_std)


def empirical_bernstein_serfling_radius_batch(
    n, population: int, delta: float, value_range, sample_std
) -> np.ndarray:
    """Broadcasted :func:`empirical_bernstein_serfling_radius`.

    Args:
        n: Sample sizes drawn without replacement (scalar or ndarray).
        population: Finite population size ``N``.
        delta: Failure probability of the two-sided intervals.
        value_range: Observation ranges ``R`` (scalar or ndarray).
        sample_std: Empirical standard deviations (scalar or ndarray).

    Returns:
        The elementwise interval half-widths.
    """
    _check_common(n, delta, value_range)
    _check_std(sample_std)
    _check_population(n, population)
    n = np.asarray(n, dtype=float)
    rho = _rho_batch(n, population)
    log_term = math.log(5.0 / delta)
    kappa = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)
    return np.asarray(sample_std) * np.sqrt(2.0 * rho * log_term / n) + (
        kappa * np.asarray(value_range) * log_term / n
    )


def clt_radius_batch(n, delta: float, sample_std) -> np.ndarray:
    """Broadcasted :func:`clt_radius` (nominal, not guaranteed).

    Args:
        n: Sample sizes (scalar or ndarray).
        delta: Nominal two-sided failure probability.
        sample_std: Empirical standard deviations (scalar or ndarray).

    Returns:
        The elementwise nominal interval half-widths.
    """
    _check_common(n, delta, value_range=0.0)
    _check_std(sample_std)
    n = np.asarray(n, dtype=float)
    return z_score(delta) * np.asarray(sample_std) / np.sqrt(n)
