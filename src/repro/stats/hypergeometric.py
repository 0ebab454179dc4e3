"""Hypergeometric moments and the normal approximation used by Theorem 3.2.

When ``n`` frames are drawn without replacement from ``N`` and ``K`` of the
``N`` population items fall at-or-below a quantile cut, the number of sampled
items at-or-below the cut is hypergeometric. The paper's MAX/MIN error bound
(Theorem 3.2) rests on the classical normal approximation of that
distribution (Nicholson [50], Feller [19]).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def _check_population(population: int, n: int) -> None:
    if population <= 0:
        raise ConfigurationError(
            f"population must be positive, got {population}"
        )
    if not 0 <= n <= population:
        raise ConfigurationError(
            f"sample size {n} must lie in [0, population={population}]"
        )


def hypergeometric_mean(population: int, successes: int, n: int) -> float:
    """Mean of the hypergeometric count.

    Args:
        population: Population size ``N``.
        successes: Number of success items ``K`` in the population.
        n: Number of draws without replacement.

    Returns:
        ``n * K / N``.
    """
    _check_population(population, n)
    if not 0 <= successes <= population:
        raise ConfigurationError(
            f"successes {successes} must lie in [0, population={population}]"
        )
    return n * successes / population


def hypergeometric_variance(population: int, successes: int, n: int) -> float:
    """Variance of the hypergeometric count.

    ``n * (K/N) * (1 - K/N) * (N - n) / (N - 1)`` — the binomial variance
    shrunk by the finite-population correction factor ``(N - n) / (N - 1)``.

    Args:
        population: Population size ``N``.
        successes: Number of success items ``K``.
        n: Number of draws without replacement.

    Returns:
        The variance; zero when ``N == 1``.
    """
    _check_population(population, n)
    if not 0 <= successes <= population:
        raise ConfigurationError(
            f"successes {successes} must lie in [0, population={population}]"
        )
    if population == 1:
        return 0.0
    fraction = successes / population
    correction = (population - n) / (population - 1)
    return n * fraction * (1.0 - fraction) * correction


def z_score(delta: float) -> float:
    """Two-sided standard-normal critical value ``z_{delta/2}``.

    Args:
        delta: Two-sided failure probability, e.g. ``0.05`` for 95%.

    Returns:
        ``Phi^{-1}(1 - delta / 2)``, e.g. ``1.96`` for ``delta = 0.05``.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    # ``scipy.stats.norm.ppf`` is ``ndtri(q) * 1.0 + 0.0`` for the standard
    # normal, so this is the same float. Importing ``scipy.special`` on the
    # first call, rather than ``scipy.stats`` at module level, keeps scipy
    # off the import path of the CLI, the daemon and the sweeps.
    # ``statistics.NormalDist`` is no substitute: it differs from
    # ``norm.ppf`` in the last bits on most deltas.
    from scipy.special import ndtri

    return float(ndtri(1.0 - delta / 2.0))


def normal_approximation_interval(
    population: int, n: int, fraction: float, delta: float
) -> float:
    """Deviation radius of a sampled cumulative frequency (Theorem 3.2).

    Let ``F = fraction`` be a cumulative frequency in the population and
    ``F_hat`` its without-replacement sample analogue. Using the normal
    approximation of the hypergeometric distribution, with probability at
    least ``1 - delta``::

        |F_hat - F| <= z_{delta/2} * sqrt(F (1 - F)) * sqrt((N - n) / (n (N - 1)))

    The paper plugs ``fraction = r`` (MAX) or ``fraction = r + F_k`` (MIN)
    into this radius.

    Args:
        population: Population size ``N``.
        n: Number of draws without replacement; must be positive.
        fraction: The cumulative frequency whose binomial-style variance
            bounds the true variance; clipped to ``[0, 1]``.
        delta: Two-sided failure probability.

    Returns:
        The deviation radius; zero when ``N == 1`` or ``n == N``.
    """
    _check_population(population, n)
    if n == 0:
        raise ConfigurationError("sample size must be positive for the radius")
    clipped = min(max(fraction, 0.0), 1.0)
    if population == 1:
        return 0.0
    finite_pop = (population - n) / (n * (population - 1))
    return z_score(delta) * math.sqrt(clipped * (1.0 - clipped)) * math.sqrt(finite_pop)
