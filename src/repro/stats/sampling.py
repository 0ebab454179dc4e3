"""Sampling designs for the reduced-frame-sampling intervention.

The paper's random intervention draws frames *without replacement* (the
assumption behind the Hoeffding–Serfling inequality and the hypergeometric
quantile bound). Two extras matter for profile generation:

- :class:`SampleDesign` turns a sample *fraction* into a concrete sample
  *size* consistently everywhere (round-half-up, at least one frame when the
  fraction is positive).
- :class:`ProgressiveSampler` produces *nested* samples: the sample at a low
  fraction is a prefix of the sample at any higher fraction. This implements
  the reuse strategy of paper §3.3.2 — model outputs computed for a 1% sweep
  point are reused by the 2% point, and so on — and is what makes profile
  sweeps affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SampleDesign:
    """A without-replacement sampling plan over a finite frame universe.

    Attributes:
        population: Number of frames available to sample from.
        fraction: Sampling fraction ``f`` in ``(0, 1]``.
    """

    population: int
    fraction: float

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ConfigurationError(
                f"population must be positive, got {self.population}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"sample fraction must lie in (0, 1], got {self.fraction}"
            )

    @property
    def size(self) -> int:
        """Concrete sample size ``n = round(N * f)``, clamped to ``[1, N]``."""
        n = int(round(self.population * self.fraction))
        return max(1, min(n, self.population))


def stratified_time_sample(
    population: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """One frame per equal-length time stratum (paper §7's extension hook).

    Consecutive video frames are highly similar, so spreading a sample
    evenly across time captures more information per frame than simple
    random sampling: within-stratum homogeneity means the stratified mean
    has lower variance whenever the series is positively autocorrelated.
    The paper names exploiting this similarity as future work; the
    ``ablation-stratified`` experiment quantifies the gain.

    Note the Hoeffding–Serfling machinery assumes simple random sampling;
    the stratified design is an *estimator-quality* improvement whose
    bound validity is checked empirically, not proven.

    Args:
        population: Number of frames (the timeline length).
        size: Number of strata = sample size; must satisfy
            ``1 <= size <= population``.
        rng: Source of randomness for the within-stratum draws.

    Returns:
        One sampled frame index per stratum, in temporal order.
    """
    if population <= 0:
        raise ConfigurationError(f"population must be positive, got {population}")
    if not 1 <= size <= population:
        raise ConfigurationError(
            f"sample size {size} must lie in [1, population={population}]"
        )
    boundaries = np.linspace(0, population, size + 1)
    starts = np.floor(boundaries[:-1]).astype(np.int64)
    stops = np.maximum(np.floor(boundaries[1:]).astype(np.int64), starts + 1)
    stops = np.minimum(stops, population)
    offsets = rng.random(size)
    return (starts + np.floor(offsets * (stops - starts)).astype(np.int64)).clip(
        0, population - 1
    )


class ProgressiveSampler:
    """Nested without-replacement sampler enabling model-output reuse.

    A single random ordering of the universe is fixed up front; the sample
    at size ``n`` is simply its first ``n`` entries. Any prefix of a
    uniformly random ordering is itself a uniform without-replacement
    sample, so every prefix is a valid draw — while being nested, which is
    what lets profile generation (paper §3.3.2) evaluate sample fractions
    in ascending order and reuse all previously computed model outputs.

    When the caller knows the largest prefix it will ever request (a
    fraction sweep's top design size), ``max_size`` draws only that many
    indices — a uniformly *ordered* without-replacement draw, whose
    prefixes have exactly the same distribution as the full permutation's
    — for O(max_size) instead of O(population) setup. The two modes
    consume the generator differently, so a seeded sweep must pick one
    mode and keep it.
    """

    def __init__(
        self,
        population: int,
        rng: np.random.Generator,
        max_size: int | None = None,
    ) -> None:
        """Fix the random ordering.

        Args:
            population: Universe size; must be positive.
            rng: Source of randomness for the ordering.
            max_size: Largest prefix this sampler must serve; None (the
                default) keeps the full permutation.
        """
        if population <= 0:
            raise ConfigurationError(
                f"population must be positive, got {population}"
            )
        self._population = int(population)
        if max_size is None:
            self._permutation = rng.permutation(population)
        else:
            if not 1 <= max_size <= population:
                raise ConfigurationError(
                    f"max_size {max_size} must lie in [1, {population}]"
                )
            self._permutation = rng.choice(
                population, max_size, replace=False, shuffle=True
            )
        # Orderings are shared (a sweep memoises them across units), so
        # the array behind every view stays read-only.
        self._permutation.flags.writeable = False

    @property
    def population(self) -> int:
        """The universe size the ordering covers."""
        return self._population

    @property
    def max_size(self) -> int:
        """Largest prefix this sampler serves (== population by default)."""
        return int(self._permutation.size)

    @property
    def ordering(self) -> np.ndarray:
        """The whole fixed ordering, length :attr:`max_size` (read-only view).

        Every prefix sample is a prefix of it, so a sweep that consumes
        the largest prefix gathers through this view instead of copying
        one :meth:`prefix` per trial. The view cannot be made writeable.
        """
        return self._permutation.view()

    def prefix(self, size: int) -> np.ndarray:
        """The nested sample of the given size.

        Args:
            size: Number of indices; must satisfy ``0 <= size <= max_size``.

        Returns:
            The first ``size`` entries of the fixed ordering. The returned
            array is a copy, safe to mutate.
        """
        if not 0 <= size <= self.max_size:
            raise ConfigurationError(
                f"prefix size {size} must lie in [0, {self.max_size}]"
            )
        return self._permutation[:size].copy()
