"""Intervention-candidate design (paper §3.3.2).

The system first enumerates many possible ``(f, p, c)`` settings: sample
fractions at 1% intervals, ten uniformly spaced frame resolutions, and all
combinations of the possibly sensitive classes. Administrators then filter
out candidates that cannot satisfy their degradation goals before the
profiler prices the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.video.dataset import VideoDataset
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution, resolution_grid


@dataclass(frozen=True)
class CandidateGrid:
    """The intervention candidates the profiler will price.

    Attributes:
        fractions: Sampling fractions, strictly ascending.
        resolutions: Resolutions, ascending side order (native last).
        removals: Restricted-class combinations; ``()`` means no removal.
    """

    fractions: tuple[float, ...]
    resolutions: tuple[Resolution, ...]
    removals: tuple[tuple[ObjectClass, ...], ...]

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ConfigurationError("candidate grid needs at least one fraction")
        if not self.resolutions:
            raise ConfigurationError("candidate grid needs at least one resolution")
        if not self.removals:
            raise ConfigurationError(
                "candidate grid needs at least one removal combination "
                "(use an empty tuple for 'no removal')"
            )
        fractions = self.fractions
        if any(low >= high for low, high in zip(fractions, fractions[1:])):
            raise ConfigurationError(
                f"fractions must be strictly ascending, got {self.fractions}"
            )
        sides = [resolution.side for resolution in self.resolutions]
        if sides != sorted(sides):
            raise ConfigurationError("resolutions must be in ascending side order")

    @property
    def cell_count(self) -> int:
        """Total number of grid cells."""
        return len(self.fractions) * len(self.resolutions) * len(self.removals)

    def filtered(
        self,
        min_fraction: float | None = None,
        max_fraction: float | None = None,
        max_resolution: Resolution | None = None,
        required_removed: tuple[ObjectClass, ...] = (),
    ) -> "CandidateGrid":
        """Apply administrator degradation goals to the grid (§3.1).

        Args:
            min_fraction: Drop fractions below this (accuracy floor).
            max_fraction: Drop fractions above this (degradation goal).
            max_resolution: Drop resolutions above this (privacy/legal
                goal, e.g. "nothing sharper than 256x256 leaves the
                camera").
            required_removed: Keep only combinations that remove at least
                these classes.

        Returns:
            The filtered grid.
        """
        fractions = tuple(
            f
            for f in self.fractions
            if (min_fraction is None or f >= min_fraction)
            and (max_fraction is None or f <= max_fraction)
        )
        resolutions = tuple(
            resolution
            for resolution in self.resolutions
            if max_resolution is None or resolution.side <= max_resolution.side
        )
        required = set(required_removed)
        removals = tuple(
            combo for combo in self.removals if required.issubset(set(combo))
        )
        return CandidateGrid(fractions, resolutions, removals)


def fraction_candidates(step: float = 0.01, maximum: float = 1.0) -> tuple[float, ...]:
    """Sampling fractions at fixed intervals (paper default: 1% steps).

    Args:
        step: Grid step; the paper uses 0.01.
        maximum: Largest fraction to include.

    Returns:
        Ascending fractions ``(step, 2*step, ..., <= maximum)``.
    """
    if not 0.0 < step <= 1.0:
        raise ConfigurationError(f"fraction step must lie in (0, 1], got {step}")
    if not step <= maximum <= 1.0:
        raise ConfigurationError(
            f"maximum fraction must lie in [{step}, 1], got {maximum}"
        )
    count = int(round(maximum / step))
    fractions = tuple(round(step * i, 10) for i in range(1, count + 1))
    return tuple(f for f in fractions if f <= maximum + 1e-12)


def removal_candidates(
    restricted: tuple[ObjectClass, ...] = (ObjectClass.PERSON, ObjectClass.FACE),
) -> tuple[tuple[ObjectClass, ...], ...]:
    """All combinations of the possibly sensitive classes, incl. none.

    Args:
        restricted: The classes an administrator might restrict.

    Returns:
        Every subset of ``restricted``, smallest first, starting with the
        empty (no-removal) combination.
    """
    combos: list[tuple[ObjectClass, ...]] = []
    for size in range(len(restricted) + 1):
        combos.extend(itertools.combinations(restricted, size))
    return tuple(combos)


def default_candidates(
    dataset: VideoDataset,
    fraction_step: float = 0.01,
    max_fraction: float = 1.0,
    resolution_count: int = 10,
    restricted: tuple[ObjectClass, ...] = (ObjectClass.PERSON, ObjectClass.FACE),
) -> CandidateGrid:
    """The paper's default candidate design for a corpus.

    Args:
        dataset: The corpus (supplies the native resolution).
        fraction_step: Sampling-fraction interval (paper: 1%).
        max_fraction: Largest fraction candidate.
        resolution_count: Number of uniformly spaced resolutions (paper: 10).
        restricted: Possibly sensitive classes (paper: person and face).

    Returns:
        The full candidate grid.
    """
    return CandidateGrid(
        fractions=fraction_candidates(fraction_step, max_fraction),
        resolutions=tuple(
            resolution_grid(dataset.native_resolution, resolution_count)
        ),
        removals=removal_candidates(restricted),
    )
