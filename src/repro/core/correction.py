"""Correction-set construction (paper §3.3.1).

The correction set is a without-replacement sample of the *original* corpus
(random interventions only: native resolution, no removal) used by profile
repair. It should be as small as possible — it is the one place profiling
touches lightly-degraded video — but large enough that its own error bound
``err_b(v)`` is tight, since the corrected bound inherits it.

The paper's heuristic finds the elbow of ``err_b(v)`` versus the set size
``m``: grow the set by 1% of the corpus at a time and stop once the bound's
improvement over the previous step falls below 2% (or a size limit is hit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.dispatch import estimate_values
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.sampling import ProgressiveSampler
from repro.system.executor import child_rng


@dataclass(frozen=True)
class CorrectionSet:
    """A constructed correction set and its sizing trace.

    Attributes:
        frame_indices: The sampled frame indices (nested prefix order, so
            any prefix is itself a valid smaller correction set).
        values: Aggregate input values on those frames at native
            resolution and full quality.
        error_bound: The set's own bound ``err_b(v)`` at the final size.
        trace: The sizing trace as ``(size, error_bound)`` pairs, one per
            growth step — the curve of Figure 9.
    """

    frame_indices: np.ndarray
    values: np.ndarray
    error_bound: float
    trace: tuple[tuple[int, float], ...]

    @property
    def size(self) -> int:
        """The chosen correction-set size ``m``."""
        return int(self.frame_indices.size)

    def fraction(self, population: int) -> float:
        """The chosen size as a fraction of the corpus length."""
        return self.size / population


def determine_correction_set(
    processor: QueryProcessor,
    query: AggregateQuery,
    root: int,
    growth_step: float = 0.01,
    tolerance: float = 0.02,
    size_limit: int | None = None,
) -> CorrectionSet:
    """Size and draw a correction set by the paper's elbow heuristic.

    The set grows by ``growth_step`` of the corpus per step; after each
    step the set's own error bound is computed with the Smokescreen
    estimator matching the query's aggregate, and growth stops when the
    bound improved by less than ``tolerance`` — the elbow — or the size
    limit is reached.

    Args:
        processor: Query processor (supplies native-resolution values).
        query: The query the correction set will repair bounds for.
        root: Root seed; the without-replacement sample is the root
            stream ``child_rng(root)``, so one root gives one nested
            sample whatever the query.
        growth_step: Step size as a corpus fraction (paper: 1%).
        tolerance: Stop when the bound's step-to-step improvement is below
            this (paper: 2%).
        size_limit: Administrator-imposed maximum size (an integer >= 1),
            or None for no limit.

    Returns:
        The constructed correction set with its sizing trace.
    """
    if not 0.0 < growth_step <= 1.0:
        raise ConfigurationError(f"growth step must lie in (0, 1], got {growth_step}")
    if tolerance < 0.0:
        raise ConfigurationError(f"tolerance must be non-negative, got {tolerance}")
    if size_limit is not None and (
        isinstance(size_limit, bool)
        or not isinstance(size_limit, (int, np.integer))
        or size_limit < 1
    ):
        raise ConfigurationError(
            f"size_limit must be None or an integer >= 1, got {size_limit!r}"
        )

    population = query.dataset.frame_count
    step_frames = max(1, int(round(population * growth_step)))
    limit = population if size_limit is None else min(size_limit, population)

    sampler = ProgressiveSampler(population, child_rng(root))
    full_values = processor.true_values(query)

    trace: list[tuple[int, float]] = []
    size = 0
    previous_bound: float | None = None
    while True:
        size = min(size + step_frames, limit)
        indices = sampler.prefix(size)
        values = full_values[indices]
        bound = estimate_values(query, values, population, population).error_bound
        trace.append((size, bound))
        at_limit = size >= limit
        at_elbow = (
            previous_bound is not None and abs(previous_bound - bound) < tolerance
        )
        if at_limit or at_elbow:
            break
        previous_bound = bound

    indices = sampler.prefix(size)
    return CorrectionSet(
        frame_indices=indices,
        values=full_values[indices],
        error_bound=trace[-1][1],
        trace=tuple(trace),
    )
