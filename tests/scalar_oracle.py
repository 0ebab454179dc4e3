"""Scalar reference for the profiler's and experiments' batch kernels.

Re-draws every trial from its own ``child_rng(root, key, t)`` stream, with
no memo (a sweep unit's key is its draw key, the removal index in a cube;
a plan's is its setting index), and prices each ``(fraction, trial)``
slice with the public scalar estimators and
:class:`~repro.estimators.repair.ProfileRepair` — no prefix moments, no
batch kernels. Each function is a drop-in for one work-unit runner, so
:func:`install` swaps the oracle under the product's seeded entry points
and a test compares the two runs within 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.core.profiler import PointEstimate, SweptGrid
from repro.estimators.dispatch import estimate_query
from repro.estimators.quantile import SmokescreenQuantileEstimator
from repro.estimators.repair import ProfileRepair
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.variance import SmokescreenVarianceEstimator
from repro.experiments import trials as trials_module
from repro.experiments.metrics import true_error
from repro.interventions.plan import InterventionPlan
from repro.query.processor import QueryProcessor
from repro.stats.sampling import ProgressiveSampler, SampleDesign
from repro.system.executor import PlanUnit, SweepUnit, child_rng


def _estimate(query, values, universe_size):
    """The basic Smokescreen estimate, SUM/COUNT scaled to the corpus."""
    aggregate = query.aggregate
    if aggregate.is_mean_family:
        estimate = SmokescreenMeanEstimator().estimate(
            values, universe_size, query.delta,
            value_range=query.known_value_range,
        )
        if aggregate.name in ("SUM", "COUNT"):
            return estimate.scaled(query.dataset.frame_count)
        return estimate
    if aggregate.is_variance:
        return SmokescreenVarianceEstimator().estimate(
            values, universe_size, query.delta
        )
    return SmokescreenQuantileEstimator().estimate(
        values, universe_size, query.effective_quantile, query.delta, aggregate
    )


def price(query, values, universe_size, plan_is_random, correction_values):
    """One trial's ``(value, bound)`` under the correction-set policy."""
    basic = _estimate(query, values, universe_size)
    if correction_values is None:
        return basic.value, basic.error_bound
    reference = _estimate(query, correction_values, query.dataset.frame_count)
    if query.aggregate.is_mean_family or query.aggregate.is_variance:
        corrected = ProfileRepair.corrected_mean_bound(basic.value, reference)
    else:
        corrected = ProfileRepair.corrected_quantile_bound(
            basic.value, reference.value, correction_values,
            query.effective_quantile, reference,
        )
    if plan_is_random:
        corrected = min(basic.error_bound, corrected)
    return basic.value, corrected


def _is_random(query, plan):
    if getattr(query.model, "requires_sequence", False):
        return False
    return plan.is_random_for(query.dataset)


def _charged(query, resolution, quality):
    """Whether new frames at a setting cost model invocations."""
    checker = getattr(query.model, "output_was_precomputed", None)
    return checker is None or not checker(query.dataset, resolution, quality)


def sweep_unit(unit: SweepUnit):
    """Scalar twin of :func:`repro.system.executor.run_sweep_unit`."""
    query = unit.query
    correction = unit.correction.values if unit.correction else None
    base = InterventionPlan.from_knobs(p=unit.resolution, c=unit.removal)
    eligible = base.eligible_indices(query.dataset, unit.suite)
    resolution = base.effective_resolution(query.dataset)
    full = QueryProcessor(unit.suite).frame_values(query, resolution, base.quality)
    sizes = [SampleDesign(eligible.size, f).size for f in unit.fractions]
    trial_indices = unit.trial_indices or range(unit.trials)
    samplers = [
        ProgressiveSampler(
            eligible.size, child_rng(unit.root, unit.unit_index, t),
            max_size=max(sizes),
        )
        for t in trial_indices
    ]
    is_random = _is_random(
        query,
        InterventionPlan.from_knobs(
            f=unit.fractions[0], p=unit.resolution, c=unit.removal
        ),
    )
    rows: list[tuple[int, np.ndarray, np.ndarray]] = []
    previous = None
    for size in sizes:
        priced = [
            price(query, full[eligible[sampler.prefix(size)]], eligible.size,
                  is_random, correction)
            for sampler in samplers
        ]
        values, bounds = (np.array(column) for column in zip(*priced))
        rows.append((size, values, bounds))
        tolerance = unit.early_stop_tolerance
        if (
            tolerance is not None
            and previous is not None
            and abs(previous - bounds.mean()) < tolerance
        ):
            break
        previous = bounds.mean()
    kept_sizes, values, bounds = zip(*rows)
    counts = {}
    if _charged(query, resolution, base.quality):
        counts[resolution.side] = kept_sizes[-1] * len(samplers)
    return SweptGrid(kept_sizes, np.stack(values), np.stack(bounds)), counts


def plan_unit(unit: PlanUnit):
    """Scalar twin of :func:`repro.system.executor.run_plan_unit`."""
    query = unit.query
    processor = QueryProcessor(unit.suite)
    correction = unit.correction.values if unit.correction else None
    is_random = _is_random(query, unit.plan)
    values, bounds, counts = [], [], {}
    sizes = []
    for t in range(unit.trials):
        sample = unit.plan.draw(
            query.dataset, child_rng(unit.root, unit.unit_index, t), unit.suite
        )
        value, bound = price(
            query, processor.values_for_sample(query, sample),
            sample.universe_size, is_random, correction,
        )
        values.append(value)
        bounds.append(bound)
        sizes.append(sample.size)
        if _charged(query, sample.resolution, sample.quality):
            side = sample.resolution.side
            counts[side] = counts.get(side, 0) + sample.size
    point = PointEstimate(
        value=float(np.mean(values)),
        error_bound=float(np.mean(bounds)),
        n=max(sizes),
    )
    return point, counts


def method_trials_chunk(chunk):
    """Scalar twin of :func:`trials.run_method_trials_chunk`."""
    processor, query = chunk.processor, chunk.query
    executions = [
        processor.execute(
            query, chunk.plan, child_rng(chunk.root, chunk.setting_index, t)
        )
        for t in chunk.trial_indices
    ]
    result = {}
    for method in chunk.methods:
        estimates = [estimate_query(query, e, method) for e in executions]
        result[method] = (
            np.array([estimate.error_bound for estimate in estimates]),
            np.array([
                true_error(processor, query, estimate.value)
                for estimate in estimates
            ]),
        )
    return result


def repair_trials_chunk(chunk):
    """Scalar twin of :func:`trials.run_repair_trials_chunk`."""
    processor, query = chunk.processor, chunk.query
    is_random = chunk.plan.is_random_for(query.dataset)
    rows = []
    for t in chunk.trial_indices:
        sample = chunk.plan.draw(
            query.dataset, child_rng(chunk.root, chunk.setting_index, t),
            processor.suite,
        )
        values = processor.values_for_sample(query, sample)
        value, basic = price(query, values, sample.universe_size, is_random, None)
        _, corrected = price(
            query, values, sample.universe_size, is_random,
            chunk.correction_values,
        )
        rows.append((
            trials_module.capped(basic),
            trials_module.capped(corrected),
            true_error(processor, query, value),
        ))
    return tuple(np.array(column) for column in zip(*rows))


def install(monkeypatch) -> None:
    """Route every seeded work unit through the scalar oracle."""
    monkeypatch.setattr("repro.core.profiler.run_sweep_unit", sweep_unit)
    monkeypatch.setattr("repro.core.profiler.run_plan_unit", plan_unit)
    monkeypatch.setattr(
        trials_module, "run_method_trials_chunk", method_trials_chunk
    )
    monkeypatch.setattr(
        trials_module, "run_repair_trials_chunk", repair_trials_chunk
    )


class EagerPrefixMoments:
    """Reference :class:`~repro.stats.prefix_moments.PrefixMoments`.

    Builds all six ``(trials, max_size)`` arrays up front — the values,
    the raw cumulative sum, the shifted cumulative sum and sum of squares,
    and the running extrema — and answers every query with a column
    slice. The product builds the shifted sums on first use and keeps
    running extrema; both must agree with this byte for byte.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        array = np.asarray(matrix, dtype=float)
        self._shift = array[:, 0].copy()
        shifted = array - self._shift[:, None]
        self._cumsum = np.cumsum(array, axis=1)
        self._scumsum = np.cumsum(shifted, axis=1)
        self._scumsq = np.cumsum(shifted * shifted, axis=1)
        self._cummin = np.minimum.accumulate(array, axis=1)
        self._cummax = np.maximum.accumulate(array, axis=1)

    def mean(self, n):
        return self._cumsum[:, n - 1] / n

    def second_moment(self, n):
        shifted = self._scumsq[:, n - 1] / n
        mean = self._cumsum[:, n - 1] / n
        return shifted + self._shift * (2.0 * mean - self._shift)

    def variance(self, n, ddof=0):
        shifted_mean = self._scumsum[:, n - 1] / n
        variance = np.maximum(
            self._scumsq[:, n - 1] / n - shifted_mean * shifted_mean, 0.0
        )
        if ddof:
            variance = variance * (n / (n - ddof))
        return variance

    def std(self, n, ddof=0):
        return np.sqrt(self.variance(n, ddof))

    def prefix_mean_matrix(self, n):
        t = np.arange(1, n + 1, dtype=float)
        return self._cumsum[:, :n] / t

    def prefix_variance_matrix(self, n):
        t = np.arange(1, n + 1, dtype=float)
        shifted_mean = self._scumsum[:, :n] / t
        return np.maximum(self._scumsq[:, :n] / t - shifted_mean**2, 0.0)

    def minimum(self, n):
        return self._cummin[:, n - 1]

    def maximum(self, n):
        return self._cummax[:, n - 1]

    def value_range(self, n):
        return self._cummax[:, n - 1] - self._cummin[:, n - 1]
