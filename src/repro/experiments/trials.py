"""Shared trial machinery for the figure experiments.

Every §5 experiment repeats its workload over independent sampling trials
(100 in the paper) and averages. The helpers here draw one degraded sample
per trial and feed the *same* sample to every method, which is both faster
(model outputs are cached) and a fairer comparison (methods differ only in
their estimation, not their luck).

Trials are priced together through :mod:`repro.estimators.dispatch`, the
one pricing route: a setting's trial samples share their size and
universe, so they stack into one prefix-moment matrix, each method is
priced for all trials by one batch call, and a correction set repairs
every trial's bound in one more call.

The ``*_seeded`` entry points give every trial its own
:func:`~repro.system.executor.child_rng` stream keyed on
``(setting_index, trial)``, which makes the summaries a pure function of
the root seed — independent of trial order and therefore safe to fan out
over a :class:`~repro.system.executor.ParallelExecutor` in contiguous
trial chunks (workers return per-trial arrays; the reduction always runs
over the full concatenated array, so chunk boundaries are invisible).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.dispatch import corrected_bounds, estimate_batch
from repro.experiments.metrics import true_error
from repro.interventions.plan import InterventionPlan
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments
from repro.system.executor import (
    ParallelExecutor,
    RootSeed,
    child_rngs,
    normalize_root,
    trial_chunks,
)


@dataclass(frozen=True)
class TrialSummary:
    """Per-method summary of one degradation setting over many trials.

    Attributes:
        mean_bound: Mean (finite) error bound across trials.
        mean_true_error: Mean true error of the method's estimates.
        violation_rate: Fraction of trials with bound below true error.
    """

    mean_bound: float
    mean_true_error: float
    violation_rate: float


@dataclass(frozen=True)
class MethodTrialsChunk:
    """Picklable work unit: a contiguous run of seeded method trials.

    Attributes:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        methods: Estimator names to score.
        root: Root entropy of the seed stream.
        setting_index: First spawn-key coordinate of the setting.
        trial_indices: The trial coordinates this chunk evaluates.
    """

    processor: QueryProcessor
    query: AggregateQuery
    plan: InterventionPlan
    methods: tuple[str, ...]
    root: tuple[int, ...]
    setting_index: int
    trial_indices: tuple[int, ...]


def run_method_trials_chunk(
    chunk: MethodTrialsChunk,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Execute one chunk of seeded method trials (worker entry point).

    Returns per-trial ``(bounds, errors)`` arrays per method. The trial
    executions stack into one prefix-moment matrix and each method is
    priced once across all trials by
    :func:`repro.estimators.dispatch.estimate_batch`.
    """
    processor, query = chunk.processor, chunk.query
    executions = [
        processor.execute(query, chunk.plan, rng)
        for rng in child_rngs(
            chunk.root, chunk.setting_index, chunk.trial_indices
        )
    ]
    matrix = np.stack([execution.values for execution in executions])
    moments = PrefixMoments(matrix)
    per_method: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for method in chunk.methods:
        batch = estimate_batch(
            query,
            moments,
            (matrix.shape[1],),
            executions[0].universe_size,
            executions[0].population_size,
            method,
        )
        per_method[method] = (
            batch.error_bounds[0],
            _true_errors(processor, query, batch.values[0]),
        )
    return per_method


def _true_errors(
    processor: QueryProcessor, query: AggregateQuery, values: np.ndarray
) -> np.ndarray:
    """Per-trial true errors of the estimated answers."""
    return np.array(
        [true_error(processor, query, float(value)) for value in values]
    )


def run_method_trials_seeded(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    methods: tuple[str, ...],
    trials: int,
    root: RootSeed,
    setting_index: int = 0,
    executor: ParallelExecutor | None = None,
) -> dict[str, TrialSummary]:
    """Run one degradation setting for several methods over shared trials.

    Trial ``t`` draws its sample from ``child_rng(root, setting_index,
    t)``, so summaries are bit-identical for any worker count.

    Args:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        methods: Estimator names to score (all must fit the aggregate).
        trials: Number of independent sampling trials.
        root: Root entropy of the seed stream.
        setting_index: Distinguishes settings sharing one root (e.g. the
            fractions of a Figure 4 curve).
        executor: Execution substrate; defaults to serial.

    Returns:
        Per-method trial summaries.
    """
    executor = executor or ParallelExecutor()
    methods = tuple(methods)
    root_t = normalize_root(root)
    payloads = [
        MethodTrialsChunk(
            processor=processor,
            query=query,
            plan=plan,
            methods=methods,
            root=root_t,
            setting_index=setting_index,
            trial_indices=tuple(chunk),
        )
        for chunk in trial_chunks(trials, executor.worker_count(trials))
    ]
    results = executor.map(run_method_trials_chunk, payloads)
    summaries: dict[str, TrialSummary] = {}
    for method in methods:
        method_bounds = np.concatenate([result[method][0] for result in results])
        method_errors = np.concatenate([result[method][1] for result in results])
        finite = method_bounds[np.isfinite(method_bounds)]
        summaries[method] = TrialSummary(
            mean_bound=float(finite.mean()) if finite.size else float("inf"),
            mean_true_error=float(method_errors.mean()),
            violation_rate=float(np.mean(method_bounds < method_errors)),
        )
    return summaries


@dataclass(frozen=True)
class RepairTrialSummary:
    """Averages of one degradation setting's repair comparison.

    Attributes:
        uncorrected_bound: Mean basic bound (possibly invalid under
            non-random interventions).
        corrected_bound: Mean Algorithm 3 bound.
        true_error: Mean per-trial true error of the degraded estimates.
    """

    uncorrected_bound: float
    corrected_bound: float
    true_error: float


def _repair_trial_arrays(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    correction_values: np.ndarray,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (capped uncorrected, capped corrected, error) arrays.

    The trial samples stack into one prefix matrix, one
    :func:`~repro.estimators.dispatch.estimate_batch` call prices every
    trial's basic estimate, and one
    :func:`~repro.estimators.dispatch.corrected_bounds` call repairs them
    against the *fixed* correction set.
    """
    samples = [plan.draw(query.dataset, rng, processor.suite) for rng in rngs]
    matrix = np.stack(
        [processor.values_for_sample(query, sample) for sample in samples]
    )
    batch = estimate_batch(
        query,
        PrefixMoments(matrix),
        (matrix.shape[1],),
        samples[0].universe_size,
        query.dataset.frame_count,
    )
    corrected = corrected_bounds(
        query, batch, correction_values, plan.is_random_for(query.dataset)
    )
    return (
        np.minimum(batch.error_bounds[0], BOUND_DISPLAY_CAP),
        np.minimum(corrected[0], BOUND_DISPLAY_CAP),
        _true_errors(processor, query, batch.values[0]),
    )


@dataclass(frozen=True)
class RepairTrialsChunk:
    """Picklable work unit: a contiguous run of seeded repair trials.

    Attributes:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        correction_values: The correction set's values.
        root: Root entropy of the seed stream.
        setting_index: First spawn-key coordinate of the setting.
        trial_indices: The trial coordinates this chunk evaluates.
    """

    processor: QueryProcessor
    query: AggregateQuery
    plan: InterventionPlan
    correction_values: np.ndarray
    root: tuple[int, ...]
    setting_index: int
    trial_indices: tuple[int, ...]


def run_repair_trials_chunk(
    chunk: RepairTrialsChunk,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Execute one chunk of seeded repair trials (worker entry point)."""
    return _repair_trial_arrays(
        chunk.processor,
        chunk.query,
        chunk.plan,
        chunk.correction_values,
        child_rngs(chunk.root, chunk.setting_index, chunk.trial_indices),
    )


def run_repair_trials_seeded(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    correction_values: np.ndarray,
    trials: int,
    root: RootSeed,
    setting_index: int = 0,
    executor: ParallelExecutor | None = None,
) -> RepairTrialSummary:
    """Compare the basic and corrected bounds over seeded trials.

    Per trial: draw the degraded sample from ``child_rng(root,
    setting_index, t)``, compute the basic Smokescreen estimate and the
    Algorithm 3 corrected bound against a *fixed* correction set, and
    score the estimate's true error. When the plan is effectively random,
    the corrected bound reported is the tighter of the two (the §5.2.2
    policy).

    Args:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        correction_values: The correction set's values (native resolution).
        trials: Number of independent sampling trials.
        root: Root entropy of the seed stream.
        setting_index: Distinguishes settings sharing one root; settings
            that pass the same index (``SeedKey.TRIAL_PER_KNOB`` for the
            knobs of a figure row) share their trial draws on purpose.
        executor: Execution substrate; defaults to serial.

    Returns:
        The averaged summary (bit-identical for any worker count).
    """
    executor = executor or ParallelExecutor()
    root_t = normalize_root(root)
    payloads = [
        RepairTrialsChunk(
            processor=processor,
            query=query,
            plan=plan,
            correction_values=correction_values,
            root=root_t,
            setting_index=setting_index,
            trial_indices=tuple(chunk),
        )
        for chunk in trial_chunks(trials, executor.worker_count(trials))
    ]
    results = executor.map(run_repair_trials_chunk, payloads)
    uncorrected = np.concatenate([r[0] for r in results])
    corrected = np.concatenate([r[1] for r in results])
    error = np.concatenate([r[2] for r in results])
    return RepairTrialSummary(
        uncorrected_bound=float(uncorrected.mean()),
        corrected_bound=float(corrected.mean()),
        true_error=float(error.mean()),
    )


#: Display cap for degenerate bounds. A corrected bound is infinite when
#: the correction estimate itself degenerates (its interval touches zero);
#: the estimator reports that honestly, and the experiment tables clamp it
#: here so averages stay readable.
BOUND_DISPLAY_CAP = 5.0


def capped(bound: float, cap: float = BOUND_DISPLAY_CAP) -> float:
    """Clamp a (possibly infinite) bound for table averaging."""
    return min(bound, cap)


def fraction_grid(end_fraction: float, points: int = 8) -> tuple[float, ...]:
    """A sweep grid ending at a figure's cut-off fraction.

    The paper plots each Figure 4 curve from a very small fraction up to
    the point where it flattens; we use a geometric grid so the small-n
    region (where the methods differ most) is well resolved.

    Args:
        end_fraction: The largest fraction (the paper's cut-off).
        points: Number of grid points.

    Returns:
        Ascending fractions ending at ``end_fraction``.
    """
    start = end_fraction / 12.0
    grid = np.geomspace(start, end_fraction, points)
    return tuple(float(f) for f in grid)
