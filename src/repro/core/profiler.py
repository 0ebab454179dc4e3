"""Profile generation (paper §3.1, §3.3.2).

The :class:`DegradationProfiler` prices intervention candidates: for every
requested ``(f, p, c)`` setting it estimates the query answer and a tight
error bound, producing :class:`~repro.core.profile.Profile` curves or a
full :class:`~repro.core.profile.DegradationHypercube`.

Efficiency follows the paper's reuse strategy: for each (resolution,
removal) pair, sample fractions are evaluated in *ascending* order over a
nested (prefix) sample, so model outputs computed for a low fraction are
reused by every higher fraction, and the sweep can stop early once the
bound improves too slowly. Newly processed frames are recorded in an
optional :class:`~repro.system.costs.InvocationLedger` for cost accounting;
settings whose full-corpus outputs were served by the persistent detector
cache (:mod:`repro.detection.diskcache`) are already paid for and are not
recorded.

Every entry point is seeded: trial ``t`` of draw key ``k`` draws from
:func:`repro.system.executor.child_rng` keyed on ``(root, k, t)``, so a
result is a pure function of the root seed -- independent of evaluation
order and therefore of the worker count when a
:class:`~repro.system.executor.ParallelExecutor` fans settings out over
processes. :func:`~repro.system.executor.child_rngs` builds a unit's
trial generators together, hashing their seed words in one numpy pass.
A plan's key is its setting index. A sweep's key is its removal index
``ci``: resolution never changes the eligible frames, so every
resolution of one removal shares one draw per trial
(:func:`trial_orderings`), and the cube's resolution cells are paired --
they compare answers over the same frames.

A sweep prices its whole fraction grid in one pass. Because prefix
samples are nested, ``full[eligible[perm[:n]]]`` equals
``(full[eligible][perm])[:n]``: each trial's ordering (a view, not a
copy) gathers once through ``full[eligible]`` into its row of one
``(trials, max_size)``
:class:`~repro.stats.prefix_moments.PrefixMoments` matrix. One
:func:`~repro.estimators.dispatch.estimate_batch` call then prices every
fraction as a ``(fractions, trials)`` grid from the cumulative sums and
the running extrema, so a setting costs O(trials x n) of numpy work
instead of O(trials x fractions x n) of Python-level estimator calls. A
single plan's trials share their sample size and eligible universe, so
they stack the same way and price as the one-row grid. A scalar oracle
in the test suite re-draws every trial and prices each
``(fraction, trial)`` slice with the public estimators; the kernels agree
with it within 1e-9, with identical ledger totals and early-stop
decisions.

Pricing goes through :mod:`repro.estimators.dispatch`, the one pricing
route: :func:`~repro.estimators.dispatch.estimate_batch` picks the
estimator and scales SUM/COUNT, and
:func:`~repro.estimators.dispatch.corrected_bounds` applies the
correction-set policy per setting:

- plan with only random interventions: the basic Smokescreen bound; if a
  correction set is supplied, the tighter of the basic and corrected
  bounds (§5.2.2, first row of Figure 6).
- plan with non-random interventions: the corrected bound when a
  correction set is supplied; otherwise the (possibly invalid) uncorrected
  bound — kept available because the experiments compare both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateGrid
from repro.core.correction import CorrectionSet
from repro.core.profile import DegradationHypercube, Profile, ProfilePoint
from repro.errors import ConfigurationError
from repro.estimators import dispatch
from repro.interventions.plan import InterventionPlan
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments
from repro.stats.sampling import ProgressiveSampler, SampleDesign
from repro.system import telemetry
from repro.system.costs import InvocationLedger
from repro.system.executor import (
    ParallelExecutor,
    PlanUnit,
    RootSeed,
    SweepUnit,
    child_rngs,
    merge_ledger_counts,
    normalize_root,
    run_plan_unit,
    run_sweep_unit,
    trial_chunks,
)
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


@functools.lru_cache(maxsize=1)
def trial_orderings(
    root: tuple[int, ...],
    ci: int,
    trial_indices: tuple[int, ...],
    population: int,
    max_size: int,
) -> tuple[np.ndarray, ...]:
    """Each trial's ordering of a sweep's eligible frames, drawn once.

    Trial ``t`` draws ``max_size`` of ``population`` indices with a
    :class:`~repro.stats.sampling.ProgressiveSampler` over ``child_rng(root,
    ci, t)``. The result is a pure function of the arguments, so the
    one-entry memo changes no output: it lets every resolution of one
    removal reuse the draw while a removal-major cube (serial, or a pool
    worker's run of units) sweeps them. It retains one ``(trials,
    max_size)`` set of int64 indices per process.

    Args:
        root: Normalised root entropy.
        ci: The draw key (first spawn-key coordinate): a cube's removal
            index.
        trial_indices: The trial coordinates, in row order.
        population: The eligible universe size.
        max_size: The sweep's largest sample size.

    Returns:
        One read-only ordering view per trial, shared by every caller.
    """
    return tuple(
        ProgressiveSampler(population, rng, max_size).ordering
        for rng in child_rngs(root, ci, trial_indices)
    )


@dataclass(frozen=True)
class PointEstimate:
    """Internal result for one degradation setting."""

    value: float
    error_bound: float
    n: int


@dataclass(frozen=True)
class SweptGrid:
    """Per-trial results over a sweep's kept fractions (pre-averaging).

    Keeping per-trial arrays (instead of running sums) lets callers that
    split trials across work units concatenate chunks in trial order and
    reduce over the full rows — the reduction then never depends on where
    the chunk boundaries fell. Rows are C-contiguous, so ``mean(axis=1)``
    sums each row exactly as a 1-d ``row.mean()`` does.

    Attributes:
        sizes: Sample size ``n`` at each kept fraction; early stopping
            keeps a leading run of the unit's ascending fractions.
        values: Per-trial estimate values, shape ``(len(sizes), trials)``,
            columns in trial order.
        bounds: Per-trial error bounds, same shape.
    """

    sizes: tuple[int, ...]
    values: np.ndarray
    bounds: np.ndarray


class DegradationProfiler:
    """Generates degradation-accuracy profiles for aggregate queries."""

    def __init__(
        self,
        processor: QueryProcessor,
        trials: int = 1,
        ledger: InvocationLedger | None = None,
    ) -> None:
        """Create a profiler.

        Args:
            processor: The query processor (owns model-output access).
            trials: Independent sampling trials averaged per setting;
                1 matches production use, larger values smooth the curves
                as the paper's experiments do (100 trials).
            ledger: Optional invocation ledger for cost accounting.
        """
        if trials <= 0:
            raise ConfigurationError(f"trials must be positive, got {trials}")
        self._processor = processor
        self._trials = trials
        self._ledger = ledger

    def _record_sampled(
        self,
        query: AggregateQuery,
        resolution: Resolution,
        quality: float,
        new_frames: int,
    ) -> None:
        """Account for newly sampled frames at a setting.

        Frames are free when the model's full-corpus outputs at this
        (resolution, quality) were served by the persistent detector cache
        — an earlier run already paid for them. Outputs evaluated in this
        process still charge per sampled frame: that is the paper's §5.3.1
        accounting of the in-process reuse strategy.
        """
        if self._ledger is None or new_frames <= 0:
            return
        if self._setting_precomputed(query, resolution, quality):
            return
        telemetry.count("profiler.frames_invoked", new_frames)
        self._ledger.record(resolution.side, new_frames)

    @staticmethod
    def _setting_precomputed(
        query: AggregateQuery, resolution: Resolution, quality: float
    ) -> bool:
        checker = getattr(query.model, "output_was_precomputed", None)
        if checker is None:
            return False
        return bool(checker(query.dataset, resolution, quality))

    @staticmethod
    def _plan_is_random(query: AggregateQuery, plan: InterventionPlan) -> bool:
        """Randomness classification, accounting for sequence models.

        For models that process frame sequences (paper §7), reduced frame
        sampling changes the model's inputs and is therefore *not* a random
        intervention; the basic bounds must not be trusted for them.
        """
        if getattr(query.model, "requires_sequence", False):
            return False
        return plan.is_random_for(query.dataset)

    @staticmethod
    def _estimate_prefix_batch(
        query: AggregateQuery,
        moments: PrefixMoments,
        sizes: tuple[int, ...],
        universe_size: int,
        plan_is_random: bool,
        correction: CorrectionSet | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Price every trial row at each of the ascending ``sizes`` at once.

        Returns:
            ``(len(sizes), trials)`` C-contiguous ``(values, bounds)``
            arrays, columns aligned with the rows.
        """
        batch = dispatch.estimate_batch(
            query, moments, sizes, universe_size, query.dataset.frame_count
        )
        bounds = batch.error_bounds
        if correction is not None:
            bounds = dispatch.corrected_bounds(
                query, batch, correction.values, plan_is_random
            )
        return np.ascontiguousarray(batch.values), np.ascontiguousarray(bounds)

    def estimate_plan_seeded(
        self,
        query: AggregateQuery,
        plan: InterventionPlan,
        root: RootSeed,
        unit_index: int,
        correction: CorrectionSet | None = None,
    ) -> PointEstimate:
        """Price one setting with per-trial seed streams.

        Trial ``t`` draws its sample from ``child_rng(root, unit_index,
        t)``, so the result is a pure function of ``(root, unit_index)`` —
        independent of evaluation order, process, or sibling settings.

        Args:
            query: The query to profile.
            plan: The degradation setting.
            root: Root entropy of the seed stream.
            unit_index: This setting's index (first spawn-key coordinate).
            correction: Optional correction set for repair.

        Returns:
            The averaged value/bound at the setting, with the trials'
            shared sample size ``n``.
        """
        plan_is_random = self._plan_is_random(query, plan)
        with telemetry.span("profiler.plan", unit=unit_index, trials=self._trials):
            samples = []
            for rng in child_rngs(root, unit_index, range(self._trials)):
                sample = plan.draw(query.dataset, rng, self._processor.suite)
                self._record_sampled(
                    query, sample.resolution, sample.quality, sample.size
                )
                samples.append(sample)
            telemetry.count("profiler.trials_priced", self._trials)
            # Trials of one plan share the sample size and the eligible
            # universe, so their samples stack into one prefix matrix.
            matrix = np.stack(
                [
                    self._processor.values_for_sample(query, sample)
                    for sample in samples
                ]
            )
            n = matrix.shape[1]
            values, bounds = self._estimate_prefix_batch(
                query, PrefixMoments(matrix), (n,), samples[0].universe_size,
                plan_is_random, correction,
            )
        return PointEstimate(
            value=float(values[0].mean()),
            error_bound=float(bounds[0].mean()),
            n=int(n),
        )

    def sweep_fractions_seeded(
        self,
        query: AggregateQuery,
        fractions: tuple[float, ...],
        resolution: Resolution | None,
        removal: tuple[ObjectClass, ...],
        correction: CorrectionSet | None,
        root: RootSeed,
        unit_index: int,
        trial_indices: tuple[int, ...],
        early_stop_tolerance: float | None = None,
    ) -> SweptGrid:
        """One (resolution, removal) fraction sweep with seeded trials.

        Trial ``t`` orders the eligible universe with ``child_rng(root,
        unit_index, t)`` through :func:`trial_orderings`; results are
        independent of which process runs the sweep, which other trials
        it shares the unit with, and whether the memo served the draw.

        The unit is priced in one pass. Each trial's ordering gathers
        once through ``full_values[eligible]`` into its row of the maximal
        prefix matrix; every fraction's values are a prefix of it (prefix
        samples are nested), so one
        :class:`~repro.stats.prefix_moments.PrefixMoments` and one
        ``estimate_batch`` call price the whole ascending grid. Early
        stopping then truncates the priced grid, and the ledger records
        the kept fractions' frames in one call: all trials share the size
        trajectory, so it is the last kept size times the trial count.

        Args:
            query: The query to profile.
            fractions: Strictly ascending fraction candidates.
            resolution: Fixed resolution knob (None = native).
            removal: Fixed restricted classes.
            correction: Optional correction set.
            root: Root entropy of the seed stream.
            unit_index: The draw key (first spawn-key coordinate); a cube
                passes the removal index, so its resolutions share it.
            trial_indices: The trial coordinates this call evaluates.
            early_stop_tolerance: Stop the sweep when the mean bound over
                *these* trials improves by less than this; pass None when
                trials are split across units (the caller truncates after
                merging, on the all-trials mean).

        Returns:
            Per-fraction per-trial results, columns in ``trial_indices``
            order; fractions skipped by early stopping are absent.
        """
        fractions = tuple(fractions)
        if any(low >= high for low, high in zip(fractions, fractions[1:])):
            raise ConfigurationError(
                f"fractions must be strictly ascending for reuse, got {fractions}"
            )
        trials = len(trial_indices)
        if not fractions:
            empty = np.empty((0, trials))
            return SweptGrid(sizes=(), values=empty, bounds=empty)
        with telemetry.span(
            "profiler.sweep",
            resolution=resolution.side if resolution is not None else "native",
            removal=len(removal),
            fractions=len(fractions),
            trials=trials,
        ):
            base_plan = InterventionPlan.from_knobs(p=resolution, c=removal)
            eligible = base_plan.eligible_indices(
                query.dataset, self._processor.suite
            )
            effective_resolution = base_plan.effective_resolution(query.dataset)
            quality = base_plan.quality
            sizes = tuple(SampleDesign(eligible.size, f).size for f in fractions)
            max_size = max(sizes)
            # Each trial draws only the prefix the sweep can consume.
            orderings = trial_orderings(
                normalize_root(root), unit_index, tuple(trial_indices),
                eligible.size, max_size,
            )
            with telemetry.span(
                "profiler.gather", eligible=int(eligible.size), max_size=max_size
            ):
                eligible_values = self._processor.frame_values(
                    query, effective_resolution, quality
                )[eligible]
                # Row t is exactly full_values[eligible[orderings[t]]]. A
                # gather per row into one matrix skips stacking the
                # orderings and runs several times faster than one 2-d
                # fancy index.
                value_matrix = np.empty((trials, max_size), eligible_values.dtype)
                for row, ordering in zip(value_matrix, orderings):
                    np.take(eligible_values, ordering, out=row)
            # The fraction knob never changes the randomness classification
            # (frame sampling is always the random intervention), so
            # classify the setting once.
            plan_is_random = self._plan_is_random(
                query,
                InterventionPlan.from_knobs(
                    f=fractions[0], p=resolution, c=removal
                ),
            )
            with telemetry.span(
                "profiler.price", trials=trials, fractions=len(fractions)
            ):
                values, bounds = self._estimate_prefix_batch(
                    query, PrefixMoments(value_matrix), sizes,
                    int(eligible.size), plan_is_random, correction,
                )
            kept = len(sizes)
            if early_stop_tolerance is not None:
                mean_bounds = bounds.mean(axis=1).tolist()
                for index in range(1, kept):
                    if abs(mean_bounds[index - 1] - mean_bounds[index]) < (
                        early_stop_tolerance
                    ):
                        telemetry.count("profiler.early_stop")
                        kept = index + 1
                        break
            # Ascending fractions give non-decreasing sizes, so the kept
            # fractions charge the frames of the last one's prefix.
            self._record_sampled(
                query, effective_resolution, quality, sizes[kept - 1] * trials
            )
            telemetry.count("profiler.trials_priced", kept * trials)
            return SweptGrid(
                sizes=sizes[:kept], values=values[:kept], bounds=bounds[:kept]
            )

    # ------------------------------------------------------------------
    # Seeded, parallelizable profile generation.
    #
    # Results are a pure function of (query, settings, root): the same
    # bits come back for any worker count, any unit scheduling, and the
    # serial fallback. Work units run against fresh ledgers; their counts
    # are merged into this profiler's ledger in unit order.
    # ------------------------------------------------------------------

    def profile_sampling_seeded(
        self,
        query: AggregateQuery,
        fractions: tuple[float, ...],
        root: RootSeed,
        resolution: Resolution | None = None,
        removal: tuple[ObjectClass, ...] = (),
        correction: CorrectionSet | None = None,
        early_stop_tolerance: float | None = None,
        executor: ParallelExecutor | None = None,
    ) -> Profile:
        """Sampling-axis profile with seeded trials, parallel over trials.

        Trials are split into contiguous chunks (one work unit each); every
        trial keeps its own seed stream, so chunking is invisible to the
        result. Early stopping is applied *after* merging, on the
        all-trials mean bound — the kept points are exactly those the
        incremental strategy keeps, but the ledger reflects the full sweep
        (each unit cannot see the other units' bounds mid-flight).

        Args:
            query: The query.
            fractions: Ascending fraction candidates.
            root: Root entropy of the seed stream.
            resolution: Fixed resolution knob (None = native).
            removal: Fixed restricted classes.
            correction: Optional correction set.
            early_stop_tolerance: Post-hoc truncation threshold; None
                disables.
            executor: Execution substrate; defaults to serial.

        Returns:
            The sampling-axis profile.
        """
        executor = executor or ParallelExecutor()
        root_t = normalize_root(root)
        fractions = tuple(fractions)
        chunks = trial_chunks(self._trials, executor.worker_count(self._trials))
        units = [
            SweepUnit(
                query=query,
                fractions=fractions,
                resolution=resolution,
                removal=tuple(removal),
                correction=correction,
                trials=self._trials,
                root=root_t,
                unit_index=0,
                trial_indices=tuple(chunk),
                early_stop_tolerance=None,
                suite=self._processor.suite,
            )
            for chunk in chunks
        ]
        with telemetry.span(
            "profiler.profile_sampling", units=len(units), trials=self._trials
        ):
            outcomes = executor.map(run_sweep_unit, units)
        for _, counts in outcomes:
            merge_ledger_counts(self._ledger, counts)
        # Trial chunks in trial order: row f holds fraction f's trials.
        grids = [swept for swept, _ in outcomes]
        values = np.concatenate([grid.values for grid in grids], axis=1)
        bounds = np.concatenate([grid.bounds for grid in grids], axis=1)
        mean_values = values.mean(axis=1).tolist()
        mean_bounds = bounds.mean(axis=1).tolist()

        points: list[ProfilePoint] = []
        previous_bound: float | None = None
        for idx, fraction in enumerate(fractions):
            bound = mean_bounds[idx]
            points.append(
                ProfilePoint(
                    plan=InterventionPlan.from_knobs(
                        f=fraction, p=resolution, c=tuple(removal)
                    ),
                    error_bound=bound,
                    value=mean_values[idx],
                    n=grids[0].sizes[idx],
                )
            )
            if (
                early_stop_tolerance is not None
                and previous_bound is not None
                and abs(previous_bound - bound) < early_stop_tolerance
            ):
                telemetry.count("profiler.early_stop")
                break
            previous_bound = bound
        return Profile(
            axis="sampling", points=tuple(points), query_label=query.label()
        )

    def _profile_plans_seeded(
        self,
        query: AggregateQuery,
        axis: str,
        plans: list[InterventionPlan],
        root: RootSeed,
        correction: CorrectionSet | None,
        executor: ParallelExecutor | None,
    ) -> Profile:
        """Price a list of settings as one plan unit each."""
        executor = executor or ParallelExecutor()
        root_t = normalize_root(root)
        units = [
            PlanUnit(
                query=query,
                plan=plan,
                correction=correction,
                trials=self._trials,
                root=root_t,
                unit_index=i,
                suite=self._processor.suite,
            )
            for i, plan in enumerate(plans)
        ]
        outcomes = executor.map(run_plan_unit, units)
        points = []
        for plan, (point, counts) in zip(plans, outcomes):
            merge_ledger_counts(self._ledger, counts)
            points.append(
                ProfilePoint(
                    plan=plan,
                    error_bound=point.error_bound,
                    value=point.value,
                    n=point.n,
                )
            )
        return Profile(axis=axis, points=tuple(points), query_label=query.label())

    def profile_resolution_seeded(
        self,
        query: AggregateQuery,
        resolutions: tuple[Resolution, ...],
        root: RootSeed,
        fraction: float = 0.5,
        removal: tuple[ObjectClass, ...] = (),
        correction: CorrectionSet | None = None,
        executor: ParallelExecutor | None = None,
    ) -> Profile:
        """Resolution-axis profile with seeded trials, parallel over settings.

        Args:
            query: The query.
            resolutions: Resolution candidates (ascending side order).
            root: Root entropy of the seed stream.
            fraction: Fixed sampling fraction.
            removal: Fixed restricted classes.
            correction: Optional correction set.
            executor: Execution substrate; defaults to serial.

        Returns:
            The resolution-axis profile.
        """
        plans = [
            InterventionPlan.from_knobs(f=fraction, p=resolution, c=tuple(removal))
            for resolution in resolutions
        ]
        return self._profile_plans_seeded(
            query, "resolution", plans, root, correction, executor
        )

    def profile_removal_seeded(
        self,
        query: AggregateQuery,
        removals: tuple[tuple[ObjectClass, ...], ...],
        root: RootSeed,
        fraction: float = 0.5,
        resolution: Resolution | None = None,
        correction: CorrectionSet | None = None,
        executor: ParallelExecutor | None = None,
    ) -> Profile:
        """Removal-axis profile with seeded trials, parallel over settings.

        Args:
            query: The query.
            removals: Restricted-class combinations; ``()`` = no removal.
            root: Root entropy of the seed stream.
            fraction: Fixed sampling fraction.
            resolution: Fixed resolution knob (None = native).
            correction: Optional correction set.
            executor: Execution substrate; defaults to serial.

        Returns:
            The removal-axis profile.
        """
        plans = [
            InterventionPlan.from_knobs(f=fraction, p=resolution, c=tuple(combo))
            for combo in removals
        ]
        return self._profile_plans_seeded(
            query, "removal", plans, root, correction, executor
        )

    def generate_hypercube_seeded(
        self,
        query: AggregateQuery,
        candidates: CandidateGrid,
        root: RootSeed,
        correction: CorrectionSet | None = None,
        early_stop_tolerance: float | None = None,
        executor: ParallelExecutor | None = None,
    ) -> DegradationHypercube:
        """Price the candidate grid, parallel over (resolution, removal).

        Each (removal, resolution) pair is one work unit sweeping the
        fraction axis with all trials inside it, so early stopping keeps
        its incremental semantics per unit. Units run removal-major, and
        every unit of removal ``ci`` seeds trial ``t`` from
        ``child_rng(root, ci, t)``: removal alone fixes the eligible
        frames, so the resolutions of a removal share one draw
        (:func:`trial_orderings`) and each cell ``(ri, ci)`` is the
        standalone seeded sweep at draw key ``ci``.

        Args:
            query: The query.
            candidates: The candidate grid.
            root: Root entropy of the seed stream.
            correction: Optional correction set.
            early_stop_tolerance: Early-stop threshold for the fraction
                sweeps; None disables.
            executor: Execution substrate; defaults to serial.

        Returns:
            The degradation hypercube (bit-identical for any worker count).
        """
        executor = executor or ParallelExecutor()
        root_t = normalize_root(root)
        cells = [
            (ri, ci)
            for ci in range(len(candidates.removals))
            for ri in range(len(candidates.resolutions))
        ]
        units = [
            SweepUnit(
                query=query,
                fractions=tuple(candidates.fractions),
                resolution=candidates.resolutions[ri],
                removal=tuple(candidates.removals[ci]),
                correction=correction,
                trials=self._trials,
                root=root_t,
                unit_index=ci,
                early_stop_tolerance=early_stop_tolerance,
                suite=self._processor.suite,
            )
            for ri, ci in cells
        ]
        with telemetry.span(
            "profiler.hypercube", units=len(units), trials=self._trials
        ):
            outcomes = executor.map(run_sweep_unit, units)

        shape = (
            len(candidates.fractions),
            len(candidates.resolutions),
            len(candidates.removals),
        )
        bounds = np.full(shape, math.nan)
        values = np.full(shape, math.nan)
        for (ri, ci), (swept, counts) in zip(cells, outcomes):
            merge_ledger_counts(self._ledger, counts)
            # Early stopping keeps a leading run of the fractions.
            kept = len(swept.sizes)
            bounds[:kept, ri, ci] = swept.bounds.mean(axis=1)
            values[:kept, ri, ci] = swept.values.mean(axis=1)
        return DegradationHypercube(
            fractions=candidates.fractions,
            resolutions=candidates.resolutions,
            removals=candidates.removals,
            bounds=bounds,
            values=values,
            query_label=query.label(),
        )
