"""Figure 9: correction-set size versus bound quality, and the elbow.

For two representative intervention sets on UA-DETRAC —
(f=0.1, 256x256, remove person) and (f=0.05, 320x320, remove face) — the
paper plots the corrected error bound against the correction-set fraction,
together with the fraction the §3.3.1 heuristic picks from the set's *own*
bound. Expected: bounds fall steeply then flatten, and the heuristic's
dotted line sits past the steep region of both curves — one size serves
every intervention set, so checking each set is unnecessary (§5.2.3).
"""

from __future__ import annotations

from repro.core.correction import CorrectionSet, determine_correction_set
from repro.core.profiler import DegradationProfiler
from repro.errors import ConfigurationError
from repro.estimators.dispatch import estimate_values
from repro.experiments.reporting import ExperimentResult
from repro.experiments.trials import BOUND_DISPLAY_CAP, capped
from repro.experiments.workloads import UA_DETRAC, Workload, shared_suite
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.stats.sampling import ProgressiveSampler
from repro.system.executor import SeedKey, child_rng
from repro.video.frame import ObjectClass

#: The two randomly selected representative intervention sets of §5.2.3.
INTERVENTION_SETS: tuple[InterventionPlan, ...] = (
    InterventionPlan.from_knobs(f=0.1, p=256, c=(ObjectClass.PERSON,)),
    InterventionPlan.from_knobs(f=0.05, p=320, c=(ObjectClass.FACE,)),
)


def run_fig9(
    dataset_name: str = UA_DETRAC,
    aggregate: Aggregate = Aggregate.AVG,
    trials: int = 50,
    frame_count: int | None = None,
    fractions: tuple[float, ...] | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate one Figure 9 panel (one aggregate).

    Args:
        dataset_name: The corpus (paper: UA-DETRAC).
        aggregate: AVG or MAX.
        trials: Sampling trials per point.
        frame_count: Optional reduced corpus size.
        fractions: Correction-set fractions to sweep; defaults to 1%..10%.
        seed: Randomness seed.

    Returns:
        Corrected bounds per intervention set over correction fractions,
        plus the set's own bound and the heuristic's determined fraction.
    """
    if aggregate not in (Aggregate.AVG, Aggregate.MAX):
        raise ConfigurationError("Figure 9 evaluates AVG and MAX only")
    workload = Workload(dataset_name, aggregate, frame_count)
    query = workload.query()
    processor = QueryProcessor(shared_suite())
    population = query.dataset.frame_count

    if fractions is None:
        fractions = tuple(round(0.01 * step, 4) for step in range(1, 11))

    # Nested samplers so a larger correction set extends a smaller one,
    # exactly like the heuristic's growth procedure; several independent
    # samplers are averaged so a single late-arriving extreme value does
    # not kink the curve.
    sampler_count = max(1, trials // 5)
    samplers = [
        ProgressiveSampler(
            population, child_rng(seed, SeedKey.CORRECTION_SAMPLER, i)
        )
        for i in range(sampler_count)
    ]
    full_values = processor.true_values(query)
    profiler = DegradationProfiler(processor, trials=max(1, trials // sampler_count))

    series: dict[str, list[float]] = {"own_bound": []}
    for index in range(len(INTERVENTION_SETS)):
        series[f"set{index + 1}_corrected_bound"] = []

    for fraction in fractions:
        size = max(1, round(population * fraction))
        own_sum = 0.0
        corrected_sums = [0.0] * len(INTERVENTION_SETS)
        for sampler in samplers:
            indices = sampler.prefix(size)
            values = full_values[indices]
            correction = CorrectionSet(
                frame_indices=indices,
                values=values,
                error_bound=float("nan"),
                trace=((size, float("nan")),),
            )
            own = estimate_values(query, values, population, population)
            own_sum += capped(own.error_bound)
            for index, plan in enumerate(INTERVENTION_SETS):
                # One key for every call: each correction set prices the
                # same trial draws, so the curves are paired.
                point = profiler.estimate_plan_seeded(
                    query, plan, seed, SeedKey.TRIAL_PER_KNOB, correction
                )
                corrected_sums[index] += capped(point.error_bound)
        series["own_bound"].append(own_sum / sampler_count)
        for index in range(len(INTERVENTION_SETS)):
            series[f"set{index + 1}_corrected_bound"].append(
                corrected_sums[index] / sampler_count
            )

    determined = determine_correction_set(processor, query, seed)
    determined_fraction = determined.fraction(population)

    return ExperimentResult(
        title=(
            f"Figure 9 panel: {workload.name} — corrected bound vs "
            f"correction-set fraction ({trials} trials)"
        ),
        knob_label="corr_fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "set1: f=0.1, 256x256, remove person; "
            "set2: f=0.05, 320x320, remove face",
            f"heuristic-determined correction fraction: "
            f"{determined_fraction:.2%} (the paper's dotted line)",
            f"degenerate (infinite) bounds clamped at {BOUND_DISPLAY_CAP}",
        ),
    )
