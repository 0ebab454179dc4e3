"""Extension experiment: sequence models break the random classification.

The paper's §7 warns that for frame-*sequence* models, reduced frame
sampling is not a random intervention — the model's inputs change with the
sampling pattern, so neither the basic bounds nor profile repair directly
apply. This experiment makes the failure measurable and evaluates a
pragmatic mitigation:

- **Workload**: a motion-event UDF (did the car count change between
  processed frames, :class:`~repro.detection.temporal.MotionEventDetector`)
  whose true answer is the share of motion frames over consecutive frames.
  Its output is bounded in [0, 1], so the naive bound gets *tight* while
  the sampling-gap bias stays — the sharpest failure.
- **Naive treatment**: pretend sampling is random and apply Algorithm 1 to
  the sampled flow values. Expected: sparse samples inflate the flow
  (distant frames decorrelate), the estimate is biased upward, and the
  "bound" is violated far more often than delta.
- **Window repair (heuristic)**: use several *contiguous* correction
  windows — consecutive frames preserve the sequence structure, so window
  flow values are unbiased, and spreading the budget over multiple windows
  at random positions tames the cluster variance a single window would
  have — and transfer their bound via Equation 12. This is an empirical
  mitigation without the paper's formal guarantee (windows are cluster
  samples, not an SRS), exactly the future-work gap §7 names; the
  experiment reports how well it does in practice.
"""

from __future__ import annotations

import numpy as np

from repro.detection.temporal import MotionEventDetector
from repro.estimators.repair import ProfileRepair
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.experiments.reporting import ExperimentResult
from repro.experiments.trials import capped
from repro.experiments.workloads import UA_DETRAC, load_dataset, model_for
from repro.system.executor import child_rng


def run_extension_temporal(
    dataset_name: str = UA_DETRAC,
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.4),
    window_fraction: float = 0.05,
    window_count: int = 8,
    seed: int = 0,
    delta: float = 0.05,
) -> ExperimentResult:
    """Quantify the §7 failure mode and the window-repair mitigation.

    Args:
        dataset_name: The corpus.
        trials: Trials per fraction.
        frame_count: Optional reduced corpus size.
        fractions: Sampling fractions to sweep.
        window_fraction: Total correction budget as a corpus fraction,
            split across the windows.
        window_count: Number of contiguous correction windows.
        seed: Randomness seed.
        delta: Nominal bound failure probability.

    Returns:
        Per fraction: naive bound/violations, window-repaired
        bound/violations, and the true error of the naive estimate.
    """
    dataset = load_dataset(dataset_name, frame_count)
    flow_model = MotionEventDetector(model_for(dataset_name))
    population = dataset.frame_count

    truth = float(flow_model.run(dataset).counts.mean())
    estimator = SmokescreenMeanEstimator()
    rng = child_rng(seed)
    window_length = max(2, round(population * window_fraction / window_count))

    series: dict[str, list[float]] = {
        "naive_bound": [],
        "naive_violation_pct": [],
        "true_error": [],
        "window_bound": [],
        "window_violation_pct": [],
    }
    for fraction in fractions:
        n = max(2, round(population * fraction))
        naive_bounds: list[float] = []
        errors: list[float] = []
        naive_misses = 0
        window_bounds: list[float] = []
        window_misses = 0
        for _ in range(trials):
            indices = rng.choice(population, size=n, replace=False)
            values = flow_model.run_on_sample(dataset, indices).astype(float)
            naive = estimator.estimate(values, population, delta)
            error = abs(naive.value - truth) / truth
            naive_bounds.append(capped(naive.error_bound))
            errors.append(error)
            if error > naive.error_bound:
                naive_misses += 1

            # Contiguous correction windows: sequence structure preserved
            # within each; random positions average out local drift.
            window_values_parts = []
            for _w in range(window_count):
                start = int(rng.integers(0, population - window_length))
                window_indices = np.arange(start, start + window_length)
                window_values_parts.append(
                    flow_model.run_on_sample(dataset, window_indices).astype(float)
                )
            window_values = np.concatenate(window_values_parts)
            correction = estimator.estimate(window_values, population, delta)
            repaired = ProfileRepair.corrected_mean_bound(naive.value, correction)
            window_bounds.append(capped(repaired))
            if error > repaired:
                window_misses += 1
        series["naive_bound"].append(float(np.mean(naive_bounds)))
        series["naive_violation_pct"].append(100.0 * naive_misses / trials)
        series["true_error"].append(float(np.mean(errors)))
        series["window_bound"].append(float(np.mean(window_bounds)))
        series["window_violation_pct"].append(100.0 * window_misses / trials)

    return ExperimentResult(
        title=(
            f"Extension: sequence model (motion events) under frame sampling "
            f"({dataset_name}, {trials} trials; true motion share = {truth:.3f})"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "the §7 caveat: sampling is NOT random for sequence models",
            "naive treatment: Algorithm 1 applied as if random — expect "
            "violations far above 5%",
            f"window repair: Eq. 12 with {window_count} contiguous windows "
            f"totalling {window_fraction:.0%} of frames (heuristic; no "
            "formal guarantee)",
        ),
    )
