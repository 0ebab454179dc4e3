"""Figure 10: profiles transfer between visually similar videos (§5.3.2).

Setup: two sequences from the same synthetic camera — video A (1,720
frames, the original) and video B (975 frames, similar). The target profile
is computed on A with access to 500 sampled frames. It is compared against:

- video A limited to at most 50 frames (a strict degradation requirement) —
  expected to differ substantially; and
- video B with 500 frames — expected to be close to the target (absolute
  bound difference near zero, within ~5% on the resolution sweep).

Left panel: the reduced-frame-sampling axis at fixed resolution (x-axis is
the sample *size* because the sequences have different lengths; shown below
100 as in the paper). Right panel: the resolution axis at fixed sample
size 500.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.dispatch import corrected_bounds, estimate_batch
from repro.experiments.reporting import ExperimentResult
from repro.experiments.trials import BOUND_DISPLAY_CAP
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments
from repro.stats.sampling import ProgressiveSampler
from repro.system.executor import SeedKey, child_rng
from repro.video.dataset import VideoDataset
from repro.video.geometry import Resolution
from repro.video.presets import detrac_sequence_pair

#: The videos' coordinate in the figure's trial keys.
_VIDEO_A, _VIDEO_B = 0, 1


def _trial_frames(
    population: int, size: int, seed: int, key: SeedKey, video: int, trial: int
) -> np.ndarray:
    """The first ``size`` frames of one trial's nested sample."""
    rng = child_rng(seed, key, video, trial)
    return ProgressiveSampler(population, rng).prefix(size)


def _mean_bound_at_sizes(
    query: AggregateQuery,
    sizes: tuple[int, ...],
    access_limit: int | None,
    trials: int,
    seed: int,
    video: int,
) -> list[float]:
    """Smokescreen bound at each sample size, averaged over trials.

    Every size prices a prefix of the trial's one sample. When
    ``access_limit`` caps the available frames, larger requested sizes
    reuse the capped sample — the "incomplete and loose" estimation the
    paper attributes to limited frame access.
    """
    values = QueryProcessor().true_values(query)
    population = values.size
    effective = [min(size, access_limit or size, population) for size in sizes]
    priced = tuple(sorted(set(effective)))
    matrix = np.stack([
        values[_trial_frames(
            population, priced[-1], seed, SeedKey.TRIAL_SAMPLE, video, trial
        )]
        for trial in range(trials)
    ])
    batch = estimate_batch(
        query, PrefixMoments(matrix), priced, population, population
    )
    means = batch.error_bounds.mean(axis=1)
    return [float(means[priced.index(size)]) for size in effective]


def _resolution_bounds(
    dataset: VideoDataset,
    model,
    sides: tuple[int, ...],
    sample_size: int,
    access_limit: int | None,
    trials: int,
    seed: int,
    video: int,
) -> list[float]:
    """Corrected bound per resolution at a fixed degraded-sample size.

    Each trial's frame and correction samples are shared by every
    resolution, so one batch call prices a trial's resolutions together
    and one Algorithm 3 call repairs them.
    """
    query = AggregateQuery(dataset, model, Aggregate.AVG)
    population = dataset.frame_count
    size = min(sample_size, population)
    correction_size = min(access_limit or sample_size, population)
    clean = QueryProcessor().true_values(query)
    degraded = np.stack([
        model.run(dataset, Resolution(side)).counts.astype(float)
        for side in sides
    ])
    total = np.zeros(len(sides))
    for trial in range(trials):
        frames = _trial_frames(
            population, size, seed, SeedKey.TRIAL_SAMPLE, video, trial
        )
        correction = clean[_trial_frames(
            population, correction_size, seed, SeedKey.TRIAL_CORRECTION,
            video, trial,
        )]
        batch = estimate_batch(
            query, PrefixMoments(degraded[:, frames]), (size,), population,
            population,
        )
        bounds = corrected_bounds(query, batch, correction, plan_is_random=False)
        total += np.minimum(bounds[0], BOUND_DISPLAY_CAP)
    return (total / trials).tolist()


def run_fig10_sampling(
    trials: int = 30,
    sizes: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    target_frames: int = 500,
    access_limit: int = 50,
    seed: int = 0,
    frames_a: int | None = None,
    frames_b: int | None = None,
) -> ExperimentResult:
    """Figure 10, left panel: bound differences on the sampling axis.

    Args:
        trials: Trials per sample size.
        sizes: Sample sizes (the paper shows sizes below 100).
        target_frames: Frames accessible for the target profile (500).
        access_limit: The limited-access cap on video A (50).
        seed: Randomness seed.
        frames_a: Optional reduced length of sequence A.
        frames_b: Optional reduced length of sequence B.

    Returns:
        Absolute bound differences of the limited-A and similar-B profiles
        against the target profile of A.
    """
    if access_limit >= target_frames:
        raise ConfigurationError("the access limit must be below the target")
    kwargs = {}
    if frames_a:
        kwargs["frames_a"] = frames_a
    if frames_b:
        kwargs["frames_b"] = frames_b
    video_a, video_b = detrac_sequence_pair(**kwargs)
    from repro.detection.zoo import yolo_v4_like

    model = yolo_v4_like()
    query_a = AggregateQuery(video_a, model, Aggregate.AVG)
    query_b = AggregateQuery(video_b, model, Aggregate.AVG)

    # The limited profile shares the target's sample (same frames, only
    # the access cap differs), so its difference is exactly the cost of
    # incomplete estimation beyond the cap and zero below it.
    target = _mean_bound_at_sizes(query_a, sizes, None, trials, seed, _VIDEO_A)
    limited = _mean_bound_at_sizes(
        query_a, sizes, access_limit, trials, seed, _VIDEO_A
    )
    similar = _mean_bound_at_sizes(query_b, sizes, None, trials, seed, _VIDEO_B)

    return ExperimentResult(
        title=(
            "Figure 10 (left): |bound difference| vs sample size, "
            f"target = video A with {target_frames} frames"
        ),
        knob_label="sample_size",
        knobs=[float(size) for size in sizes],
        series={
            "limited_A_diff": [abs(l - t) for l, t in zip(limited, target)],
            "similar_B_diff": [abs(s - t) for s, t in zip(similar, target)],
        },
        notes=(
            f"limited access: at most {access_limit} frames of video A",
            "expected: similar_B_diff near zero, limited_A_diff substantial "
            "beyond the access limit",
        ),
    )


def run_fig10_resolution(
    trials: int = 20,
    sides: tuple[int, ...] = (128, 192, 256, 320, 384, 448, 512, 608),
    sample_size: int = 500,
    access_limit: int = 50,
    seed: int = 0,
    frames_a: int | None = None,
    frames_b: int | None = None,
) -> ExperimentResult:
    """Figure 10, right panel: bound differences on the resolution axis.

    Args:
        trials: Trials per resolution.
        sides: Resolution sides to sweep (fixed sample size 500).
        sample_size: The fixed degraded-sample size (paper: 500).
        access_limit: The limited-access cap on video A (50).
        seed: Randomness seed.
        frames_a: Optional reduced length of sequence A.
        frames_b: Optional reduced length of sequence B.

    Returns:
        Absolute bound differences against the target profile of A.
    """
    kwargs = {}
    if frames_a:
        kwargs["frames_a"] = frames_a
    if frames_b:
        kwargs["frames_b"] = frames_b
    video_a, video_b = detrac_sequence_pair(**kwargs)
    from repro.detection.zoo import yolo_v4_like

    model = yolo_v4_like()

    target = _resolution_bounds(
        video_a, model, sides, sample_size, None, trials, seed, _VIDEO_A
    )
    limited = _resolution_bounds(
        video_a, model, sides, sample_size, access_limit, trials, seed,
        _VIDEO_A,
    )
    similar = _resolution_bounds(
        video_b, model, sides, sample_size, None, trials, seed, _VIDEO_B
    )

    return ExperimentResult(
        title=(
            "Figure 10 (right): |bound difference| vs resolution, "
            f"fixed sample size {sample_size}"
        ),
        knob_label="resolution",
        knobs=[float(side) for side in sides],
        series={
            "limited_A_diff": [abs(l - t) for l, t in zip(limited, target)],
            "similar_B_diff": [abs(s - t) for s, t in zip(similar, target)],
        },
        notes=(
            "expected: similar_B_diff small (the paper reports within 5%) "
            "and limited_A_diff larger",
        ),
    )
