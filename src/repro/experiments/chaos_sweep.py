"""Chaos sweeps: network faults and hostile scenarios vs the bounds.

Two robustness claims live here.

:func:`run_chaos` (network chaos): with faults injected at increasing
rates, the resilient :class:`~repro.system.fleet.FleetQueryProcessor`
keeps returning valid (wider) surviving-fleet bounds instead of crashing
or silently under-covering. The sweep tabulates the mean combined bound
width, cameras lost, fleet frame coverage, retry volume, and the empirical
coverage of the exact surviving-fleet answer — which must stay at or above
``1 - delta`` regardless of the fault rate.

:func:`run_scenario_chaos` (scenario chaos): one camera in the fleet is
hit by an adversarial or physical scenario from the :data:`SCENARIOS` zoo
while the rest stay healthy, and the sweep answers the ROADMAP's three
questions per severity — do the profiled bounds still hold (violation
rate), does the sentinel detect the break and does automatic repair cover
the realized error (recall / repair catch rate), and can the fleet
localize the culprit camera (localization accuracy) — while clean cameras
must stay unflagged (false-positive rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.detection.zoo import mask_rcnn_like, yolo_v4_like
from repro.errors import ConfigurationError, TransmissionError
from repro.estimators.base import Estimate
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import load_dataset, shared_suite
from repro.interventions.adversarial import (
    AdversarialCompression,
    TargetedFrameCorruption,
)
from repro.interventions.base import Intervention
from repro.interventions.physical import (
    CameraMisalignment,
    Occlusion,
    WeatherExposure,
)
from repro.query.processor import QueryProcessor
from repro.system.camera import Camera
from repro.system.faults import FaultModel
from repro.system.executor import ExecutorConfig, ParallelExecutor, SeedKey
from repro.system.fleet import FleetQueryProcessor, FleetSentinel
from repro.system.observe import ledger as run_ledger
from repro.system.stream import price_sample

DEFAULT_OUTAGE_RATES = (0.0, 0.1, 0.2, 0.3, 0.5)


@dataclass(frozen=True)
class ScenarioSpec:
    """One entry of the scenario zoo.

    Attributes:
        name: CLI-facing scenario name.
        kind: ``"adversarial"`` or ``"physical"``.
        severities: Default severity sweep, mildest first.
        build: Maps a severity to the intervention instance.
    """

    name: str
    kind: str
    severities: tuple[float, ...]
    build: Callable[[float], Intervention]


#: The scenario zoo: every entry pairs an unchosen-degradation
#: intervention with its detector-response model (via ``attach``).
SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="targeted-corruption",
            kind="adversarial",
            severities=(0.05, 0.15, 0.3),
            build=TargetedFrameCorruption,
        ),
        ScenarioSpec(
            name="compression-attack",
            kind="adversarial",
            severities=(0.05, 0.15, 0.3),
            build=AdversarialCompression,
        ),
        ScenarioSpec(
            name="occlusion",
            kind="physical",
            severities=(0.3, 0.5, 0.7),
            build=Occlusion,
        ),
        ScenarioSpec(
            name="misalignment",
            kind="physical",
            severities=(0.3, 0.5, 0.7),
            build=CameraMisalignment,
        ),
        ScenarioSpec(
            name="weather",
            kind="physical",
            # Weather must be near-whiteout before its drift clears the
            # streaming allowance: milder exposure loss shrinks counts
            # gradually rather than zeroing frames like occlusion does.
            severities=(0.5, 0.75, 0.95),
            build=WeatherExposure,
        ),
    )
}


def _build_cameras(
    camera_count: int, frame_count: int | None, fraction: float
) -> list[Camera]:
    suite = shared_suite()
    frames = frame_count or 2000
    cameras = []
    for index in range(camera_count):
        name = "ua-detrac" if index % 2 == 0 else "night-street"
        camera = Camera(f"cam{index}", load_dataset(name, frames), suite)
        camera.configure(fraction=fraction)
        cameras.append(camera)
    return cameras


def _model_for(camera: Camera):
    if camera.dataset.name.startswith("ua-detrac"):
        return yolo_v4_like()
    return mask_rcnn_like()


def _surviving_truth(
    cameras: list[Camera], surviving: tuple[str, ...]
) -> float:
    """The exact AVG over the frames of the surviving cameras."""
    weight_total = 0
    weighted = 0.0
    for camera in cameras:
        if camera.name not in surviving:
            continue
        counts = _model_for(camera).run(camera.dataset).counts
        weighted += counts.mean() * camera.dataset.frame_count
        weight_total += camera.dataset.frame_count
    return weighted / weight_total


def run_chaos(
    trials: int = 10,
    frame_count: int | None = None,
    seed: int = 0,
    outage_rates: tuple[float, ...] = DEFAULT_OUTAGE_RATES,
    camera_count: int = 5,
    fraction: float = 0.2,
    delta: float = 0.05,
    workers: int | str = 1,
) -> ExperimentResult:
    """Sweep outage rates and tabulate graceful-degradation metrics.

    At each outage rate ``q`` the fleet also suffers transient failures at
    ``q / 2``, frame drops at ``q / 4``, and stragglers at ``q / 4`` — a
    proportional chaos profile. Each trial constructs a fresh processor
    (fresh breakers and clock) so trials are independent. Trial ``t``
    queries on the root ``(seed, SeedKey.FLEET_TRIAL, t)`` and outage rate
    ``i`` injects faults from ``(seed, SeedKey.FAULT_RATE, i)``, so every
    fault sequence is reproducible from the seed, the rate and the trial.

    Args:
        trials: Seeded trials per outage rate.
        frame_count: Per-camera corpus size (None → 2000).
        seed: Root seed.
        outage_rates: The swept per-query camera outage probabilities.
        camera_count: Fleet size.
        fraction: Per-camera sampling fraction.
        delta: Total failure probability per query.
        workers: Worker processes for the per-camera values stage, or
            ``"auto"``; 1 keeps every query in-process. Results are
            identical for any value.

    Returns:
        The outage-rate → bound-width table.
    """
    cameras = _build_cameras(camera_count, frame_count, fraction)
    processor = QueryProcessor(shared_suite())
    executor = (
        ParallelExecutor(ExecutorConfig(workers=workers))
        if workers != 1
        else None
    )

    bound_widths: list[float] = []
    lost_means: list[float] = []
    coverage_means: list[float] = []
    retry_means: list[float] = []
    violation_rates: list[float] = []
    unavailable_counts: list[float] = []
    for rate_index, rate in enumerate(outage_rates):
        faults = FaultModel(
            outage_probability=rate,
            transient_failure_probability=rate / 2.0,
            frame_drop_probability=rate / 4.0,
            straggler_probability=rate / 4.0,
        )
        widths: list[float] = []
        lost: list[int] = []
        coverages: list[float] = []
        retries: list[int] = []
        violations = 0
        unavailable = 0
        for trial in range(trials):
            fleet = FleetQueryProcessor(
                cameras,
                processor,
                faults=faults,
                fault_seed=(seed, SeedKey.FAULT_RATE, rate_index),
                executor=executor,
            )
            try:
                report = fleet.execute(
                    _model_for,
                    delta=delta,
                    seed=(seed, SeedKey.FLEET_TRIAL, trial),
                )
            except TransmissionError:
                unavailable += 1
                continue
            widths.append(report.combined.error_bound)
            lost.append(len(report.lost))
            coverages.append(report.coverage)
            retries.append(report.total_retries)
            truth = _surviving_truth(cameras, report.surviving)
            error = abs(report.combined.value - truth) / truth
            if error > report.combined.error_bound:
                violations += 1
        answered = len(widths)
        bound_widths.append(float(np.mean(widths)) if answered else float("nan"))
        lost_means.append(float(np.mean(lost)) if answered else float("nan"))
        coverage_means.append(
            float(np.mean(coverages)) if answered else float("nan")
        )
        retry_means.append(float(np.mean(retries)) if answered else float("nan"))
        violation_rates.append(
            violations / answered if answered else float("nan")
        )
        unavailable_counts.append(float(unavailable))

    finite_widths = [w for w in bound_widths if np.isfinite(w)]
    run_ledger.annotate(
        bounds={
            "max_width": (
                round(max(finite_widths), 6) if finite_widths else None
            ),
            "mean_width": (
                round(float(np.mean(finite_widths)), 6)
                if finite_widths
                else None
            ),
        },
        chaos_rates=list(outage_rates),
        chaos_unavailable=int(sum(unavailable_counts)),
    )

    return ExperimentResult(
        title=(
            "Chaos sweep: outage rate vs bound width under resilient "
            "fleet execution"
        ),
        knob_label="outage rate",
        knobs=list(outage_rates),
        series={
            "mean bound width": bound_widths,
            "mean cameras lost": lost_means,
            "mean frame coverage": coverage_means,
            "mean retries": retry_means,
            "bound violation rate": violation_rates,
            "unavailable fleets": unavailable_counts,
        },
        notes=(
            f"{camera_count} cameras, f={fraction}, delta={delta}, "
            f"{trials} trials per rate; transient/drop/straggler rates "
            "scale with the outage rate (q/2, q/4, q/4)",
            "bound validity is against the exact surviving-fleet answer; "
            "lost strata are excised and reported via coverage",
        ),
    )


def _clean_truths(cameras: list[Camera]) -> dict[str, float]:
    """Exact per-camera AVG on clean video (the profiling-time answers)."""
    return {
        camera.name: float(_model_for(camera).run(camera.dataset).counts.mean())
        for camera in cameras
    }


def _arm_sentinel(
    cameras: list[Camera],
    processor: QueryProcessor,
    truths: dict[str, float],
    delta: float,
    seed: int,
) -> tuple[FleetSentinel, dict[str, float]]:
    """Build the profiling-time sentinel state for a fleet.

    References are the exact clean answers (profiling on simulated video
    is exhaustive, so the reference bound is zero); the profiled bound per
    camera is what one clean seeded query actually reported at the
    per-survivor budget; corrections are random-intervention samples of
    the clean per-frame values, enabling automatic Algorithm 3 repair.
    The clean query is the root stream ``seed``; the audited trials query
    on ``(seed, SeedKey.FLEET_TRIAL, t)`` roots, so no trial replays it.
    """
    clean_report = FleetQueryProcessor(cameras, processor).execute(
        _model_for, delta=delta, seed=seed
    )
    profiled = {
        name: float(report.estimate.error_bound)
        for name, report in clean_report.per_camera.items()
    }
    references, corrections = {}, {}
    for index, camera in enumerate(cameras):
        counts = _model_for(camera).run(camera.dataset).counts.astype(float)
        references[camera.name] = Estimate(
            value=truths[camera.name],
            error_bound=0.0,
            method="exact",
            n=camera.dataset.frame_count,
            universe_size=camera.dataset.frame_count,
        )
        corrections[camera.name] = price_sample(
            counts, delta, seed, SeedKey.CAMERA_CORRECTION, index
        )
    sentinel = FleetSentinel(
        references, profiled, corrections=corrections, patience=2
    )
    return sentinel, profiled


def run_scenario_chaos(
    scenario: str,
    trials: int = 8,
    frame_count: int | None = None,
    seed: int = 0,
    severities: tuple[float, ...] | None = None,
    camera_count: int = 4,
    fraction: float = 0.5,
    delta: float = 0.05,
    victim_index: int = 0,
    workers: int | str = 1,
) -> ExperimentResult:
    """Hit one camera with a zoo scenario and audit the fleet's defenses.

    Per severity, seeded trials run a fleet query in which the victim
    camera's detector is wrapped by the scenario's response model while
    every other camera stays healthy. The armed :class:`FleetSentinel`
    audits each camera's delivered stream, and the sweep tabulates:

    - **bound violation rate** — how often the victim's realized error
      actually exceeded its profiled bound (ground truth, not detection);
    - **sentinel recall** — violations the sentinel confirmed, over
      violations that occurred;
    - **sentinel false-positive rate** — clean-camera audits flagged, over
      clean-camera audits performed (must be 0 on healthy cameras);
    - **repair catch rate** — flagged-victim trials where the automatic
      Algorithm 3 bound covered the victim's realized error;
    - **localization accuracy** — trials where the flagged set was exactly
      the victim.

    Args:
        scenario: A :data:`SCENARIOS` name.
        trials: Seeded trials per severity.
        frame_count: Per-camera corpus size (None → 2000).
        seed: Root seed.
        severities: Severity sweep override (defaults to the spec's).
        camera_count: Fleet size.
        fraction: Per-camera sampling fraction. The default 0.5 keeps the
            streaming bound tight enough (~0.1 relative at 2000 frames)
            that mid-severity drifts are detectable at all.
        delta: Total failure probability per query.
        victim_index: Which camera the scenario hits.
        workers: Worker processes for the per-camera values stage, or
            ``"auto"``; 1 keeps every query in-process. Results are
            identical for any value.

    Returns:
        The severity → defense-metrics table.
    """
    spec = SCENARIOS.get(scenario)
    if spec is None:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; valid: {sorted(SCENARIOS)}"
        )
    swept = tuple(severities) if severities is not None else spec.severities
    if not swept:
        raise ConfigurationError("scenario sweep needs at least one severity")

    cameras = _build_cameras(camera_count, frame_count, fraction)
    processor = QueryProcessor(shared_suite())
    victim = cameras[victim_index % len(cameras)].name
    truths = _clean_truths(cameras)
    sentinel, profiled = _arm_sentinel(cameras, processor, truths, delta, seed)
    executor = (
        ParallelExecutor(ExecutorConfig(workers=workers))
        if workers != 1
        else None
    )

    violation_rates: list[float] = []
    recalls: list[float] = []
    fp_rates: list[float] = []
    repair_rates: list[float] = []
    localization: list[float] = []
    for severity in swept:
        # One hostile detector per camera, shared across trials so the
        # full-corpus outputs are evaluated once per severity.
        models = {}
        for camera in cameras:
            model = _model_for(camera)
            if camera.name == victim:
                model = spec.build(severity).attach(model)
            models[camera.name] = model

        violated = 0
        detected = 0
        false_flags = 0
        clean_audits = 0
        repaired = 0
        localized = 0
        for trial in range(trials):
            fleet = FleetQueryProcessor(
                cameras, processor, sentinel=sentinel, executor=executor
            )
            report = fleet.execute(
                lambda camera: models[camera.name],
                delta=delta,
                seed=(seed, SeedKey.FLEET_TRIAL, trial),
            )
            audit = report.sentinel
            victim_estimate = report.per_camera[victim].estimate
            realized = (
                abs(victim_estimate.value - truths[victim])
                / abs(truths[victim])
            )
            is_violation = realized > profiled[victim]
            victim_flagged = victim in audit.flagged
            if is_violation:
                violated += 1
                if victim_flagged:
                    detected += 1
            false_flags += sum(
                1 for name in audit.flagged if name != victim
            )
            clean_audits += sum(
                1 for name in audit.verdicts if name != victim
            )
            if victim_flagged:
                repair = audit.verdicts[victim].repair
                if repair is not None and realized <= repair.error_bound:
                    repaired += 1
            if audit.flagged == (victim,):
                localized += 1

        violation_rates.append(violated / trials)
        recalls.append(detected / violated if violated else float("nan"))
        fp_rates.append(false_flags / clean_audits if clean_audits else 0.0)
        repair_rates.append(repaired / detected if detected else float("nan"))
        localization.append(localized / trials)

    # Headline numbers for the run ledger and the perf gate: recall /
    # repair at the top severity (where violations are certain), FPR
    # pooled over every severity (clean cameras must never flag).
    total_clean = len(swept) * trials * (len(cameras) - 1)
    pooled_fpr = (
        float(np.nansum([f * trials * (len(cameras) - 1) for f in fp_rates]))
        / total_clean
        if total_clean
        else 0.0
    )
    top_recall = recalls[-1]
    top_repair = repair_rates[-1]
    top_localization = localization[-1]
    if np.isnan(top_recall):
        verdict = "no-violation"
    elif top_recall == 1.0 and pooled_fpr == 0.0:
        verdict = "detected"
    elif top_recall > 0.0:
        verdict = "partial"
    else:
        verdict = "missed"

    run_ledger.annotate(
        bounds={
            "profiled_victim": round(profiled[victim], 6),
            "violation_rate_top": round(violation_rates[-1], 6),
        },
        scenario=spec.name,
        scenario_kind=spec.kind,
        scenario_victim=victim,
        sentinel={
            "recall": None if np.isnan(top_recall) else round(top_recall, 6),
            "fpr": round(pooled_fpr, 6),
            "repair_catch": (
                None if np.isnan(top_repair) else round(top_repair, 6)
            ),
            "localization": round(top_localization, 6),
            "verdict": verdict,
        },
    )
    run_ledger.record_event(
        "chaos.scenario",
        scenario=spec.name,
        kind=spec.kind,
        victim=victim,
        severities=list(swept),
        recall=None if np.isnan(top_recall) else round(top_recall, 6),
        fpr=round(pooled_fpr, 6),
        localization=round(top_localization, 6),
        verdict=verdict,
    )

    return ExperimentResult(
        title=(
            f"Scenario chaos: {spec.name} ({spec.kind}) on camera "
            f"{victim!r} vs the bound sentinel"
        ),
        knob_label="severity",
        knobs=list(swept),
        series={
            "bound violation rate": violation_rates,
            "sentinel recall": recalls,
            "sentinel false-positive rate": fp_rates,
            "repair catch rate": repair_rates,
            "localization accuracy": localization,
        },
        notes=(
            f"{camera_count} cameras, victim={victim}, f={fraction}, "
            f"delta={delta}, {trials} trials per severity",
            "references are exact clean answers; profiled bounds come "
            "from one clean seeded query; corrections are clean random "
            "samples (n<=400) enabling automatic Algorithm 3 repair",
            f"sentinel verdict: {verdict} (top-severity recall, pooled "
            "FPR over clean cameras)",
        ),
    )
