"""Live-feed replay: streaming profiles, drift detection, auto-repair.

The paper computes profiles offline over a fixed corpus; a deployment
ingests frames continuously, and the profiled bound silently loses
validity when stream quality drifts out of the profiled regime (the AQuA
failure mode). A :class:`StreamSession` is one live feed: a
:class:`~repro.estimators.sentinel.BoundSentinel` armed with the
profiling-time state (exact clean reference, a clean sample's bound as
the profiled promise, a correction set for Algorithm 3 repair) over a
windowed / decayed / cumulative estimator from
:mod:`repro.estimators.streaming`. The daemon's ``/stream`` keeps one per
stream id; :func:`replay_stream` drives one end to end on simulated video:

1. Replay a dataset as a timed feed in without-replacement random order
   (the sampling model the Hoeffding–Serfling bound assumes). Optionally,
   a scenario from the zoo (``chaos_sweep.SCENARIOS``) takes over at a
   chosen onset fraction — the feed starts in the profiled regime and
   drifts out of it mid-stream.
2. Run the feed window by window through the session.
3. Emit per-window ledger events (``stream.window``) and aggregate
   ``facts.stream.*`` — windows, frames/sec, violations, repairs — so the
   run ledger's perf gate (``repro runs check --min-stream-fps``) covers
   steady-state throughput too.

Windowed estimators are the default: on an endless feed the cumulative
estimator dilutes any drift with the entire clean history (and exhausts
its universe), while a window forgets — drift dominates the answer within
one window length and the sentinel trips while the repair is still
relevant.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.base import Estimate
from repro.estimators.sentinel import (
    BoundSentinel,
    SentinelCheck,
    SentinelVerdict,
)
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.streaming import (
    DecayedMeanEstimator,
    StreamingMeanEstimator,
    WindowedMeanEstimator,
)
from repro.experiments.workloads import load_dataset, model_for
from repro.system import telemetry
from repro.system.executor import SeedKey, child_rng
from repro.system.observe import ledger as run_ledger
from repro.system.observe import tracing

ESTIMATOR_KINDS = ("windowed", "decayed", "cumulative")


def _scenarios() -> dict:
    """The scenario zoo, imported late: serve must not load chaos_sweep."""
    from repro.experiments.chaos_sweep import SCENARIOS

    return SCENARIOS


@dataclass(frozen=True)
class StreamConfig:
    """One replay of a dataset as a live feed.

    Attributes:
        dataset: Workload corpus name (``ua-detrac`` / ``night-street``).
        frames: Corpus frame count (None = dataset default).
        scenario: Optional zoo scenario that takes over mid-feed.
        severity: Scenario severity (defaults to the spec's harshest).
        onset: Fraction of the feed after which the scenario is live.
        window: Sliding-window capacity (and per-check batch size).
        estimator: ``windowed`` | ``decayed`` | ``cumulative``.
        decay: Weight multiplier for the decayed estimator.
        delta: Per-read bound failure probability.
        min_count: Sentinel warm-up floor (frames before any check).
        patience: Consecutive breaches required to confirm a violation.
        fraction: Clean seeded-query fraction that prices the profiled
            bound joining the sentinel's allowance.
        fps: Target ingest rate; 0 replays as fast as possible.
        seed: Replay order / correction-set seed.
    """

    dataset: str = "ua-detrac"
    frames: int | None = 2000
    scenario: str | None = None
    severity: float | None = None
    onset: float = 0.5
    window: int = 480
    estimator: str = "windowed"
    decay: float = 0.999
    delta: float = 0.05
    min_count: int = 30
    patience: int = 2
    fraction: float = 0.5
    fps: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATOR_KINDS:
            raise ConfigurationError(
                f"estimator must be one of {ESTIMATOR_KINDS}, "
                f"got {self.estimator!r}"
            )
        if self.scenario is not None and self.scenario not in _scenarios():
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; "
                f"valid: {tuple(_scenarios())}"
            )
        if not 0.0 <= self.onset < 1.0:
            raise ConfigurationError(
                f"onset must lie in [0, 1), got {self.onset}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"window must be positive, got {self.window}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must lie in (0, 1], got {self.fraction}"
            )
        if self.fps < 0.0:
            raise ConfigurationError(
                f"fps must be non-negative, got {self.fps}"
            )


@dataclass(frozen=True)
class WindowRecord:
    """One ingest window of the replay.

    Attributes:
        index: Window ordinal, 0-based.
        start: First feed position of the window (inclusive).
        end: Last feed position of the window (exclusive).
        value: Stream estimator's answer after the window.
        bound: Stream estimator's error bound after the window.
        drift: Sentinel drift at the window's check (None in warm-up).
        allowance: Sentinel allowance at the check (None in warm-up).
        breached: Whether the check's drift exceeded the allowance.
        tripped: Whether the sentinel had confirmed a violation by the
            end of this window.
    """

    index: int
    start: int
    end: int
    value: float
    bound: float
    drift: float | None
    allowance: float | None
    breached: bool
    tripped: bool


@dataclass(frozen=True)
class StreamReport:
    """The replay's outcome: per-window trace plus the verdict.

    Attributes:
        config: The replay configuration.
        frames: Frames ingested.
        onset_index: Feed position where the scenario took over
            (``frames`` when no scenario ran).
        windows: Per-window records, in ingest order.
        verdict: The sentinel's final summary (repair included).
        profiled_bound: The clean seeded query's promised bound.
        reference_value: The exact clean answer the drift is measured
            against.
        wall_seconds: Total replay wall time (pacing included).
        ingest_seconds: Time inside sentinel/estimator code only.
        frames_per_sec: Steady-state ingest throughput
            (``frames / ingest_seconds``).
    """

    config: StreamConfig
    frames: int
    onset_index: int
    windows: tuple[WindowRecord, ...] = field(repr=False)
    verdict: SentinelVerdict
    profiled_bound: float
    reference_value: float
    wall_seconds: float
    ingest_seconds: float
    frames_per_sec: float

    @property
    def violations(self) -> int:
        """Windows whose drift check breached the allowance."""
        return sum(1 for window in self.windows if window.breached)

    @property
    def repairs(self) -> int:
        """Algorithm 3 repairs issued (0 or 1)."""
        return 1 if self.verdict.repair is not None else 0

    def as_payload(self) -> dict:
        """A JSON-friendly summary for ledger facts and reports."""
        return {
            "dataset": self.config.dataset,
            "scenario": self.config.scenario,
            "severity": self.config.severity,
            "estimator": self.config.estimator,
            "window": self.config.window,
            "frames": self.frames,
            "onset_index": self.onset_index,
            "windows": len(self.windows),
            "violations": self.violations,
            "repairs": self.repairs,
            "tripped": self.verdict.tripped,
            "first_breach_count": self.verdict.first_breach_count,
            "profiled_bound": self.profiled_bound,
            "repaired_bound": (
                self.verdict.repair.error_bound
                if self.verdict.repair is not None else None
            ),
            "wall_seconds": self.wall_seconds,
            "ingest_seconds": self.ingest_seconds,
            "frames_per_sec": self.frames_per_sec,
        }

    def print(self, limit: int = 12) -> None:
        """Human-readable replay table on stdout."""
        config = self.config
        feed = config.dataset if config.scenario is None else (
            f"{config.dataset} + {config.scenario}"
            f"@{config.severity} from frame {self.onset_index}"
        )
        print(f"stream replay: {feed}")
        print(
            f"  estimator={config.estimator} window={config.window} "
            f"delta={config.delta} profiled_bound={self.profiled_bound:.4f}"
        )
        header = (
            f"  {'win':>3} {'frames':>11} {'value':>8} {'bound':>7} "
            f"{'drift':>7} {'allow':>7}  status"
        )
        print(header)
        elided = len(self.windows) > limit
        shown = self.windows if not elided else (
            self.windows[: limit - 1] + (self.windows[-1],)
        )
        for window in shown:
            if elided and window is self.windows[-1]:
                print(f"  ... {len(self.windows) - limit} windows elided ...")
            drift = "-" if window.drift is None else f"{window.drift:.3f}"
            allow = (
                "-" if window.allowance is None
                else f"{window.allowance:.3f}"
            )
            status = (
                "TRIPPED" if window.tripped
                else "breach" if window.breached else "ok"
            )
            print(
                f"  {window.index:>3} {window.start:>5}-{window.end:<5} "
                f"{window.value:>8.3f} {window.bound:>7.3f} "
                f"{drift:>7} {allow:>7}  {status}"
            )
        verdict = self.verdict
        repair = (
            f"repaired bound {verdict.repair.error_bound:.4f}"
            if verdict.repair is not None else "no repair"
        )
        print(
            f"  verdict: tripped={verdict.tripped} "
            f"breaches={verdict.breaches}/{verdict.checks} — {repair}"
        )
        print(
            f"  throughput: {self.frames} frames in "
            f"{self.ingest_seconds:.3f}s ingest "
            f"({self.frames_per_sec:,.0f} frames/sec; "
            f"wall {self.wall_seconds:.3f}s)"
        )


def price_sample(
    clean: np.ndarray,
    delta: float,
    root: int,
    *key: int,
    size: int | None = None,
) -> Estimate:
    """Draw (one ``choice`` on ``child_rng(root, *key)``, without
    replacement) and price a clean sample. The default size is the
    Algorithm 3 correction set's: 400, or all of a smaller population. A
    random intervention, so its bound survives any later drift of the
    degraded stream."""
    total = clean.size
    size = min(400, total) if size is None else size
    sample = child_rng(root, *key).choice(clean, size=size, replace=False)
    return SmokescreenMeanEstimator().estimate(sample, total, delta)


@dataclass(frozen=True)
class StreamReadout:
    """A live feed's answer: ``value``/``error_bound`` (None before any
    value), values ever folded, and the sentinel's verdict (its
    ``repair`` is the Algorithm 3 repair issued on a trip)."""

    count: int
    value: float | None
    error_bound: float | None
    verdict: SentinelVerdict


@dataclass
class StreamSession:
    """One live feed: a stream estimator watched by a bound sentinel.

    :meth:`arm` builds it from the clean per-frame values; :meth:`ingest`
    folds one chunk and runs the drift check; :meth:`readout` answers from
    the estimate that check already priced, so a chunk past warm-up costs
    one ``estimate()`` call.
    """

    sentinel: BoundSentinel
    stream: object
    reference: Estimate
    profiled_bound: float
    _estimate: Estimate | None = field(default=None, init=False, repr=False)

    @classmethod
    def arm(
        cls,
        clean: np.ndarray,
        root: int,
        sample_size: int,
        *,
        delta: float,
        profiled_bound: float | None = None,
        estimator: str = "windowed",
        window: int = 480,
        decay: float = 0.999,
        min_count: int = 30,
        patience: int = 2,
        label: str = "stream",
    ) -> StreamSession:
        """Arm a feed over a clean population (its size is the universe).

        The exact clean mean is the reference. ``root`` keys the
        correction set (:func:`price_sample`, ``SeedKey.STREAM_CORRECTION``)
        and, only when no ``profiled_bound`` is given, a ``sample_size``
        clean sample (``SeedKey.STREAM_PROFILED``) whose bound becomes the
        profiled promise. ``window`` is capped at the universe."""
        total = clean.size
        reference = Estimate(
            value=float(clean.mean()),
            error_bound=0.0,
            method="exact",
            n=total,
            universe_size=total,
        )
        correction = price_sample(clean, delta, root, SeedKey.STREAM_CORRECTION)
        if profiled_bound is None:
            profiled = price_sample(
                clean, delta, root, SeedKey.STREAM_PROFILED, size=sample_size
            )
            profiled_bound = float(profiled.error_bound)
        if estimator == "windowed":
            stream = WindowedMeanEstimator(total, min(window, total), delta)
        elif estimator == "decayed":
            stream = DecayedMeanEstimator(total, decay, delta)
        else:
            stream = StreamingMeanEstimator(total, delta)
        sentinel = BoundSentinel(
            reference,
            profiled_bound,
            total,
            delta=delta,
            min_count=min_count,
            patience=patience,
            correction=correction,
            label=label,
            stream=stream,
        )
        return cls(sentinel, stream, reference, profiled_bound)

    def ingest(self, chunk) -> SentinelCheck | None:
        """Fold one chunk; the drift check, or None during warm-up."""
        check = self.sentinel.extend(chunk)
        self._estimate = check.estimate if check is not None else None
        return check

    def readout(self) -> StreamReadout:
        """The feed's current value, bound and verdict."""
        if self._estimate is None and self.stream.count:
            self._estimate = self.stream.estimate()
        estimate = self._estimate
        return StreamReadout(
            self.stream.count,
            None if estimate is None else float(estimate.value),
            None if estimate is None else float(estimate.error_bound),
            self.sentinel.verdict(),
        )


def _build_feed(config: StreamConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """The replayed value feed, the clean population, and the onset.

    The feed order is the replay's primary draw: the seed's root stream.
    """
    dataset = load_dataset(config.dataset, config.frames)
    model = model_for(config.dataset)
    clean = model.run(dataset).counts.astype(float)
    total = clean.size
    order = child_rng(config.seed).permutation(total)
    feed = clean[order]
    if config.scenario is None:
        return feed, clean, total
    spec = _scenarios()[config.scenario]
    hostile = spec.build(config.severity).attach(model).run(dataset).counts
    hostile = hostile.astype(float)
    onset_index = int(round(config.onset * total))
    feed[onset_index:] = hostile[order[onset_index:]]
    return feed, clean, onset_index


def replay_stream(config: StreamConfig) -> StreamReport:
    """Replay the configured feed through a :class:`StreamSession`.

    Args:
        config: The replay configuration.

    Returns:
        The per-window trace, final verdict, and throughput numbers.
    """
    if config.scenario is not None and config.severity is None:
        config = dataclasses.replace(
            config, severity=_scenarios()[config.scenario].severities[-1]
        )
    feed, clean, onset_index = _build_feed(config)
    total = feed.size
    session = StreamSession.arm(
        clean,
        config.seed,
        max(2, int(round(config.fraction * total))),
        delta=config.delta,
        estimator=config.estimator,
        window=config.window,
        decay=config.decay,
        min_count=config.min_count,
        patience=config.patience,
        label=f"{config.dataset}:{config.scenario or 'clean'}",
    )

    records: list[WindowRecord] = []
    wall_start = time.perf_counter()
    ingest_seconds = 0.0
    # One trace covers the whole replay; each window is a child span, so
    # the exported timeline shows the per-window cadence (and any pacing
    # sleep) on the same epoch-aligned axis as serve/executor spans.
    replay_ctx = tracing.mint()
    with tracing.use(replay_ctx), tracing.span(
        "stream.replay",
        dataset=config.dataset,
        scenario=config.scenario or "clean",
        window=config.window,
    ):
        for start in range(0, total, config.window):
            chunk = feed[start : start + config.window]
            with tracing.span(
                "stream.window", index=len(records), frames=int(chunk.size)
            ):
                tick = time.perf_counter()
                check = session.ingest(chunk)
                readout = session.readout()
                ingest_seconds += time.perf_counter() - tick
                record = WindowRecord(
                    index=len(records),
                    start=start,
                    end=start + chunk.size,
                    value=readout.value,
                    bound=readout.error_bound,
                    drift=check.drift if check is not None else None,
                    allowance=(
                        check.allowance if check is not None else None
                    ),
                    breached=check.breached if check is not None else False,
                    tripped=readout.verdict.tripped,
                )
                records.append(record)
                telemetry.count("stream.windows")
                telemetry.count("stream.frames", chunk.size)
                run_ledger.record_event(
                    "stream.window",
                    window=record.index,
                    frames=int(chunk.size),
                    value=record.value,
                    bound=record.bound,
                    drift=record.drift,
                    allowance=record.allowance,
                    breached=record.breached,
                    tripped=record.tripped,
                )
                if config.fps > 0.0:
                    pace = chunk.size / config.fps
                    elapsed = time.perf_counter() - tick
                    if pace > elapsed:
                        time.sleep(pace - elapsed)
    wall_seconds = time.perf_counter() - wall_start

    report = StreamReport(
        config=config,
        frames=total,
        onset_index=onset_index,
        windows=tuple(records),
        verdict=session.sentinel.verdict(),
        profiled_bound=session.profiled_bound,
        reference_value=session.reference.value,
        wall_seconds=wall_seconds,
        ingest_seconds=ingest_seconds,
        frames_per_sec=(
            total / ingest_seconds if ingest_seconds > 0.0 else 0.0
        ),
    )
    run_ledger.annotate(stream=report.as_payload())
    run_ledger.annotate(stream={"trace_id": replay_ctx.trace_id})
    return report
