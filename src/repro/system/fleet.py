"""Multi-camera fleets: one analytical answer across several cameras.

The paper's deployment (§1) is "a set of configurable networked cameras"
feeding one central query processor. A city-wide AVG ("average cars per
frame across all monitored roads") spans every camera's corpus; each
camera samples its own frames under its own degradation plan, and the
central system must combine the per-camera estimates into one answer with
one guaranteed bound.

The combination is a stratified estimator: with camera ``i`` holding
``N_i`` frames whose sampled interval is ``[L_i, U_i]`` (each built at
``delta / k`` so the union over ``k`` cameras spends ``delta``), the fleet
mean lies in

``[ sum_i N_i L_i / N,  sum_i N_i U_i / N ]``   with probability >= 1-delta

and the usual Theorem 3.1 output construction turns that interval into a
bound-aware answer. Stratification also helps accuracy: between-camera
variance costs nothing because every camera contributes its exact weight.

One executor computes that combination, :class:`FleetQueryProcessor`.
With no fault model every camera answers over a perfect channel. With
one, cameras transmit through seeded
:class:`~repro.system.faults.FaultyChannel` paths with retry/backoff and
per-camera circuit breakers; cameras lost mid-query are excised, the
``delta`` budget is re-split across the survivors
(:func:`~repro.estimators.budget.resplit_delta`), and the
:class:`FleetReport` records exactly which cameras degraded, which frames
were dropped, and the widened-but-valid surviving-fleet bound.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CameraOutageError,
    ConfigurationError,
    EstimationError,
    TransmissionError,
)
from repro.estimators.base import Estimate
from repro.estimators.budget import (
    StratumInterval,
    combine_stratum_intervals,
    resplit_delta,
)
from repro.estimators.sentinel import BoundSentinel, SentinelVerdict
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.interventions.plan import DegradedSample
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.system.camera import Camera
from repro.system.executor import ParallelExecutor, RootSeed, child_rng
from repro.system.faults import (
    ChannelDelivery,
    FaultInjector,
    FaultModel,
    transmit_with_retry,
)
from repro.system import telemetry
from repro.system.observe import ledger as run_ledger
from repro.system.observe.aggregate import TelemetryAggregator
from repro.system.resilience import (
    BreakerState,
    CircuitBreaker,
    HealthLedger,
    RetryPolicy,
)

_LOG = telemetry.get_logger("system.fleet")


def _validate_cameras(cameras: list[Camera]) -> None:
    """Eager fleet validation: misconfiguration surfaces where written."""
    if not cameras:
        raise ConfigurationError("a fleet needs at least one camera")
    names = [camera.name for camera in cameras]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate camera names: {names}")
    for camera in cameras:
        if camera.dataset.frame_count <= 0:
            raise ConfigurationError(
                f"camera {camera.name!r} observes an empty dataset "
                f"({camera.dataset.frame_count} frames); every fleet camera "
                "needs a non-empty corpus"
            )


@dataclass(frozen=True)
class CameraValuesUnit:
    """One camera's sampled-values computation, shipped to a pool worker.

    Carries exactly what :meth:`QueryProcessor.values_for_sample` needs:
    the camera's query (whose dataset pickles down to a shared-memory
    handle when published), the delivered sample, and the restricted-class
    suite. Workers rebuild a fresh :class:`QueryProcessor` — its per-query
    memo is process-local anyway — so results are bit-identical to the
    parent calling ``values_for_sample`` directly.

    Attributes:
        query: The per-camera AVG query at its ``delta`` share.
        sample: The degraded sample the channel actually delivered.
        suite: The processor's restricted-class detector suite (or None).
    """

    query: AggregateQuery
    sample: DegradedSample
    suite: object | None


def run_camera_values_unit(unit: CameraValuesUnit) -> np.ndarray:
    """Evaluate one camera's sampled values (pool-worker entry point)."""
    processor = QueryProcessor(unit.suite)
    return processor.values_for_sample(unit.query, unit.sample)


class CameraStatus(enum.Enum):
    """How one camera fared during one resilient fleet query."""

    OK = "ok"
    DEGRADED = "degraded"
    LOST = "lost"


@dataclass(frozen=True)
class CameraReport:
    """One camera's line in a :class:`FleetReport`.

    Attributes:
        name: Camera identifier.
        status: OK (clean delivery), DEGRADED (delivered, but only after
            retries, frame losses, or a straggling transfer), or LOST (no
            data this query — outage, exhausted retries, or an open
            circuit breaker).
        weight: The camera's share of the *full* fleet's frames.
        attempts: Transmit attempts made this query.
        retries: Backoff-then-retry cycles taken this query.
        frames_requested: Frames the camera put on the wire (delivering
            attempt only; zero when lost).
        frames_delivered: Frames that survived drop and corruption.
        frames_dropped: Frames lost in flight.
        frames_corrupted: Frames discarded by the integrity check.
        latency: Simulated seconds spent on this camera (transfer plus
            backoff waits).
        straggler: Whether the delivering transfer straggled.
        breaker_state: The camera's circuit-breaker state after the query.
        estimate: The camera's interval at the re-split share, or None
            when lost.
        reason: Why the camera was lost (None otherwise).
    """

    name: str
    status: CameraStatus
    weight: float
    attempts: int
    retries: int
    frames_requested: int
    frames_delivered: int
    frames_dropped: int
    frames_corrupted: int
    latency: float
    straggler: bool
    breaker_state: BreakerState
    estimate: Estimate | None
    reason: str | None = None


@dataclass(frozen=True)
class FleetSentinelAudit:
    """Per-camera bound-violation verdicts for one fleet query.

    Attributes:
        verdicts: Each audited camera's :class:`SentinelVerdict`, keyed by
            camera name (cameras the sentinel was not armed for, or that
            were lost this query, are absent).
        flagged: Names of cameras whose profiled bound was confirmed
            violated, in fleet order — the localization answer.
    """

    verdicts: dict[str, SentinelVerdict]
    flagged: tuple[str, ...]

    @property
    def clean(self) -> tuple[str, ...]:
        """Audited cameras whose profile held."""
        return tuple(
            name for name in self.verdicts if name not in self.flagged
        )


class FleetSentinel:
    """Per-camera bound monitoring at fleet scale.

    Armed once per deployment with each camera's profiling-time reference
    answer and profiled bound, the sentinel audits every surviving
    camera's delivered values during a fleet query: a fresh
    :class:`~repro.estimators.sentinel.BoundSentinel` replays the
    camera's stream, and the per-camera verdicts localize *which* camera
    broke its profile — the fleet-level question the combined bound alone
    cannot answer (a single hostile camera hides inside the stratified
    average).
    """

    def __init__(
        self,
        references: dict[str, Estimate],
        profiled_bounds: dict[str, float],
        corrections: dict[str, Estimate] | None = None,
        min_count: int = 30,
        patience: int = 2,
    ) -> None:
        """Arm the fleet sentinel.

        Args:
            references: Trusted per-camera answers (profiling-time means),
                keyed by camera name.
            profiled_bounds: The profile's promised error bound per
                camera; must cover the same cameras as ``references``.
            corrections: Optional per-camera correction-set estimates;
                cameras present here get automatic Algorithm 3 repair on
                a confirmed violation.
            min_count: Warm-up floor per camera stream.
            patience: Consecutive breaches required to confirm.
        """
        if set(references) != set(profiled_bounds):
            raise ConfigurationError(
                "sentinel references and profiled bounds must cover the "
                f"same cameras, got {sorted(references)} vs "
                f"{sorted(profiled_bounds)}"
            )
        self._references = dict(references)
        self._profiled_bounds = dict(profiled_bounds)
        self._corrections = dict(corrections or {})
        self._min_count = min_count
        self._patience = patience

    def armed_for(self, camera_name: str) -> bool:
        """Whether this camera has a reference to audit against."""
        return camera_name in self._references

    def audit_camera(
        self,
        camera_name: str,
        values: np.ndarray,
        universe_size: int,
        delta: float,
    ) -> SentinelVerdict | None:
        """Replay one camera's delivered stream through a fresh sentinel.

        Args:
            camera_name: The camera whose values arrived.
            values: The delivered per-frame values, in arrival order.
            universe_size: The camera's eligible-universe size.
            delta: Per-read failure probability for the stream bound.

        Returns:
            The camera's verdict, or None when the sentinel is not armed
            for it.
        """
        if not self.armed_for(camera_name):
            return None
        sentinel = BoundSentinel(
            reference=self._references[camera_name],
            profiled_bound=self._profiled_bounds[camera_name],
            universe_size=universe_size,
            delta=delta,
            min_count=self._min_count,
            patience=self._patience,
            correction=self._corrections.get(camera_name),
            label=camera_name,
        )
        for value in values:
            sentinel.observe(float(value))
        return sentinel.verdict()


@dataclass(frozen=True)
class FleetReport:
    """The structured outcome of one resilient fleet query.

    Attributes:
        combined: The bound-aware estimate over the *surviving* strata —
            valid at confidence ``1 - delta`` for the exact mean across
            the surviving cameras' frames.
        per_camera: Every camera's :class:`CameraReport`, keyed by name.
        delta: The configured total failure probability.
        share: The per-survivor budget actually spent
            (``delta / len(surviving)``).
        surviving: Names of cameras whose data entered the estimate.
        lost: Names of cameras that contributed nothing this query.
        coverage: Fraction of the full fleet's frames the estimate
            covers (1.0 when nothing was lost).
        total_retries: Retry cycles across the whole fleet this query.
        elapsed: Simulated seconds the query took (transfers + backoff).
        sentinel: Per-camera bound-violation audit, or None when the
            processor ran without a :class:`FleetSentinel`.
    """

    combined: Estimate
    per_camera: dict[str, CameraReport]
    delta: float
    share: float
    surviving: tuple[str, ...]
    lost: tuple[str, ...]
    coverage: float
    total_retries: int
    elapsed: float
    sentinel: FleetSentinelAudit | None = None

    @property
    def degraded(self) -> tuple[str, ...]:
        """Names of cameras that delivered, but not cleanly."""
        return tuple(
            name
            for name, report in self.per_camera.items()
            if report.status is CameraStatus.DEGRADED
        )

    @property
    def frames_dropped(self) -> int:
        """Frames lost in flight across the fleet this query."""
        return sum(r.frames_dropped for r in self.per_camera.values())

    @property
    def frames_corrupted(self) -> int:
        """Frames discarded by integrity checks across the fleet."""
        return sum(r.frames_corrupted for r in self.per_camera.values())

    def summary_lines(self) -> list[str]:
        """A printable per-camera table plus the combined answer."""
        lines = [
            f"{'camera':<12} {'status':<9} {'attempts':>8} {'retries':>7} "
            f"{'frames':>11} {'dropped':>7} {'latency':>8}"
        ]
        for name, report in self.per_camera.items():
            frames = f"{report.frames_delivered}/{report.frames_requested}"
            lines.append(
                f"{name:<12} {report.status.value:<9} {report.attempts:>8} "
                f"{report.retries:>7} {frames:>11} "
                f"{report.frames_dropped + report.frames_corrupted:>7} "
                f"{report.latency:>7.2f}s"
            )
        lines.append(
            f"coverage {self.coverage:.1%} of fleet frames "
            f"({len(self.surviving)}/{len(self.per_camera)} cameras); "
            f"per-survivor budget delta/k' = {self.share:.4f}"
        )
        lines.append(
            f"surviving-fleet AVG {self.combined.value:.3f} "
            f"(bounded error {self.combined.error_bound:.3f} "
            f"at {1 - self.delta:.0%})"
        )
        if self.sentinel is not None:
            if self.sentinel.flagged:
                names = ", ".join(self.sentinel.flagged)
                lines.append(
                    f"sentinel: profiled bound VIOLATED at {names} "
                    f"({len(self.sentinel.flagged)}/"
                    f"{len(self.sentinel.verdicts)} audited cameras)"
                )
            else:
                lines.append(
                    f"sentinel: profiled bounds held at all "
                    f"{len(self.sentinel.verdicts)} audited cameras"
                )
        return lines


class FleetQueryProcessor:
    """Fleet execution that survives camera failure with a valid bound.

    Every camera transmits through a seeded faulty channel with
    retry/backoff; a per-camera circuit breaker skips cameras that keep
    failing across queries; and when cameras are lost mid-query the
    remaining ``delta`` budget is re-split across the survivors, whose
    intervals are re-derived at the enlarged share ``delta / k'``. The
    union bound over survivors then spends at most ``delta``, so the
    combined interval remains valid — wider in coverage terms, never
    wrong (see docs/SUBSTRATE.md, "Failure model & graceful degradation").

    All time is simulated (a logical clock advanced by backoff delays and
    transfer latencies); all randomness is seed-derived, so a chaos run
    replays bit-for-bit on a freshly constructed processor.
    """

    def __init__(
        self,
        cameras: list[Camera],
        processor: QueryProcessor,
        faults: FaultModel | None = None,
        fault_seed: RootSeed = 0,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        sentinel: FleetSentinel | None = None,
        executor: ParallelExecutor | None = None,
    ) -> None:
        """Assemble the resilient executor.

        Args:
            cameras: The fleet's cameras; at least one, distinct names,
                non-empty corpora (validated eagerly).
            processor: The central query processor.
            faults: Fault rates to inject, or None for a perfect network.
            fault_seed: Root seed of the injected fault streams.
            retry_policy: Backoff policy; defaults to 3 attempts.
            breaker_threshold: Consecutive failures that open a camera's
                circuit breaker.
            breaker_cooldown: Simulated seconds before an open breaker
                half-opens for a probe.
            sentinel: Optional armed :class:`FleetSentinel`; every
                surviving camera's delivered stream is audited against
                its profiled bound and the verdicts land in the report.
            executor: Optional :class:`ParallelExecutor`; when set, the
                per-camera sampled-values stage fans out through the
                persistent worker pool (transmission, estimation, and
                the sentinel stay sequential in the parent). Results are
                bit-identical to the serial path.
        """
        _validate_cameras(cameras)
        self._cameras = list(cameras)
        self._processor = processor
        self._injector = (
            FaultInjector(faults, fault_seed) if faults is not None else None
        )
        self._policy = retry_policy or RetryPolicy()
        self._breakers = {
            camera.name: CircuitBreaker(breaker_threshold, breaker_cooldown)
            for camera in self._cameras
        }
        self._ledger = HealthLedger()
        self._sentinel = sentinel
        self._executor = executor
        self._clock = 0.0

    @property
    def cameras(self) -> list[Camera]:
        """The fleet's cameras (copy)."""
        return list(self._cameras)

    @property
    def total_frames(self) -> int:
        """Total frames across the full fleet."""
        return sum(camera.dataset.frame_count for camera in self._cameras)

    @property
    def ledger(self) -> HealthLedger:
        """The per-camera health ledger (cumulative across queries)."""
        return self._ledger

    @property
    def clock(self) -> float:
        """The fleet's simulated clock, in seconds."""
        return self._clock

    def breaker_state(self, camera_name: str) -> BreakerState:
        """One camera's circuit-breaker state at the current clock."""
        breaker = self._breakers.get(camera_name)
        if breaker is None:
            raise ConfigurationError(f"unknown camera {camera_name!r}")
        return breaker.state(self._clock)

    def execute(
        self,
        model_for_camera,
        delta: float = 0.05,
        seed: RootSeed = 0,
    ) -> FleetReport:
        """Run one fleet-wide AVG query, degrading gracefully on failure.

        Args:
            model_for_camera: Callable mapping a camera to its detector.
            delta: Total failure probability of the combined bound.
            seed: Seed for frame sampling, retry jitter, and (together
                with the construction-time ``fault_seed``) the fault
                streams; one seed replays the whole query exactly. An int,
                or a keyed root such as ``(root, key, trial)``.

        Returns:
            The :class:`FleetReport`; its combined interval covers the
            exact surviving-fleet mean with probability >= ``1 - delta``.

        Raises:
            TransmissionError: No camera delivered anything — there is no
                surviving stratum to answer from.
            EstimationError: ``delta`` is outside ``(0, 1)``.
        """
        if not 0.0 < delta < 1.0:
            raise EstimationError(f"delta must lie in (0, 1), got {delta}")
        with telemetry.span(
            "fleet.execute", cameras=len(self._cameras), seed=seed
        ):
            return self._execute_timed(model_for_camera, delta, seed)

    def _camera_values(
        self,
        model_for_camera,
        deliveries: dict[str, ChannelDelivery],
        share: float,
    ) -> dict[str, np.ndarray]:
        """Sampled values for every delivered camera, keyed by name.

        When an executor is configured and more than one camera delivered,
        the per-camera computations fan out through the persistent worker
        pool (each camera's corpus rides the shared-memory data plane when
        published); otherwise they run in-process. Both paths evaluate the
        same pure function, so results are bit-identical.
        """
        delivered = [
            camera for camera in self._cameras if camera.name in deliveries
        ]
        units = [
            CameraValuesUnit(
                query=AggregateQuery(
                    camera.dataset,
                    model_for_camera(camera),
                    Aggregate.AVG,
                    delta=share,
                ),
                sample=deliveries[camera.name].sample,
                suite=self._processor.suite,
            )
            for camera in delivered
        ]
        if self._executor is not None and len(units) > 1:
            values = self._executor.map(run_camera_values_unit, units)
        else:
            values = [
                self._processor.values_for_sample(unit.query, unit.sample)
                for unit in units
            ]
        return {
            camera.name: camera_values
            for camera, camera_values in zip(delivered, values)
        }

    def _execute_timed(
        self,
        model_for_camera,
        delta: float,
        seed: RootSeed,
    ) -> FleetReport:
        """The span-timed body of :meth:`execute`."""
        started = self._clock
        deliveries: dict[str, ChannelDelivery] = {}
        partial: dict[str, dict] = {}
        for index, camera in enumerate(self._cameras):
            partial[camera.name] = self._transmit_one(camera, index, seed)
            delivery = partial[camera.name]["delivery"]
            if delivery is not None:
                deliveries[camera.name] = delivery

        if not deliveries:
            reasons = "; ".join(
                f"{name}: {meta['reason']}" for name, meta in partial.items()
            )
            raise TransmissionError(
                f"no camera delivered a sample this query ({reasons})"
            )

        share = resplit_delta(delta, len(deliveries))
        estimator = SmokescreenMeanEstimator()
        surviving_frames = sum(
            camera.dataset.frame_count
            for camera in self._cameras
            if camera.name in deliveries
        )
        total_frames = float(self.total_frames)

        values_by_camera = self._camera_values(
            model_for_camera, deliveries, share
        )

        strata: list[StratumInterval] = []
        reports: dict[str, CameraReport] = {}
        verdicts: dict[str, SentinelVerdict] = {}
        for camera in self._cameras:
            meta = partial[camera.name]
            weight = camera.dataset.frame_count / total_frames
            delivery = meta["delivery"]
            estimate = None
            if delivery is not None:
                values = values_by_camera[camera.name]
                estimate = estimator.estimate(
                    values, delivery.sample.universe_size, share
                )
                if self._sentinel is not None:
                    verdict = self._sentinel.audit_camera(
                        camera.name, values,
                        delivery.sample.universe_size, share,
                    )
                    if verdict is not None:
                        verdicts[camera.name] = verdict
                strata.append(
                    StratumInterval(
                        weight=camera.dataset.frame_count / surviving_frames,
                        mean=estimate.value,
                        lower=estimate.extras["lower"],
                        upper=estimate.extras["upper"],
                        n=estimate.n,
                    )
                )
            reports[camera.name] = CameraReport(
                name=camera.name,
                status=meta["status"],
                weight=weight,
                attempts=meta["attempts"],
                retries=meta["retries"],
                frames_requested=delivery.requested if delivery else 0,
                frames_delivered=delivery.delivered if delivery else 0,
                frames_dropped=delivery.dropped if delivery else 0,
                frames_corrupted=delivery.corrupted if delivery else 0,
                latency=meta["latency"],
                straggler=bool(delivery.straggler) if delivery else False,
                breaker_state=self._breakers[camera.name].state(self._clock),
                estimate=estimate,
                reason=meta["reason"],
            )

        combined = combine_stratum_intervals(
            strata,
            universe_size=surviving_frames,
            method="smokescreen-fleet-resilient",
        )
        surviving = tuple(
            camera.name for camera in self._cameras
            if camera.name in deliveries
        )
        lost = tuple(
            camera.name for camera in self._cameras
            if camera.name not in deliveries
        )
        if lost:
            telemetry.count("fleet.cameras_lost", len(lost))
        audit = None
        if self._sentinel is not None:
            flagged = tuple(
                camera.name for camera in self._cameras
                if verdicts.get(camera.name) is not None
                and verdicts[camera.name].tripped
            )
            audit = FleetSentinelAudit(verdicts=verdicts, flagged=flagged)
        event_fields = {
            "cameras": len(self._cameras),
            "lost": len(lost),
            "coverage": round(surviving_frames / total_frames, 6),
            "bound": round(float(combined.error_bound), 6),
            "retries": sum(meta["retries"] for meta in partial.values()),
        }
        if audit is not None:
            event_fields["sentinel_audited"] = len(audit.verdicts)
            event_fields["sentinel_flagged"] = list(audit.flagged)
        run_ledger.record_event("fleet.execute", **event_fields)
        # Hierarchical camera -> shard -> fleet telemetry rollup: merged
        # onto the run record as facts.fleet.telemetry and rendered by
        # ``repro runs show``.
        aggregator = TelemetryAggregator()
        for camera in self._cameras:
            report = reports[camera.name]
            verdict = verdicts.get(camera.name)
            aggregator.add_camera(
                camera.name,
                latency=report.latency,
                frames=report.frames_delivered,
                status=report.status.name.lower(),
                violation=bool(verdict is not None and verdict.tripped),
            )
        run_ledger.annotate(fleet={"telemetry": aggregator.rollup()})
        return FleetReport(
            combined=combined,
            per_camera=reports,
            delta=delta,
            share=share,
            surviving=surviving,
            lost=lost,
            coverage=surviving_frames / total_frames,
            total_retries=sum(meta["retries"] for meta in partial.values()),
            elapsed=self._clock - started,
            sentinel=audit,
        )

    def _transmit_one(
        self,
        camera: Camera,
        index: int,
        query_seed: RootSeed,
    ) -> dict:
        """One camera's transmit-with-retry, with breaker and ledger.

        The camera at ``index`` samples frames from ``child_rng(query_seed,
        index, 0)`` and jitters its retries from ``child_rng(query_seed,
        index, 1)``.
        """
        breaker = self._breakers[camera.name]
        health = self._ledger.health(camera.name)
        base = {
            "delivery": None,
            "attempts": 0,
            "retries": 0,
            "latency": 0.0,
            "status": CameraStatus.LOST,
        }
        if not breaker.allow(self._clock):
            health.skipped_queries += 1
            telemetry.count("fleet.skipped_queries")
            telemetry.log_event(
                _LOG,
                logging.WARNING,
                "fleet.camera_skipped",
                camera=camera.name,
                reason="circuit breaker open",
            )
            return {**base, "reason": "circuit breaker open"}

        sample_rng = child_rng(query_seed, index, 0)
        retry_rng = child_rng(query_seed, index, 1)
        if self._injector is not None:
            channel = self._injector.channel(camera, query_seed)
        else:
            channel = _PerfectChannel(camera)

        try:
            outcome = transmit_with_retry(
                channel, sample_rng, self._policy, retry_rng
            )
        except CameraOutageError as error:
            health.attempts += 1
            health.failures += 1
            health.last_error = str(error)
            breaker.record_failure(self._clock)
            telemetry.count("fleet.attempts")
            telemetry.count("fleet.failures")
            telemetry.log_event(
                _LOG,
                logging.WARNING,
                "fleet.camera_lost",
                camera=camera.name,
                reason=str(error),
            )
            return {**base, "attempts": 1, "reason": str(error)}
        except TransmissionError as error:
            attempts = getattr(error, "attempts", self._policy.max_attempts)
            retries = getattr(error, "retries", attempts - 1)
            backoff = getattr(error, "backoff", 0.0)
            health.attempts += attempts
            health.failures += attempts
            health.retries += retries
            health.latency += backoff
            health.last_error = str(error)
            for _ in range(attempts):
                breaker.record_failure(self._clock)
            self._clock += backoff
            telemetry.count("fleet.attempts", attempts)
            telemetry.count("fleet.failures", attempts)
            telemetry.count("fleet.retries", retries)
            telemetry.log_event(
                _LOG,
                logging.WARNING,
                "fleet.camera_lost",
                camera=camera.name,
                reason=str(error),
            )
            return {
                **base,
                "attempts": attempts,
                "retries": retries,
                "latency": backoff,
                "reason": str(error),
            }

        delivery = outcome.delivery
        latency = outcome.backoff + delivery.latency
        health.attempts += outcome.attempts
        health.successes += 1
        health.failures += outcome.attempts - 1
        health.retries += outcome.retries
        health.frames_dropped += delivery.dropped
        health.frames_corrupted += delivery.corrupted
        health.latency += latency
        for _ in range(outcome.attempts - 1):
            breaker.record_failure(self._clock)
        breaker.record_success(self._clock)
        self._clock += latency
        telemetry.count("fleet.attempts", outcome.attempts)
        telemetry.count("fleet.retries", outcome.retries)
        if delivery.dropped:
            telemetry.count("fleet.frames_dropped", delivery.dropped)
        if delivery.corrupted:
            telemetry.count("fleet.frames_corrupted", delivery.corrupted)

        clean = (
            outcome.retries == 0
            and not delivery.lossy
            and not delivery.straggler
        )
        return {
            "delivery": delivery,
            "attempts": outcome.attempts,
            "retries": outcome.retries,
            "latency": latency,
            "status": CameraStatus.OK if clean else CameraStatus.DEGRADED,
            "reason": None,
        }


class _PerfectChannel:
    """A fault-free stand-in channel (no injector configured)."""

    def __init__(self, camera: Camera) -> None:
        self._camera = camera

    @property
    def name(self) -> str:
        return self._camera.name

    def transmit(self, rng: np.random.Generator) -> ChannelDelivery:
        sample = self._camera.transmit(rng)
        return ChannelDelivery(
            sample=sample,
            requested=sample.size,
            delivered=sample.size,
            dropped=0,
            corrupted=0,
            latency=0.0,
            straggler=False,
        )
