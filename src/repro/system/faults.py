"""Deterministic, seed-driven fault injection for camera transmission.

The paper's deployment (§1) is a fleet of networked cameras shipping
degraded video to one central processor — precisely the setting where
cameras drop out, links flap, frames arrive corrupted, and stragglers
stall a query. This module injects those failures *deterministically*:
every fault a :class:`FaultyChannel` produces is a pure function of a
:class:`FaultModel` and a seed, so a chaos run can be replayed
bit-for-bit and a bound violation can be bisected to the exact fault
sequence that produced it.

Fault taxonomy (each independently tunable):

- **Camera outage** — the camera is unreachable for the whole query;
  every attempt raises :class:`~repro.errors.CameraOutageError`.
- **Transient transmission failure** — one transmit attempt fails with
  :class:`~repro.errors.TransmissionError`; a retry may succeed.
- **Per-frame drop / corruption** — individual frames of a delivered
  sample are lost in flight or fail their checksum. Corrupted frames are
  *discarded, never silently ingested* (distorted frames poison
  downstream answers); since faults are drawn independently of frame
  content, the surviving frames remain a uniform without-replacement
  sample and the Hoeffding–Serfling bound stays valid at the smaller
  ``n`` — wider, not wrong.
- **Straggler latency** — the transfer completes but late; latency is
  simulated time recorded in the delivery (and the fleet health ledger),
  never wall-clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CameraOutageError,
    FaultInjectionError,
    TransmissionError,
)
from repro.interventions.plan import DegradedSample
from repro.system.camera import Camera
from repro.system.executor import RootSeed, normalize_root
from repro.system.resilience import RetryPolicy


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultModel:
    """The fault rates a channel injects (all zero = perfect network).

    Attributes:
        outage_probability: Per-query probability the camera is entirely
            unreachable (every attempt fails until the next query).
        transient_failure_probability: Per-attempt probability one
            transmit attempt fails; independent across attempts, so
            retries can succeed.
        frame_drop_probability: Per-frame probability a transmitted frame
            is lost in flight.
        frame_corruption_probability: Per-frame probability a delivered
            frame fails its integrity check and is discarded.
        straggler_probability: Per-delivery probability the transfer
            straggles, adding :attr:`straggler_latency`.
        straggler_latency: Simulated seconds a straggling delivery adds.
        nominal_latency: Simulated seconds of a healthy delivery.
    """

    outage_probability: float = 0.0
    transient_failure_probability: float = 0.0
    frame_drop_probability: float = 0.0
    frame_corruption_probability: float = 0.0
    straggler_probability: float = 0.0
    straggler_latency: float = 5.0
    nominal_latency: float = 0.05

    def __post_init__(self) -> None:
        _check_probability("outage probability", self.outage_probability)
        _check_probability(
            "transient failure probability", self.transient_failure_probability
        )
        _check_probability("frame drop probability", self.frame_drop_probability)
        _check_probability(
            "frame corruption probability", self.frame_corruption_probability
        )
        _check_probability("straggler probability", self.straggler_probability)
        if self.straggler_latency < 0.0:
            raise FaultInjectionError(
                f"straggler latency must be non-negative, got {self.straggler_latency}"
            )
        if self.nominal_latency < 0.0:
            raise FaultInjectionError(
                f"nominal latency must be non-negative, got {self.nominal_latency}"
            )

    @property
    def is_null(self) -> bool:
        """True when no fault can ever fire (the perfect-network model)."""
        return (
            self.outage_probability == 0.0
            and self.transient_failure_probability == 0.0
            and self.frame_drop_probability == 0.0
            and self.frame_corruption_probability == 0.0
            and self.straggler_probability == 0.0
        )


@dataclass(frozen=True)
class ChannelDelivery:
    """One successful (possibly lossy) transmission through a channel.

    Attributes:
        sample: The degraded sample as received — dropped and corrupted
            frames already removed, ``universe_size`` untouched.
        requested: Frames the camera put on the wire.
        delivered: Frames that survived drop and corruption.
        dropped: Frames lost in flight.
        corrupted: Frames discarded by the integrity check.
        latency: Simulated seconds the transfer took.
        straggler: Whether the transfer straggled.
    """

    sample: DegradedSample
    requested: int
    delivered: int
    dropped: int
    corrupted: int
    latency: float
    straggler: bool

    @property
    def lossy(self) -> bool:
        """True when any frame was dropped or corrupted."""
        return self.dropped > 0 or self.corrupted > 0


def _camera_key(name: str) -> int:
    """A stable 64-bit key for a camera name (platform-independent)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class FaultInjector:
    """Builds per-camera faulty channels with reproducible randomness.

    The fault stream of a channel is keyed by ``(injector seed, camera
    name, query seed)``: re-running a query with the same seeds replays
    the exact same outages, drops, and stragglers, while different query
    seeds explore independent fault realisations.
    """

    def __init__(self, model: FaultModel, seed: RootSeed = 0) -> None:
        """Create an injector.

        Args:
            model: The fault rates to inject.
            seed: Root seed of every fault stream this injector hands out
                (an int, or a keyed root such as ``(root, key, index)``).
        """
        if not isinstance(model, FaultModel):
            raise FaultInjectionError(
                f"model must be a FaultModel, got {type(model).__name__}"
            )
        self._model = model
        self._seed = normalize_root(seed)

    @property
    def model(self) -> FaultModel:
        """The injected fault rates."""
        return self._model

    @property
    def seed(self) -> tuple[int, ...]:
        """The injector's root seed, as an entropy tuple."""
        return self._seed

    def fault_rng(
        self, camera_name: str, query_seed: RootSeed
    ) -> np.random.Generator:
        """The deterministic fault stream for one camera and one query."""
        sequence = np.random.SeedSequence(
            entropy=(
                *self._seed,
                _camera_key(camera_name),
                *normalize_root(query_seed),
            )
        )
        return np.random.default_rng(sequence)

    def channel(self, camera: Camera, query_seed: RootSeed) -> "FaultyChannel":
        """A fresh faulty channel for one camera's part of one query."""
        return FaultyChannel(
            camera, self._model, self.fault_rng(camera.name, query_seed)
        )


class FaultyChannel:
    """Wraps :meth:`Camera.transmit` behind an unreliable network path.

    One channel serves one camera for one query: the outage draw happens
    once at construction (an outage persists across retries), while
    transient failures, frame drops, corruption, and straggling are drawn
    per attempt from the channel's own fault stream — never from the
    sampling RNG, so faults do not perturb which frames are sampled.
    """

    def __init__(
        self,
        camera: Camera,
        model: FaultModel,
        fault_rng: np.random.Generator,
    ) -> None:
        """Create the channel (draws the query-scoped outage).

        Args:
            camera: The camera behind the channel.
            model: The fault rates.
            fault_rng: The channel's private fault stream.
        """
        self._camera = camera
        self._model = model
        self._rng = fault_rng
        self._out = bool(self._rng.random() < model.outage_probability)

    @property
    def camera(self) -> Camera:
        """The camera behind this channel."""
        return self._camera

    @property
    def name(self) -> str:
        """The camera's name."""
        return self._camera.name

    @property
    def is_out(self) -> bool:
        """True when the camera suffered a query-scoped outage."""
        return self._out

    def transmit(self, rng: np.random.Generator) -> ChannelDelivery:
        """One transmit attempt through the faulty path.

        Args:
            rng: Sampling randomness handed to the camera (kept separate
                from the fault stream).

        Returns:
            The delivery, with dropped/corrupted frames removed.

        Raises:
            CameraOutageError: The camera is out for this whole query.
            TransmissionError: This attempt failed transiently, or every
                frame of the attempt was lost or corrupted.
        """
        if self._out:
            raise CameraOutageError(f"camera {self.name!r} is unreachable")
        if self._rng.random() < self._model.transient_failure_probability:
            raise TransmissionError(
                f"transient transmission failure from camera {self.name!r}"
            )
        sample = self._camera.transmit(rng)
        requested = sample.size

        draws = self._rng.random((2, requested))
        dropped_mask = draws[0] < self._model.frame_drop_probability
        corrupted_mask = (
            draws[1] < self._model.frame_corruption_probability
        ) & ~dropped_mask
        survivors = ~(dropped_mask | corrupted_mask)
        dropped = int(dropped_mask.sum())
        corrupted = int(corrupted_mask.sum())

        straggler = bool(self._rng.random() < self._model.straggler_probability)
        latency = self._model.nominal_latency + (
            self._model.straggler_latency if straggler else 0.0
        )

        if not survivors.any():
            raise TransmissionError(
                f"camera {self.name!r}: all {requested} frames lost in flight "
                f"({dropped} dropped, {corrupted} corrupted)"
            )

        received = DegradedSample(
            frame_indices=sample.frame_indices[survivors],
            universe_size=sample.universe_size,
            population_size=sample.population_size,
            resolution=sample.resolution,
            quality=sample.quality,
        )
        return ChannelDelivery(
            sample=received,
            requested=requested,
            delivered=int(survivors.sum()),
            dropped=dropped,
            corrupted=corrupted,
            latency=latency,
            straggler=straggler,
        )


@dataclass(frozen=True)
class RetryOutcome:
    """A successful transmit-with-retry, with its accounting.

    Attributes:
        delivery: The delivery of the succeeding attempt.
        attempts: Attempts made, including the success.
        retries: Backoff-then-retry cycles taken (``attempts - 1``).
        backoff: Total simulated seconds spent backing off.
    """

    delivery: ChannelDelivery
    attempts: int
    retries: int
    backoff: float


def transmit_with_retry(
    channel,
    sample_rng: np.random.Generator,
    policy: RetryPolicy,
    retry_rng: np.random.Generator,
) -> RetryOutcome:
    """Drive one channel through a retry-with-backoff policy.

    Transient :class:`~repro.errors.TransmissionError` attempts are
    retried with exponential backoff and seeded jitter until the policy's
    attempt budget runs out; a :class:`~repro.errors.CameraOutageError`
    propagates immediately (the outage persists for the whole query, so
    retrying cannot help).

    Args:
        channel: A :class:`FaultyChannel`-shaped object (``name`` and
            ``transmit``).
        sample_rng: Sampling randomness handed to each attempt.
        policy: The retry/backoff policy.
        retry_rng: Seeded randomness for the backoff jitter.

    Returns:
        The successful delivery with its retry accounting.

    Raises:
        CameraOutageError: The camera is out for the whole query.
        TransmissionError: Every attempt failed; the escalated error
            carries ``attempts``, ``retries``, and ``backoff`` attributes
            so callers can account for the simulated time spent.
    """
    backoff = 0.0
    last: TransmissionError | None = None
    for attempt in range(policy.max_attempts):
        try:
            delivery = channel.transmit(sample_rng)
        except CameraOutageError:
            raise
        except TransmissionError as error:
            last = error
            if attempt + 1 < policy.max_attempts:
                backoff += policy.backoff_delay(attempt, retry_rng)
            continue
        return RetryOutcome(
            delivery=delivery,
            attempts=attempt + 1,
            retries=attempt,
            backoff=backoff,
        )
    escalated = TransmissionError(
        f"camera {channel.name!r}: {policy.max_attempts} transmit attempts "
        f"exhausted (last: {last})"
    )
    escalated.attempts = policy.max_attempts
    escalated.retries = policy.max_attempts - 1
    escalated.backoff = backoff
    raise escalated
