"""The four workloads: inputs made from the seed, the measured phases,
their end-to-end numbers and their correctness checks.

``bound``, ``stream`` and ``profile-mix`` drive the daemon over HTTP
from one event loop with at most two connections in flight (the host
has two CPUs). ``sweep`` runs in a child process of its own (see
launcher.py). Every latency is in seconds here; run.py converts units.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field

import oracles
from loadgen import closed_loop, encode, exchange, open_loop

HOST = "127.0.0.1"
DATASET = "ua-detrac"

#: ``/bound`` plans, drawn uniformly per request (all AVG).
PLANS = (
    {"fraction": 0.05},
    {"fraction": 0.25},
    {"fraction": 1.0},
    {"fraction": 0.25, "resolution": 320},
)

#: Requests rotate over this many tenants, so the daemon's default budget
#: of 50 requests/s per tenant never refuses the traffic sent here.
TENANTS = 8

#: Open-loop ``/bound`` rates. The daemon's capacity on a two-CPU host
#: was 127-260 requests/s as host speed drifted; these rates keep the
#: open loops clear of saturation even in slow periods, where a queue
#: that never drains would turn the latency into a measure of backlog.
BOUND_RATE = 80.0
MIX_BOUND_RATE = 20.0
#: Share of a ``bound`` run spent in its open loop; the rest measures
#: capacity in a closed loop.
OPEN_SHARE = 2.0 / 3.0

CHUNK_VALUES = 10_000
CLEAN_PER_SESSION = 8
HOSTILE_PER_SESSION = 4
CHUNK_POOL = (16, 8)
HOSTILE_SCENARIO = ("weather", 0.95)

PROFILE = {"trials": 20, "fraction_step": 0.1, "resolution_count": 10}
#: ``/profile`` answers re-priced by the oracle per run (the first ones):
#: each costs as much as the request itself.
PROFILE_CHECKS = 4


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


@dataclass
class Outcome:
    """What one measured run of a workload produced.

    Attributes:
        latencies: Latencies of the workload's main operation that
            succeeded, seconds.
        work: ``(start, end, amount)`` of the operations whose rate is
            the workload's throughput (see each workload).
        attempted: Operations sent in the measured phases.
        failed: Non-200 responses plus answers the oracles rejected.
        window: ``perf_counter`` span of the phase counters cover.
        primary: ``(rid, latency)`` of main operations, for attribution.
        secondary: The same for a second operation kind, if any.
        late: Generator lag per open-loop request it slept for, seconds.
        extra: Further numbers kept in the details file.
    """

    latencies: list
    work: list
    attempted: int
    failed: int
    window: tuple
    primary: list
    secondary: list = field(default_factory=list)
    late: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def rid(phase: int, index: int) -> str:
    """A request id the daemon accepts as a trace id (lower-case hex)."""
    return f"{phase:x}{index:015x}"


def post(path: str, payload: dict, request_id: str) -> bytes:
    return encode(path, json.dumps(payload).encode(), request_id)


def bound_payload(rng: random.Random, index: int) -> dict:
    return {
        "dataset": DATASET,
        "aggregate": "avg",
        **PLANS[rng.randrange(len(PLANS))],
        "seed": rng.randrange(1 << 31),
        "tenant": f"t{index % TENANTS}",
    }


def poisson(rng: random.Random, rate: float, seconds: float, phase: int):
    """An open-loop ``/bound`` schedule with Poisson arrivals."""
    schedule, offset = [], 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= seconds:
            return schedule
        payload = bound_payload(rng, len(schedule))
        request_id = rid(phase, len(schedule))
        schedule.append(
            (offset, post("/bound", payload, request_id), request_id, payload)
        )


def ok(samples) -> list:
    return [sample for sample in samples if sample.status == 200]


def work(samples, amount=lambda sample: 1) -> list:
    """``(start, end, amount)`` of each sample, for ``Outcome.work``."""
    return [(sample.due, sample.end, amount(sample)) for sample in samples]


class DaemonWorkload:
    """A traffic mix against a running daemon."""

    name = ""
    workers = 1

    def warm_requests(self) -> list:
        """``(path, payload)`` sent once before timing (set-up)."""
        return [("/bound", {"dataset": DATASET, "seed": 1, **plan})
                for plan in PLANS]

    async def warm(self, port: int) -> None:
        for index, (path, payload) in enumerate(self.warm_requests()):
            status, body = await exchange(
                HOST, port, post(path, payload, rid(0, index))
            )
            if status != 200:
                raise BenchError(f"set-up request {path} got {status}: "
                                 f"{body[:200]!r}")

    async def drive(self, port: int) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError


class Bound(DaemonWorkload):
    """Open-loop Poisson ``/bound`` at 80/s, then a closed loop on two
    connections that measures capacity."""

    name = "bound"

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        self.open_seconds = seconds * OPEN_SHARE
        self.closed_seconds = seconds - self.open_seconds
        self.schedule = poisson(rng, BOUND_RATE, self.open_seconds, 1)
        self.closed = []
        # More than the daemon can answer in the closed phase.
        for index in range(int(600 * self.closed_seconds) + 50):
            payload = bound_payload(rng, index)
            request_id = rid(2, index)
            self.closed.append(
                (post("/bound", payload, request_id), request_id, payload)
            )

    async def drive(self, port: int) -> None:
        self.open_samples, self.late = [], []
        self.open_start = time.perf_counter()
        await open_loop(HOST, port, self.schedule, 2, self.open_samples,
                        self.late)
        self.open_end = time.perf_counter()
        self.closed_samples = []
        requests = iter(self.closed)
        deadline = time.perf_counter() + self.closed_seconds
        await asyncio.gather(*(
            closed_loop(HOST, port, requests, deadline, self.closed_samples)
            for _ in range(2)
        ))

    def outcome(self) -> Outcome:
        samples = self.open_samples + self.closed_samples
        good = ok(samples)
        wrong = oracles.check_bound(good)
        served = ok(self.open_samples)
        return Outcome(
            latencies=[sample.latency for sample in served],
            work=work(ok(self.closed_samples)),
            attempted=len(samples),
            failed=len(samples) - len(good) + wrong,
            window=(self.open_start, self.open_end),
            primary=[(sample.rid, sample.latency) for sample in served],
            late=self.late,
        )


_chunk_pool: tuple | None = None


def chunk_pool(seed: int) -> tuple[list, list]:
    """Clean and hostile 10k-value chunks drawn from the UA-DETRAC feeds.

    Returns:
        ``(chunks, encoded)``: value lists and their JSON encodings; the
        first ``CHUNK_POOL[0]`` are clean, the rest hostile.
    """
    global _chunk_pool
    if _chunk_pool is not None and _chunk_pool[0] == seed:
        return _chunk_pool[1:]
    import numpy as np
    from repro.experiments.chaos_sweep import SCENARIOS
    from repro.experiments.workloads import load_dataset, model_for

    dataset = load_dataset(DATASET)
    model = model_for(DATASET)
    clean = model.run(dataset).counts.astype(float)
    scenario, severity = HOSTILE_SCENARIO
    hostile = (
        SCENARIOS[scenario].build(severity).attach(model).run(dataset).counts
    ).astype(float)
    rng = np.random.default_rng(seed)
    chunks = [
        rng.choice(feed, size=CHUNK_VALUES, replace=False).tolist()
        for feed, count in zip((clean, hostile), CHUNK_POOL)
        for _ in range(count)
    ]
    encoded = [json.dumps(chunk).encode() for chunk in chunks]
    _chunk_pool = (seed, chunks, encoded)
    return chunks, encoded


class Stream(DaemonWorkload):
    """Closed loop on one connection: each session opens ``/stream``,
    sends 8 clean chunks, then 4 hostile ones (weather at 0.95)."""

    name = "stream"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.chunks, self.encoded = chunk_pool(seed)

    async def warm(self, port: int) -> None:
        # One full session; the stream it opens is skipped by the oracle.
        self.samples = []
        session = itertools.islice(
            self._sessions(random.Random(-1), 0),
            1 + CLEAN_PER_SESSION + HOSTILE_PER_SESSION,
        )
        await closed_loop(HOST, port, session, float("inf"), self.samples)
        if any(sample.status != 200 for sample in self.samples):
            raise BenchError("set-up stream session failed")

    def _sessions(self, rng: random.Random, phase: int):
        """Requests of consecutive sessions; reads the open's response."""
        clean, hostile = CHUNK_POOL
        index = 0
        for session in itertools.count():
            tenant = f"t{session % TENANTS}"
            payload = {"dataset": DATASET, "tenant": tenant}
            request_id = rid(phase, index)
            index += 1
            yield post("/stream", payload, request_id), request_id, payload
            opened = self.samples[-1]
            if opened.status != 200:
                continue
            stream_id = json.loads(opened.body)["id"]
            picks = rng.sample(range(clean), CLEAN_PER_SESSION) + [
                clean + k for k in rng.sample(range(hostile),
                                              HOSTILE_PER_SESSION)
            ]
            prefix = json.dumps({"id": stream_id, "tenant": tenant})[:-1]
            for pick in picks:
                body = prefix.encode() + b', "values": ' + self.encoded[pick] + b"}"
                payload = {
                    "id": stream_id, "tenant": tenant,
                    "values": self.chunks[pick],
                }
                request_id = rid(phase, index)
                index += 1
                yield encode("/stream", body, request_id), request_id, payload

    async def drive(self, port: int) -> None:
        self.samples = []
        self.start = time.perf_counter()
        await closed_loop(
            HOST, port, self._sessions(random.Random(self.seed), 4),
            self.start + self.seconds, self.samples,
        )
        self.end = time.perf_counter()

    def outcome(self) -> Outcome:
        good = ok(self.samples)
        wrong = oracles.check_stream(good, skipped_opens=1)
        chunks = [sample for sample in good if "id" in sample.tag]
        return Outcome(
            latencies=[sample.latency for sample in chunks],
            # Opens count with no values, so their time counts too.
            work=work(good, lambda sample: len(sample.tag.get("values", ()))),
            attempted=len(self.samples),
            failed=len(self.samples) - len(good) + wrong,
            window=(self.start, self.end),
            primary=[(sample.rid, sample.latency) for sample in chunks],
        )


class ProfileMix(DaemonWorkload):
    """Daemon with two workers: connection A runs ``/profile`` cache
    misses back to back, connection B sends open-loop ``/bound`` at 20/s."""

    name = "profile-mix"
    workers = 2

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        self.seconds = seconds
        self.schedule = poisson(rng, MIX_BOUND_RATE, seconds, 1)
        self.profiles = []
        for index in range(int(10 * seconds) + 10):
            payload = {
                "dataset": DATASET, "aggregate": "avg",
                "seed": rng.randrange(1 << 31), **PROFILE,
                "tenant": f"t{index % TENANTS}",
            }
            request_id = rid(3, index)
            self.profiles.append(
                (post("/profile", payload, request_id), request_id, payload)
            )

    def warm_requests(self) -> list:
        profile = {"dataset": DATASET, "aggregate": "avg", "seed": 0, **PROFILE}
        return super().warm_requests() + [("/profile", profile)]

    async def drive(self, port: int) -> None:
        self.bound_samples, self.late, self.profile_samples = [], [], []
        self.start = time.perf_counter()
        await asyncio.gather(
            open_loop(HOST, port, self.schedule, 1, self.bound_samples,
                      self.late),
            closed_loop(HOST, port, iter(self.profiles),
                        self.start + self.seconds, self.profile_samples),
        )
        self.end = time.perf_counter()

    def outcome(self) -> Outcome:
        samples = self.bound_samples + self.profile_samples
        bounds, profiles = ok(self.bound_samples), ok(self.profile_samples)
        bound_wrong = oracles.check_bound(bounds)
        profile_wrong = oracles.check_profile(profiles[:PROFILE_CHECKS])
        return Outcome(
            latencies=[sample.latency for sample in bounds],
            work=work(profiles),
            attempted=len(samples),
            failed=(len(samples) - len(bounds) - len(profiles)
                    + bound_wrong + profile_wrong),
            window=(self.start, self.end),
            primary=[(sample.rid, sample.latency) for sample in bounds],
            secondary=[(sample.rid, sample.latency) for sample in profiles],
            late=self.late,
            extra={"profile_latencies": [s.latency for s in profiles]},
        )


DAEMON_WORKLOADS = {cls.name: cls for cls in (Bound, Stream, ProfileMix)}
