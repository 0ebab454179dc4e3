"""Profile-as-a-service: the long-lived ``repro serve`` daemon.

Every CLI invocation re-pays Python import, dataset generation, detector
cache warmup and (before the persistent pool) pool spawn — for a
steady-state estimation kernel of ~0.01s, the fixed overhead *is* the
latency of an interactive profile/bound query. This module keeps all of
that hot in one process and serves many concurrent tenants over
HTTP+JSON, using only the standard library (``asyncio`` streams; no
framework, no new dependencies):

- **Hot state** (:class:`ServeSession`): built
  :class:`~repro.video.dataset.VideoDataset` corpora (published once
  through the shared-memory plane of :mod:`repro.system.shm`), the
  persistent detector disk cache, per-query frame-value memos, cached
  degradation hypercubes, and the persistent
  :class:`~repro.system.executor.WorkerPool`.
- **Micro-batching** (:class:`MicroBatcher`): an admission-controlled
  request queue coalesces *compatible* queued requests — same corpus,
  detector, degradation plan, aggregate and estimator — into a single
  :func:`~repro.estimators.dispatch.estimate_rows` kernel call,
  turning N concurrent single-trial requests into one ``(N, n)``
  :class:`~repro.stats.prefix_moments.PrefixMoments` pass. Every request
  keeps its own seed stream, so batched answers are **bit-identical** to
  the same requests issued serially (each serial request is a 1-row call
  through the very same kernel; all row-wise operations are independent
  of the number of rows stacked).
- **Admission control**: a global queue-depth cap plus per-tenant token
  buckets; over-budget tenants get HTTP 429 and a
  ``serve.rejected`` run-ledger event instead of degrading everyone's
  latency.
- **Live observability**: the Prometheus exporter of
  :mod:`repro.system.observe` is mounted at ``GET /metrics`` over the
  live telemetry registry, and per-tenant accounting lands on the
  run-ledger record the daemon's run appends on shutdown.

Endpoints (the rows of :data:`ENDPOINTS`; all bodies are JSON):

=====================  ====================================================
``GET  /healthz``      liveness + uptime
``GET  /metrics``      Prometheus text exposition of the live registry
                       (labeled per-endpoint/per-tenant latency families)
``GET  /stats``        batcher/session/tenant counters + pool diagnostics
                       + sliding p50/p95/p99 latency windows (``slo``)
``GET  /traces``       recent trace summaries from the in-memory ring
``GET  /traces/<id>``  every retained span event of one trace
``POST /estimate``     one degraded query -> estimate + bound (micro-batched)
``POST /bound``        same kernel, bound-only response (micro-batched)
``POST /profile``      corrected hypercube slices (fingerprint-cached)
``POST /choose``       tradeoff choice over a (cached) profile
``POST /stream``       without ``id``: open a hot stream (sentinel armed);
                       with ``id`` and ``values``: ingest a chunk -> check
``GET  /stream/<id>``  one stream's readout: value, bound and verdict
``POST /shutdown``     graceful drain + exit
=====================  ====================================================

Every request body is checked once, against one table of typed rows
(:mod:`repro.system.schema`): :data:`QUERY` for the four query endpoints
(``/choose`` also requires ``max_error``), :data:`STREAM_OPEN` and
:data:`STREAM_INGEST` for ``/stream``. A bad value, a missing required
field or a key no row names is a 400 whose message names the field.

Every query request mints a :class:`~repro.system.observe.tracing.
TraceContext` (honouring an inbound ``X-Repro-Trace-Id`` header), so the
HTTP handler span, the micro-batched kernel span (fan-in links to every
coalesced request) and pool-worker unit spans share one trace id —
inspect with ``repro trace`` or ``GET /traces``. A crash flight recorder
dumps the last spans to the run ledger on unhandled errors and SIGQUIT.

Shutdown (``POST /shutdown``, SIGINT or SIGTERM) is graceful end to end:
the listener closes, the queue drains through the batcher, tenant
accounting is annotated onto the active run-ledger record, and the
worker pool and every shared-memory segment are torn down — a lifecycle
test asserts ``/dev/shm`` is empty afterwards.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import reprlib
import signal
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.smokescreen import Smokescreen
from repro.core.tradeoff import PublicPreferences, choose_tradeoff
from repro.detection import diskcache
from repro.errors import ReproError
from repro.estimators.dispatch import estimate_rows, method_names
from repro.experiments.workloads import (
    DATASET_NAMES,
    load_dataset,
    model_for,
    shared_suite,
)
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.system import shm, telemetry
from repro.system.executor import (
    ExecutorConfig,
    ParallelExecutor,
    child_rng,
    pool_diagnostics,
    pool_generation,
    shutdown_pool,
)
from repro.system.observe import ledger as run_ledger
from repro.system.observe import labeled_name, prometheus_exposition
from repro.system.observe import tracing
from repro.system.schema import Field, RequestError, Schema
from repro.system.stream import StreamSession
from repro.video.frame import ObjectClass

_LOG = telemetry.get_logger("system.serve")

#: Default TCP port (unassigned by IANA; "repro" on a phone keypad-ish).
DEFAULT_PORT = 8177


@dataclass(frozen=True)
class Endpoint:
    """One route of the daemon (a row of :data:`ENDPOINTS`).

    Attributes:
        method: ``GET`` or ``POST``.
        path: The route; ``<id>`` stands for the last path segment.
        handler: The :class:`ServeDaemon` method that answers it.
        query: The body table of a query endpoint, whose kind is its
            path's name; None for the others.
        traced: Whether a request mints a trace context: query work does,
            scrapes such as ``/metrics`` and ``/stats`` do not.
    """

    method: str
    path: str
    handler: str
    query: Schema | None = None
    traced: bool = False


#: The query body shared by estimate, bound, profile and choose. A query
#: may name any preset dataset; ``dataset`` and ``delta`` default to the
#: daemon's configuration.
QUERY = Schema(
    Field("dataset", "name", DATASET_NAMES),
    Field("aggregate", "name", tuple(a.value for a in Aggregate), "avg"),
    Field("fraction", "float", "(0, 1]"),
    Field("resolution", "int", "[1, inf)"),
    Field("remove", "names", tuple(c.name.lower() for c in ObjectClass), ()),
    Field("method", "text", default="smokescreen"),
    Field("seed", "int", "[0, inf)", 0),
    Field("delta", "float", "(0, 1)"),
    Field("tenant", "text", default="anonymous"),
    Field("trials", "int", "[1, inf)", 1),
    Field("fraction_step", "float", "(0, 1]", 0.25),
    Field("resolution_count", "int", "[1, inf)", 3),
    Field("axis", "name", ("sampling", "resolution", "removal"), "sampling"),
    Field("max_error", "float", "(0, inf)"),
    Field("max_fraction", "float", "(0, 1]"),
)

#: ``POST /stream`` without ``id``: arm a hot stream. The dataset must
#: also be preloaded, and the window at most the corpus size; the
#: sentinel refuses a negative ``profiled_bound`` itself.
STREAM_OPEN = Schema(
    Field("dataset", "name", DATASET_NAMES),
    Field("aggregate", "name", ("avg",), "avg"),
    Field("delta", "float", "(0, 1)"),
    Field("tenant", "text", default="anonymous"),
    Field("seed", "int", "[0, inf)", 7),
    Field("window", "int", "[1, inf)", 480),
    Field("min_count", "int", "[1, inf)", 30),
    Field("patience", "int", "[1, inf)", 2),
    Field("profiled_bound", "float", "(-inf, inf)"),
)

#: ``POST /stream`` with ``id``: push one chunk. A ``tenant``, when
#: given, must be the stream's owner, who is charged for the chunk.
STREAM_INGEST = Schema(
    Field("id", "text", required=True),
    Field("values", "values", 10_000, required=True),
    Field("tenant", "text"),
)

#: :class:`ServeConfig`, checked at construction with the same kinds.
CONFIG = Schema(
    Field("host", "text", required=True),
    Field("port", "int", "[0, 65535]", required=True),
    Field("datasets", "names", DATASET_NAMES, required=True),
    Field("frames", "int", "[1, inf)"),
    Field("workers", "int", "[1, inf)", required=True, literal="auto"),
    Field("cache_dir", "text"),
    Field("cache_limit_bytes", "int", "[1, inf)"),
    Field("max_batch", "int", "[1, inf)", required=True),
    Field("max_queue", "int", "[1, inf)", required=True),
    Field("tenant_rate", "float", "[0, inf)", required=True),
    Field("tenant_burst", "int", "[1, inf)", required=True),
    Field("delta", "float", "(0, 1)", required=True),
)

#: The daemon's routes, in the order the module docstring lists them.
ENDPOINTS = (
    Endpoint("GET", "/healthz", "_healthz"),
    Endpoint("GET", "/metrics", "_metrics"),
    Endpoint("GET", "/stats", "_stats"),
    Endpoint("GET", "/traces", "_traces"),
    Endpoint("GET", "/traces/<id>", "_trace"),
    Endpoint("POST", "/estimate", "_batched", QUERY, traced=True),
    Endpoint("POST", "/bound", "_batched", QUERY, traced=True),
    Endpoint("POST", "/profile", "_profiled", QUERY, traced=True),
    Endpoint(
        "POST", "/choose", "_profiled", QUERY.requiring("max_error"),
        traced=True,
    ),
    Endpoint("POST", "/stream", "_stream", traced=True),
    Endpoint("GET", "/stream/<id>", "_stream_readout"),
    Endpoint("POST", "/shutdown", "_shutdown"),
)

_ROUTES = {(route.method, route.path): route for route in ENDPOINTS}
#: Aggregate -> the ``method`` names its estimator family serves: the one
#: cross-field check of the query body.
_METHODS = {
    aggregate.value: frozenset(method_names(aggregate))
    for aggregate in Aggregate
}
_QUERY_TABLES = {
    route.path[1:]: route.query for route in ENDPOINTS if route.query
}


class AdmissionError(ReproError):
    """A request rejected by admission control (HTTP 429)."""


@dataclass(frozen=True)
class ServeConfig:
    """Daemon configuration, checked against :data:`CONFIG`.

    Attributes:
        host: Bind address.
        port: Bind port; 0 asks the OS for an ephemeral one (the daemon
            prints the bound port, which tests parse).
        datasets: Corpus presets to build and publish at startup.
        frames: Reduced corpus size shared by every preloaded dataset
            (None = the paper's full sizes).
        workers: Worker processes for profile generation (estimates are
            a single kernel call and always run in-process).
        cache_dir: Persistent detector-cache directory, or None.
        cache_limit_bytes: LRU byte budget for ``cache_dir``.
        max_batch: Hard cap on requests coalesced into one kernel call.
        max_queue: Global admission cap on queued-but-unserved requests.
        tenant_rate: Per-tenant sustained budget, requests/second (0
            means a burst-only budget).
        tenant_burst: Per-tenant token-bucket capacity (burst size).
        delta: Default bound failure probability for requests that do
            not specify one.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    datasets: tuple[str, ...] = ("ua-detrac",)
    frames: int | None = None
    workers: int | str = 1
    cache_dir: str | None = None
    cache_limit_bytes: int | None = None
    max_batch: int = 64
    max_queue: int = 256
    tenant_rate: float = 50.0
    tenant_burst: int = 100
    delta: float = 0.05

    def __post_init__(self) -> None:
        for name, value in CONFIG.parse(vars(self)).items():
            object.__setattr__(self, name, value)
        if not self.datasets:
            raise RequestError("datasets must name at least one preset")


@dataclass(frozen=True)
class QueryRequest:
    """One tenant query, checked against its endpoint's body table.

    Attributes:
        kind: ``estimate``, ``bound``, ``profile`` or ``choose``.
        dataset: Corpus preset name.
        aggregate: Aggregate name (``avg``/``sum``/``count``/...).
        fraction: Sampling fraction ``f`` (None = full sampling).
        resolution: Resolution side ``p`` (None = native).
        remove: Removed-class names ``c`` (sorted tuple).
        method: Estimator name.
        seed: The request's private randomness seed.
        delta: Bound failure probability.
        tenant: Accounting identity (header ``X-Tenant`` or payload).
        trials: Profile-path trials per setting.
        fraction_step: Profile-path fraction grid step.
        resolution_count: Profile-path resolution grid size.
        axis: Choose-path profile axis.
        max_error: Choose-path public error budget.
        max_fraction: Choose-path fraction ceiling.
    """

    kind: str
    dataset: str
    aggregate: str = "avg"
    fraction: float | None = None
    resolution: int | None = None
    remove: tuple[str, ...] = ()
    method: str = "smokescreen"
    seed: int = 0
    delta: float = 0.05
    tenant: str = "anonymous"
    trials: int = 1
    fraction_step: float = 0.25
    resolution_count: int = 3
    axis: str = "sampling"
    max_error: float | None = None
    max_fraction: float | None = None

    @classmethod
    def from_payload(
        cls, kind: str, payload: Mapping, config: ServeConfig
    ) -> "QueryRequest":
        """Validate and normalise a JSON payload into a request.

        Args:
            kind: The endpoint's query kind.
            payload: Decoded JSON body.
            config: The daemon configuration (defaults).

        Returns:
            The request.

        Raises:
            RequestError: The kind is not a query endpoint, the payload
                does not fit its body table, or ``method`` names no
                estimator of the aggregate's family.
        """
        table = _QUERY_TABLES.get(kind)
        if table is None:
            raise RequestError(f"unknown query kind {kind!r}")
        fields = table.parse(
            payload, {"dataset": config.datasets[0], "delta": config.delta}
        )
        methods = _METHODS[fields["aggregate"]]
        if fields["method"] not in methods:
            raise RequestError(
                f"method must be one of {', '.join(sorted(methods))} for "
                f"aggregate {fields['aggregate']!r}, "
                f"got {reprlib.repr(fields['method'])}"
            )
        if fields["remove"]:
            fields["remove"] = tuple(sorted(fields["remove"]))
        return cls(kind, **fields)

    def batch_key(self) -> tuple:
        """The compatibility key micro-batching groups by.

        Requests coalesce when they share corpus, detector (implied by the
        corpus pairing), degradation plan, aggregate, estimator and delta
        — everything except the seed and the tenant, so each coalesced
        row keeps its own randomness.
        """
        return (
            self.dataset,
            self.aggregate,
            self.fraction,
            self.resolution,
            self.remove,
            self.method,
            round(self.delta, 12),
        )

    def profile_key(self) -> str:
        """Cache fingerprint of the profile this request implies."""
        return run_ledger.config_fingerprint(
            {
                "dataset": self.dataset,
                "aggregate": self.aggregate,
                "trials": self.trials,
                "seed": self.seed,
                "fraction_step": self.fraction_step,
                "resolution_count": self.resolution_count,
                "delta": round(self.delta, 12),
            }
        )


class TokenBucket:
    """A per-tenant budget: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float) -> None:
        rate = float(rate)
        burst = float(burst)
        if not math.isfinite(rate) or rate < 0.0:
            raise RequestError(
                f"token-bucket rate must be finite and >= 0 "
                f"(0 means a burst-only budget), got {rate}"
            )
        if not math.isfinite(burst) or burst < 1.0:
            raise RequestError(
                f"token-bucket burst must be finite and >= 1, got {burst}"
            )
        self._rate = rate
        self._capacity = burst
        self._tokens = self._capacity
        self._last = time.monotonic()

    def try_acquire(self, now: float | None = None) -> bool:
        """Take one token if available, refilling lazily."""
        now = time.monotonic() if now is None else now
        elapsed = max(now - self._last, 0.0)
        self._last = now
        self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens currently available (diagnostics)."""
        return self._tokens


class ServeSession:
    """The daemon's hot state and kernels (usable without HTTP in tests).

    Holds built corpora (published through shared memory so any worker
    pool attaches zero-copy), cached query objects whose frame-value
    memos keep detector outputs warm, cached hypercubes for the profile
    path, and the authoritative request/batch counters.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self._config = config or ServeConfig()
        self._suite = shared_suite()
        self._processor = QueryProcessor(self._suite)
        self._queries: dict[tuple, AggregateQuery] = {}
        self._cubes: dict[str, object] = {}
        self._cube_meta: dict[str, dict] = {}
        self._started = time.monotonic()
        self._owns_cache = False
        self.stats: dict[str, int] = {
            "requests": 0,
            "rejected": 0,
            "errors": 0,
            "kernel_calls": 0,
            "batched_kernel_calls": 0,
            "batched_requests": 0,
            "profile_requests": 0,
            "profile_cache_hits": 0,
            "choose_requests": 0,
            "stream_requests": 0,
            "stream_opens": 0,
            "stream_violations": 0,
        }
        self.tenants: dict[str, dict[str, int]] = {}
        self._streams: dict[str, dict] = {}
        self._stream_counter = 0
        self._latency_windows: dict[str, deque] = {}
        #: Charges a stream open or ingest to a tenant once its body checks
        #: out. The daemon points it at :meth:`MicroBatcher.admit`; a bare
        #: session (tests, replays) admits everything.
        self.admit: Callable[[str], None] = lambda tenant: None
        if self._config.cache_dir and diskcache.active_cache() is None:
            diskcache.activate(
                self._config.cache_dir, self._config.cache_limit_bytes
            )
            self._owns_cache = True

    @property
    def config(self) -> ServeConfig:
        """The daemon configuration."""
        return self._config

    def warmup(self) -> dict[str, float]:
        """Build and publish every configured corpus; warm native outputs.

        Returns:
            Per-dataset warmup wall seconds (diagnostics; also logged).
        """
        timings: dict[str, float] = {}
        for name in self._config.datasets:
            started = time.perf_counter()
            dataset = load_dataset(name, self._config.frames)
            shm.publish_dataset(dataset)
            # Touch native-resolution outputs for every aggregate's value
            # transform: the detector run is cached on the model, the
            # predicate transform in the processor's per-query memo.
            for aggregate in ("avg", "count"):
                self._processor.frame_values(self._query_for(name, aggregate))
            timings[name] = round(time.perf_counter() - started, 4)
        telemetry.log_event(
            _LOG, logging.INFO, "serve.warmup",
            datasets=",".join(self._config.datasets), **{
                f"seconds_{k.replace('-', '_')}": v for k, v in timings.items()
            },
        )
        return timings

    #: Sliding SLO window size per endpoint (most recent observations).
    _SLO_WINDOW = 512

    def note_latency(self, endpoint: str, seconds: float) -> None:
        """Feed one request latency into the endpoint's sliding window."""
        window = self._latency_windows.get(endpoint)
        if window is None:
            window = deque(maxlen=self._SLO_WINDOW)
            self._latency_windows[endpoint] = window
        window.append(float(seconds))

    def slo_summary(self) -> dict:
        """Per-endpoint sliding p50/p95/p99 latency (``/stats`` ``slo``)."""
        summary: dict[str, dict] = {}
        for endpoint, window in sorted(self._latency_windows.items()):
            values = sorted(window)
            if not values:
                continue

            def rank(q: float) -> float:
                index = min(
                    max(math.ceil(q * len(values)) - 1, 0), len(values) - 1
                )
                return values[index]

            summary[endpoint] = {
                "count": len(values),
                "p50_seconds": round(rank(0.50), 6),
                "p95_seconds": round(rank(0.95), 6),
                "p99_seconds": round(rank(0.99), 6),
            }
        return summary

    def tenant_record(self, tenant: str) -> dict[str, int]:
        """The accounting record of one tenant (created on first touch)."""
        record = self.tenants.get(tenant)
        if record is None:
            record = {"requests": 0, "rejected": 0, "served": 0}
            self.tenants[tenant] = record
        return record

    def _query_for(
        self, dataset_name: str, aggregate: str, delta: float = 0.05
    ) -> AggregateQuery:
        key = (dataset_name, self._config.frames, aggregate, round(delta, 12))
        query = self._queries.get(key)
        if query is None:
            query = AggregateQuery(
                dataset=load_dataset(dataset_name, self._config.frames),
                model=model_for(dataset_name),
                aggregate=Aggregate[aggregate.upper()],
                delta=delta,
            )
            self._queries[key] = query
        return query

    def _plan_for(self, request: QueryRequest) -> InterventionPlan:
        return InterventionPlan.from_knobs(
            f=request.fraction,
            p=request.resolution,
            c=tuple(
                ObjectClass.from_name(name) for name in request.remove
            ),
            suite=self._suite,
        )

    # ------------------------------------------------------------------
    # The micro-batched estimate/bound kernel.
    # ------------------------------------------------------------------

    def estimate_group(
        self,
        requests: Sequence[QueryRequest],
        contexts: Sequence[tracing.TraceContext | None] | None = None,
    ) -> list[dict]:
        """Serve one compatible group through a single batched kernel call.

        Every request draws its own sample from its own seed stream; the
        stacked ``(N, n)`` value matrix is priced by **one**
        :func:`~repro.estimators.dispatch.estimate_rows` call. Row-wise
        results are bit-identical to serving each request alone (a 1-row
        call through the same kernel), because every operation the kernel
        performs is independent across rows.

        Args:
            requests: Compatible requests (equal :meth:`QueryRequest.
                batch_key`); at least one.
            contexts: The coalesced requests' trace contexts, aligned
                with ``requests``. The kernel span continues the first
                linked trace and records **fan-in links** (the trace and
                span ids of every coalesced request), so N request spans
                point at the 1 kernel span that served them.

        Returns:
            One response dict per request, in request order.
        """
        if not requests:
            return []
        head = requests[0]
        for other in requests[1:]:
            if other.batch_key() != head.batch_key():
                raise RequestError(
                    "incompatible requests cannot share a kernel call"
                )
        linked = [ctx for ctx in (contexts or []) if ctx is not None]
        with tracing.use(linked[0] if linked else None):
            with tracing.span(
                "serve.estimate_rows",
                batch=len(requests),
                link_trace_ids=tuple(ctx.trace_id for ctx in linked),
                link_span_ids=tuple(ctx.span_id for ctx in linked),
            ):
                return self._price_group(head, requests)

    def _price_group(
        self, head: QueryRequest, requests: Sequence[QueryRequest]
    ) -> list[dict]:
        """The batched kernel body of :meth:`estimate_group`."""
        started = time.perf_counter()
        query = self._query_for(head.dataset, head.aggregate, head.delta)
        plan = self._plan_for(head)
        rows = []
        universe_size = population_size = 0
        for request in requests:
            rng = child_rng(request.seed)
            sample = plan.draw(query.dataset, rng, self._suite)
            rows.append(self._processor.values_for_sample(query, sample))
            universe_size = sample.universe_size
            population_size = sample.population_size
        matrix = np.stack(rows)
        estimates = estimate_rows(
            query, matrix, universe_size, population_size, head.method
        )
        self.stats["kernel_calls"] += 1
        telemetry.count("serve.kernel_calls")
        if len(requests) > 1:
            self.stats["batched_kernel_calls"] += 1
            self.stats["batched_requests"] += len(requests)
            telemetry.count("serve.batched_kernel_calls")
            telemetry.count("serve.batched_requests", len(requests))
        telemetry.gauge("serve.batch_size", len(requests))
        telemetry.observe(
            "serve.kernel_seconds", time.perf_counter() - started
        )
        responses = []
        for request, estimate in zip(requests, estimates):
            self.tenant_record(request.tenant)["served"] += 1
            body = {
                "kind": request.kind,
                "dataset": request.dataset,
                "aggregate": request.aggregate,
                "plan": plan.label(),
                "method": estimate.method,
                "error_bound": float(estimate.error_bound),
                "n": int(estimate.n),
                "universe_size": int(estimate.universe_size),
                "delta": request.delta,
                "seed": request.seed,
                "batch_size": len(requests),
            }
            if request.kind == "estimate":
                body["value"] = float(estimate.value)
            responses.append(body)
        return responses

    # ------------------------------------------------------------------
    # The cached profile/choose path.
    # ------------------------------------------------------------------

    def profile_request(self, request: QueryRequest) -> dict:
        """Serve a profile query from the hypercube cache, pricing on miss.

        Args:
            request: A ``profile`` (or ``choose``) request.

        Returns:
            The profile summary (axis slices with knob values and bounds).
        """
        self.stats["profile_requests"] += 1
        telemetry.count("serve.profile_requests")
        key = request.profile_key()
        cached = key in self._cubes
        if cached:
            self.stats["profile_cache_hits"] += 1
            telemetry.count("serve.profile_cache_hits")
        else:
            started = time.perf_counter()
            system = Smokescreen(
                load_dataset(request.dataset, self._config.frames),
                model_for(request.dataset),
                suite=self._suite,
                delta=request.delta,
                trials=request.trials,
                seed=request.seed,
                workers=self._config.workers,
            )
            query = system.query(Aggregate[request.aggregate.upper()])
            # The resolution and removal slices are non-random, so only
            # Algorithm 3 bounds them; the sampling slice keeps §5.2.2's
            # minimum of the basic and corrected bounds.
            correction = system.build_correction_set(query)
            candidates = system.candidates(
                fraction_step=request.fraction_step,
                resolution_count=request.resolution_count,
            )
            cube = system.profile(query, candidates, correction=correction)
            self._cubes[key] = cube
            self._cube_meta[key] = {
                "profile_seconds": round(time.perf_counter() - started, 4),
                "model_invocations": system.ledger.total,
            }
            telemetry.observe(
                "serve.profile_seconds", time.perf_counter() - started
            )
        cube = self._cubes[key]
        sampling, resolution, removal = cube.initial_slices()
        slices = {}
        for profile in (sampling, resolution, removal):
            slices[profile.axis] = {
                "knobs": [str(k) for k in profile.knob_values()],
                "error_bounds": [
                    float(b) for b in profile.error_bounds()
                ],
            }
        return {
            "kind": "profile",
            "dataset": request.dataset,
            "aggregate": request.aggregate,
            "fingerprint": key,
            "cached": cached,
            "cells": int(cube.bounds.size),
            "slices": slices,
            **self._cube_meta[key],
        }

    def choose_request(self, request: QueryRequest) -> dict:
        """Serve a tradeoff choice over the (cached) profile.

        Args:
            request: A ``choose`` request carrying the error budget.

        Returns:
            The chosen setting and its bounded error.
        """
        self.stats["choose_requests"] += 1
        telemetry.count("serve.choose_requests")
        summary = self.profile_request(request)
        cube = self._cubes[request.profile_key()]
        if request.axis == "sampling":
            profile = cube.slice_sampling()
        elif request.axis == "resolution":
            profile = cube.slice_resolution()
        else:
            profile = cube.slice_removal()
        preferences = PublicPreferences(
            max_error=request.max_error,
            max_fraction=request.max_fraction,
        )
        choice = choose_tradeoff(profile, preferences)
        return {
            "kind": "choose",
            "dataset": request.dataset,
            "aggregate": request.aggregate,
            "axis": request.axis,
            "fingerprint": summary["fingerprint"],
            "cached": summary["cached"],
            "plan": choice.point.plan.label(),
            "fraction": float(choice.point.plan.fraction),
            "error_bound": float(choice.point.error_bound),
        }

    # ------------------------------------------------------------------
    # Hot streams: tenants push frames into a live sentinel.
    # ------------------------------------------------------------------

    _MAX_STREAM_VALUES = STREAM_INGEST["values"].range

    #: Live streams kept at once (~20 KB each at window 480). Opening one
    #: more evicts the least-recently-ingested stream, whose id then
    #: answers "unknown stream".
    _MAX_STREAMS = 2048

    def _charge_stream(self, tenant: str) -> None:
        """Admit one stream request against ``tenant`` and count it."""
        self.admit(tenant)
        self.stats["stream_requests"] += 1
        telemetry.count("serve.stream_requests")

    def stream_open(self, payload: Mapping) -> dict:
        """Arm a hot sentinel for a tenant's live feed (``POST /stream``).

        A windowed :class:`~repro.system.stream.StreamSession` armed over
        the warm corpus's clean values, with a half-corpus sample pricing
        the profiled bound unless the payload brings one. The window lets
        a tenant push frames forever. Only ``avg`` is priced.

        Args:
            payload: JSON body checked against :data:`STREAM_OPEN`.

        Returns:
            The stream's first readout (includes the assigned ``id``).
        """
        knobs = STREAM_OPEN.parse(
            payload,
            {"dataset": self._config.datasets[0], "delta": self._config.delta},
        )
        dataset, tenant = knobs["dataset"], knobs["tenant"]
        window = knobs["window"]
        if dataset not in self._config.datasets:
            raise RequestError(
                f"dataset {dataset!r} is not preloaded; "
                f"serving: {self._config.datasets}"
            )
        self._charge_stream(tenant)
        values = np.asarray(
            self._processor.frame_values(
                self._query_for(dataset, "avg", knobs["delta"])
            ),
            dtype=float,
        )
        total = int(values.size)
        if window > total:
            raise RequestError(
                f"window {window} must lie in [1, corpus size {total}]"
            )
        # The id is taken only once the sentinel accepts the profiled
        # bound, so a rejected open never burns one.
        stream_id = f"s{self._stream_counter + 1:04d}"
        feed = StreamSession.arm(
            values,
            knobs["seed"],
            max(2, total // 2),
            delta=knobs["delta"],
            profiled_bound=knobs["profiled_bound"],
            window=window,
            min_count=knobs["min_count"],
            patience=knobs["patience"],
            label=f"{tenant}:{dataset}:{stream_id}",
        )
        self._stream_counter += 1
        while len(self._streams) >= self._MAX_STREAMS:
            del self._streams[next(iter(self._streams))]
        self._streams[stream_id] = {
            "feed": feed,
            "tenant": tenant,
            "dataset": dataset,
            "window": window,
            "ingests": 0,
        }
        self.stats["stream_opens"] += 1
        telemetry.count("serve.stream_opens")
        self.tenant_record(tenant)["served"] += 1
        return self.stream_readout(stream_id)

    def stream_ingest(self, payload: Mapping) -> dict:
        """Push a batch of frame values into a hot stream.

        The chunk is charged to the tenant that opened the stream; a
        ``tenant`` naming anyone else is a 400.

        Args:
            payload: JSON body checked against :data:`STREAM_INGEST`: the
                stream ``id`` and a non-empty ``values`` array of finite
                numbers (at most ``_MAX_STREAM_VALUES``).

        Returns:
            The stream readout after the batch (drift check included).
        """
        chunk = STREAM_INGEST.parse(payload)
        stream_id = chunk["id"]
        state = self._stream_state(stream_id)
        if chunk["tenant"] not in (None, state["tenant"]):
            raise RequestError(
                f"tenant {chunk['tenant']!r} does not own stream "
                f"{stream_id!r}"
            )
        self._charge_stream(state["tenant"])
        batch = chunk["values"]
        feed: StreamSession = state["feed"]
        tripped_before = feed.sentinel.tripped
        check = feed.ingest(batch)
        state["ingests"] += 1
        # Most recently ingested last: eviction takes the front.
        self._streams[stream_id] = self._streams.pop(stream_id)
        telemetry.count("serve.stream_frames", len(batch))
        if check is not None and check.breached:
            self.stats["stream_violations"] += 1
        self.tenant_record(state["tenant"])["served"] += 1
        body = self.stream_readout(stream_id)
        body["ingested"] = len(batch)
        body["newly_tripped"] = feed.sentinel.tripped and not tripped_before
        if check is not None:
            body["check"] = {
                "drift": check.drift,
                "allowance": check.allowance,
                "breached": check.breached,
            }
        return body

    def _stream_state(self, stream_id: str) -> dict:
        state = self._streams.get(stream_id)
        if state is None:
            raise RequestError(
                f"unknown stream {stream_id!r}; open one with "
                f"POST /stream (no id) first"
            )
        return state

    def stream_readout(self, stream_id: str) -> dict:
        """The readout body for ``GET /stream/<id>``."""
        state = self._stream_state(stream_id)
        feed: StreamSession = state["feed"]
        readout = feed.readout()
        body = {
            "id": stream_id,
            "dataset": state["dataset"],
            "aggregate": "avg",
            "tenant": state["tenant"],
            "window": state["window"],
            "profiled_bound": feed.profiled_bound,
            "ingests": state["ingests"],
            "count": readout.count,
            "window_count": feed.stream.window_count,
            "verdict": readout.verdict.as_payload(),
        }
        if readout.value is not None:
            body["value"] = readout.value
            body["error_bound"] = readout.error_bound
        if readout.verdict.repair is not None:
            body["repaired_bound"] = float(readout.verdict.repair.error_bound)
        return body

    # ------------------------------------------------------------------
    # Diagnostics and teardown.
    # ------------------------------------------------------------------

    def snapshot_stats(self) -> dict:
        """Machine-readable session state for ``GET /stats``."""
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "datasets": list(self._config.datasets),
            "frames": self._config.frames,
            "counters": dict(self.stats),
            "tenants": {k: dict(v) for k, v in sorted(self.tenants.items())},
            "cached_profiles": len(self._cubes),
            "streams": len(self._streams),
            "slo": self.slo_summary(),
            "pool": pool_diagnostics(),
            "pool_generation": pool_generation(),
            "shm_published_bytes": shm.published_bytes(),
        }

    def shutdown(self) -> None:
        """Tear the hot state down: annotate the run, close pool and shm."""
        run_ledger.annotate(
            serve={
                **{k: int(v) for k, v in self.stats.items()},
                "tenant_count": len(self.tenants),
                "slo": self.slo_summary(),
            },
            tenants={k: dict(v) for k, v in sorted(self.tenants.items())},
        )
        shutdown_pool()
        shm.release_all()
        if self._owns_cache and diskcache.active_cache() is not None:
            diskcache.deactivate()
        telemetry.log_event(
            _LOG, logging.INFO, "serve.shutdown", **{
                k: int(v) for k, v in self.stats.items()
            },
        )


@dataclass
class _Pending:
    """One queued request and the future its response resolves."""

    request: QueryRequest
    future: asyncio.Future
    ctx: tracing.TraceContext | None = None
    enqueued: float = 0.0


class MicroBatcher:
    """The admission-controlled queue and work-conserving coalescing loop.

    One background task pulls the queue: it takes the first request,
    drains whatever else is already queued (up to ``max_batch``) without
    waiting, groups by :meth:`QueryRequest.batch_key`, and serves each
    group with one kernel call on a dedicated executor thread (keeping
    the event loop free for ``/metrics`` and admission while kernels
    run). Requests that arrive while a kernel runs are coalesced into
    the next call, so batching happens under load and a lone request on
    an idle daemon is priced at once.
    """

    def __init__(self, session: ServeSession) -> None:
        self._session = session
        self._config = session.config
        self._queue: asyncio.Queue[_Pending | None] = asyncio.Queue()
        self._buckets: dict[str, TokenBucket] = {}
        self._depth = 0
        self._task: asyncio.Task | None = None
        self._accepting = False

    def start(self) -> None:
        """Start the batching loop on the running event loop."""
        self._accepting = True
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def depth(self) -> int:
        """Requests admitted but not yet answered."""
        return self._depth

    def admit(self, tenant: str) -> None:
        """Charge one request against the tenant budget and queue cap.

        Args:
            tenant: The accounting identity.

        Raises:
            AdmissionError: The tenant is over budget, or the global
                queue is full. The rejection is counted per tenant and
                recorded as a ``serve.rejected`` run-ledger event.
        """
        record = self._session.tenant_record(tenant)
        record["requests"] += 1
        self._session.stats["requests"] += 1
        telemetry.count("serve.requests")
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self._config.tenant_rate, self._config.tenant_burst
            )
            self._buckets[tenant] = bucket
        reason = None
        if not self._accepting:
            reason = "shutting_down"
        elif self._depth >= self._config.max_queue:
            reason = "queue_full"
        elif not bucket.try_acquire():
            reason = "tenant_over_budget"
        if reason is not None:
            record["rejected"] += 1
            self._session.stats["rejected"] += 1
            telemetry.count("serve.rejected")
            run_ledger.record_event(
                "serve.rejected", tenant=tenant, reason=reason
            )
            raise AdmissionError(
                f"request rejected ({reason}); tenant budget is "
                f"{self._config.tenant_rate:g}/s with burst "
                f"{self._config.tenant_burst}"
            )

    async def submit(self, request: QueryRequest) -> dict:
        """Queue an (already admitted) request and await its response.

        The submitting task's trace context rides along, so the batch
        loop can link the coalesced kernel span back to every request.
        """
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._depth += 1
        await self._queue.put(
            _Pending(
                request,
                future,
                ctx=tracing.current_context(),
                enqueued=time.perf_counter(),
            )
        )
        return await future

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            head = await self._queue.get()
            if head is None:
                break
            batch = [head]
            while (
                len(batch) < self._config.max_batch
                and not self._queue.empty()
            ):
                nxt = self._queue.get_nowait()
                if nxt is None:
                    await self._serve_batch(loop, batch)
                    return
                batch.append(nxt)
            await self._serve_batch(loop, batch)

    async def _serve_batch(
        self, loop: asyncio.AbstractEventLoop, batch: list[_Pending]
    ) -> None:
        now = time.perf_counter()
        telemetry.gauge("serve.queue_depth", self._depth)
        telemetry.gauge(
            "serve.batch_occupancy", len(batch) / self._config.max_batch
        )
        groups: dict[tuple, list[_Pending]] = {}
        for pending in batch:
            if pending.enqueued > 0:
                telemetry.observe(
                    "serve.queue_wait_seconds", now - pending.enqueued
                )
            groups.setdefault(pending.request.batch_key(), []).append(pending)
        for group in groups.values():
            requests = [p.request for p in group]
            contexts = [p.ctx for p in group]
            try:
                responses = await loop.run_in_executor(
                    None,
                    partial(
                        self._session.estimate_group, requests, contexts
                    ),
                )
            except Exception as error:  # surfaced per request as HTTP 400
                self._session.stats["errors"] += len(group)
                telemetry.count("serve.request_errors", len(group))
                for pending in group:
                    self._depth -= 1
                    if not pending.future.done():
                        pending.future.set_exception(
                            RequestError(str(error))
                        )
                continue
            for pending, response in zip(group, responses):
                self._depth -= 1
                if not pending.future.done():
                    pending.future.set_result(response)

    async def drain(self) -> None:
        """Stop admitting, serve everything already queued, stop the loop."""
        self._accepting = False
        await self._queue.put(None)
        if self._task is not None:
            await self._task
            self._task = None
        # Anything that slipped in behind the sentinel is still served:
        # shutdown drains, it does not drop.
        leftovers: list[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None:
                leftovers.append(item)
        if leftovers:
            await self._serve_batch(asyncio.get_running_loop(), leftovers)


class ServeDaemon:
    """The asyncio HTTP front end over a session and its batcher."""

    #: Largest ``Content-Length`` read: a ``/stream`` chunk of
    #: ``_MAX_STREAM_VALUES`` floats at up to 32 bytes each (the longest
    #: float repr is 24 characters, plus a separator), and 64 KiB for the
    #: rest of the JSON object.
    _MAX_BODY_BYTES = ServeSession._MAX_STREAM_VALUES * 32 + 65_536
    #: Seconds a client may take to send one header line or its body.
    _READ_TIMEOUT_S = 30.0

    def __init__(self, config: ServeConfig | None = None) -> None:
        self._config = config or ServeConfig()
        self.session = ServeSession(self._config)
        self.batcher = MicroBatcher(self.session)
        self.session.admit = self.batcher.admit
        self._server: asyncio.base_events.Server | None = None
        self._stopping: asyncio.Event | None = None
        self.port: int | None = None

    async def start(self) -> int:
        """Warm the session, start the batcher and bind the listener.

        Returns:
            The bound TCP port.
        """
        self._stopping = asyncio.Event()
        # /metrics must serve live repro_* families even when the caller
        # did not pass --telemetry; enable() installs a fresh registry,
        # so never call it when one is already live.
        if not telemetry.enabled():
            telemetry.enable()
        warmup = self.session.warmup()
        # Spawn the worker pool while the process is still quiet: forking
        # lazily on the first parallel /profile — with the event loop
        # mid-connection and executor threads live — can deadlock the
        # forked children on locks copied mid-acquisition.
        if ParallelExecutor(
            ExecutorConfig(workers=self._config.workers)
        ).prewarm():
            telemetry.count("serve.pool_prewarms")
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_client, self._config.host, self._config.port
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        run_ledger.annotate(
            serve_bind={"host": self._config.host, "port": self.port},
            serve_warmup_seconds=warmup,
        )
        telemetry.log_event(
            _LOG, logging.INFO, "serve.start",
            host=self._config.host, port=self.port,
        )
        return self.port

    async def stop(self) -> None:
        """Graceful shutdown: close, drain, tear down the hot state."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.drain()
        self.session.shutdown()
        if self._stopping is not None:
            self._stopping.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completed."""
        assert self._stopping is not None
        await self._stopping.wait()

    # ------------------------------------------------------------------
    # HTTP plumbing (stdlib-only: asyncio streams + manual HTTP/1.1).
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._handle_one(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except asyncio.TimeoutError:
            status, content_type, body = _json(
                {"error": f"request headers did not arrive within "
                          f"{self._READ_TIMEOUT_S:g} s"},
                408,
            )
        except Exception as error:  # pragma: no cover - defensive
            tracing.dump_flight_record("unhandled_error", error=str(error))
            status, content_type, body = _json({"error": str(error)}, 500)
        payload = body.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + payload
        )
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, str]:
        timeout = self._READ_TIMEOUT_S
        request_line = await asyncio.wait_for(reader.readline(), timeout)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return _json({"error": "bad request"}, 400)
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        payload: dict = {}
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            return _json(
                {"error": f"malformed Content-Length {declared!r}"}, 400
            )
        length = int(declared)
        if length > self._MAX_BODY_BYTES:
            return _json(
                {"error": f"Content-Length {length} exceeds the "
                          f"{self._MAX_BODY_BYTES}-byte request body limit"},
                413,
            )
        if length:
            try:
                raw = await asyncio.wait_for(
                    reader.readexactly(length), timeout
                )
            except asyncio.IncompleteReadError as error:
                return _json(
                    {"error": f"request body is {len(error.partial)} bytes, "
                              f"short of its Content-Length {length}"},
                    400,
                )
            except asyncio.TimeoutError:
                return _json(
                    {"error": f"request body is short of its Content-Length "
                              f"{length}: no more bytes came within "
                              f"{timeout:g} s"},
                    400,
                )
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return _json({"error": "request body is not valid JSON"}, 400)
            if not isinstance(payload, Mapping):
                return _json(
                    {"error": "request body must be a JSON object"}, 400
                )
        if "tenant" not in payload:
            tenant = headers.get("x-tenant")
            if tenant:
                payload = {**payload, "tenant": tenant}
        return await self._route(
            method, path, payload, headers.get("x-repro-trace-id")
        )

    async def _route(
        self,
        method: str,
        path: str,
        payload: dict,
        trace_header: str | None = None,
    ) -> tuple[int, str, str]:
        name, slash, arg = path.lstrip("/").partition("/")
        route = f"/{name}/<id>" if slash else f"/{name}"
        endpoint = _ROUTES.get((method, route))
        label = name or "root"
        try:  # the tenant label, read before the body is checked
            tenant = QUERY["tenant"].parse(payload["tenant"])
        except (KeyError, RequestError):
            tenant = "anonymous"
        traced = endpoint is not None and endpoint.traced
        started = time.perf_counter()
        try:
            if endpoint is None:
                return _json({"error": f"no route for {method} {path}"}, 404)
            handler = getattr(self, endpoint.handler)
            if traced:
                ctx = tracing.mint(tenant=tenant, trace_id=trace_header)
                with tracing.use(ctx):
                    with tracing.span("serve.request", endpoint=label):
                        return await handler(name, arg, payload)
            return await handler(name, arg, payload)
        except AdmissionError as error:
            return _json({"error": str(error)}, 429)
        except RequestError as error:
            return _json({"error": str(error)}, 400)
        except ReproError as error:
            self.session.stats["errors"] += 1
            return _json({"error": str(error)}, 400)
        finally:
            elapsed = time.perf_counter() - started
            telemetry.observe("serve.request_seconds", elapsed)
            if traced:
                telemetry.observe(
                    labeled_name(
                        "serve.request_seconds",
                        endpoint=label,
                        tenant=tenant,
                    ),
                    elapsed,
                )
                self.session.note_latency(label, elapsed)

    # ------------------------------------------------------------------
    # Endpoint handlers: ``(name, id, payload)`` -> (status, type, body),
    # where ``name`` is the path's first segment and ``id`` its second.
    # ------------------------------------------------------------------

    async def _healthz(self, name: str, arg: str, payload: dict):
        uptime = self.session.snapshot_stats()["uptime_seconds"]
        return _json({"status": "ok", "uptime_seconds": uptime})

    async def _metrics(self, name: str, arg: str, payload: dict):
        snapshot = telemetry.registry().snapshot()
        text = prometheus_exposition(snapshot)
        return 200, "text/plain; version=0.0.4", text

    async def _stats(self, name: str, arg: str, payload: dict):
        return _json(self.session.snapshot_stats())

    async def _traces(self, name: str, arg: str, payload: dict):
        return _json({"traces": tracing.ring().traces()})

    async def _trace(self, name: str, trace_id: str, payload: dict):
        events = tracing.ring().trace(trace_id)
        if not events:
            return _json({"error": f"unknown trace {trace_id!r}"}, 404)
        return _json(
            {
                "trace_id": events[0].trace_id,
                "spans": [event.to_dict(children=False) for event in events],
            }
        )

    async def _batched(self, kind: str, arg: str, payload: dict):
        request = QueryRequest.from_payload(kind, payload, self._config)
        self.batcher.admit(request.tenant)
        return _json(await self.batcher.submit(request))

    async def _profiled(self, kind: str, arg: str, payload: dict):
        request = QueryRequest.from_payload(kind, payload, self._config)
        self.batcher.admit(request.tenant)
        # run_in_executor does not propagate contextvars: hand the trace
        # context across the thread boundary explicitly.
        ctx = tracing.current_context()
        handler = (
            self.session.profile_request
            if kind == "profile"
            else self.session.choose_request
        )
        body = await asyncio.get_running_loop().run_in_executor(
            None, partial(tracing.run_with, ctx, handler, request)
        )
        return _json(body)

    async def _stream(self, name: str, arg: str, payload: dict):
        # A body with an ``id`` pushes a chunk; one without opens a stream.
        if "id" in payload:
            return _json(self.session.stream_ingest(payload))
        return _json(self.session.stream_open(payload))

    async def _stream_readout(self, name: str, stream_id: str, payload: dict):
        return _json(self.session.stream_readout(stream_id))

    async def _shutdown(self, name: str, arg: str, payload: dict):
        asyncio.get_running_loop().create_task(self.stop())
        return _json({"status": "shutting down"})


def _json(body: object, status: int = 200) -> tuple[int, str, str]:
    return status, "application/json", json.dumps(body)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


async def post_json(
    host: str,
    port: int,
    path: str,
    payload: Mapping | None = None,
    method: str | None = None,
    timeout: float = 60.0,
    headers: Mapping[str, str] | None = None,
) -> tuple[int, object]:
    """A minimal asyncio HTTP client for the daemon (tests, benchmarks).

    Args:
        host: Daemon host.
        port: Daemon port.
        path: Request path (``"/estimate"``).
        payload: JSON body (None sends no body).
        method: HTTP method; defaults to POST with a body, GET without.
        timeout: Whole-call timeout in seconds.
        headers: Extra request headers (e.g. ``X-Repro-Trace-Id``).

    Returns:
        ``(status, body)`` with the body JSON-decoded when possible.
    """
    method = method or ("POST" if payload is not None else "GET")
    body = json.dumps(payload or {}).encode() if payload is not None else b""
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )

    async def _call() -> tuple[int, object]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {host}:{port}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    + extra
                    + "Connection: close\r\n\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            while (await reader.readline()).strip():
                pass
            raw = await reader.read()
        finally:
            writer.close()
        text = raw.decode("utf-8")
        try:
            return status, json.loads(text)
        except json.JSONDecodeError:
            return status, text

    return await asyncio.wait_for(_call(), timeout=timeout)


def run_daemon(config: ServeConfig | None = None) -> int:
    """Run the daemon until SIGINT/SIGTERM or ``POST /shutdown``.

    Prints the bound address (tests parse it) and exits 0 on a graceful
    stop. The caller (``repro serve``) owns the run-ledger lifecycle: the
    session annotates the active run, and the CLI's ``finish_run`` flush
    happens after this returns — so the record lands even on signals.

    Args:
        config: The daemon configuration.

    Returns:
        Process exit code.
    """

    async def _main() -> int:
        daemon = ServeDaemon(config)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(daemon.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            # SIGQUIT dumps the flight record (last ring spans/events to
            # the run ledger) without stopping the daemon.
            loop.add_signal_handler(
                signal.SIGQUIT,
                lambda: tracing.dump_flight_record("sigquit"),
            )
        except (
            AttributeError, NotImplementedError, RuntimeError,
        ):  # pragma: no cover - platform-dependent
            pass
        port = await daemon.start()
        print(
            f"repro serve: listening on http://{daemon.session.config.host}:"
            f"{port} (datasets: {', '.join(daemon.session.config.datasets)})",
            flush=True,
        )
        await daemon.wait_stopped()
        print("repro serve: drained and stopped", flush=True)
        return 0

    return asyncio.run(_main())
