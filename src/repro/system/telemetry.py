"""Process-local observability: metrics, spans, and structured logging.

The fleet/cache/executor substrate built in the preceding PRs is invisible
at runtime: cache hits, pool fallbacks, breaker trips, and sweep timings
all happen silently. This module is the observability layer production
video-analytics systems treat as first class — AQuA steers its pipeline off
monitored quality signals, and Boggart's amortization story depends on
knowing exactly what was reused versus recomputed.

Three cooperating pieces, all dependency-free (stdlib only, so every layer
of the package can import this module without cycles):

- :class:`MetricsRegistry` — counters, gauges, and histograms keyed by
  dotted metric names (``cache.hit``, ``executor.fallback``). Timers use
  the monotonic clock (:func:`time.perf_counter`). A registry produces
  picklable, **mergeable** :class:`MetricsSnapshot` objects, so worker
  processes fold their metrics into the parent exactly like
  :class:`~repro.system.costs.InvocationLedger` counts cross the pool
  boundary.
- **Spans** — lightweight wall-time scopes (``with telemetry.span(
  "profiler.sweep", resolution=304)``), each completed as one
  :class:`SpanRecord`. A span's parent is the innermost span open in the
  current context (a :mod:`contextvars` variable), so concurrent asyncio
  tasks and threads each build their own branch of the tree. Traced
  spans (:func:`traced_span`, opened by
  :func:`repro.system.observe.tracing.span`) carry their trace identity
  as record fields.
- **Structured logging** — ``repro.*`` namespaced loggers with a JSON or
  human formatter (:func:`setup_logging`), and :func:`log_event` for
  key=value event records.

Telemetry is **off by default and cheap when off**: the process-global
registry starts as a shared :class:`NullRegistry` whose methods are no-ops
and whose ``span``/``timer`` return a reusable null context manager, so
instrumented hot paths cost a delegating call and nothing else. Enable it
with :func:`enable` (the CLI's ``--telemetry`` flag does).

Telemetry is **never consulted by estimation code** — metrics and spans
are written, not read, so sweep outputs are bit-identical with telemetry
enabled or disabled (the benchmark asserts this).
"""

from __future__ import annotations

import bisect
import contextvars
import json
import logging
import math
import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

__all__ = [
    "HISTOGRAM_BUCKET_BOUNDS",
    "HistogramStat",
    "JsonFormatter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "RING_CAPACITY",
    "SpanRecord",
    "count",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_logger",
    "install",
    "log_event",
    "merge_snapshots",
    "observe",
    "registry",
    "setup_logging",
    "span",
    "timer",
    "traced_span",
]


#: This process's offset between the wall clock and the monotonic
#: performance counter, captured once at import. ``_PERF_EPOCH +
#: time.perf_counter()`` is a wall-clock timestamp, so spans timed with
#: the monotonic clock carry absolute start times that are directly
#: comparable *across processes on one machine* — the anchoring that lets
#: pool-worker span forests line up with the parent's on one timeline.
_PERF_EPOCH = time.time() - time.perf_counter()


#: How many root spans a registry keeps, and how many records the trace
#: ring keeps: a long-lived daemon traces every request, so neither may
#: grow without bound. A registry drops its oldest roots first and counts
#: them in ``telemetry.spans_dropped``.
RING_CAPACITY = 2048


# ---------------------------------------------------------------------------
# Snapshot data model (picklable, mergeable).
# ---------------------------------------------------------------------------

#: Upper bounds (``le``) of the fixed histogram buckets, in ascending
#: order; observations above the last bound land in the implicit ``+Inf``
#: bucket. The bounds span sub-millisecond span timings up to multi-minute
#: sweeps — histograms here overwhelmingly observe wall seconds. A fixed,
#: shared layout keeps bucket vectors associative under merge (elementwise
#: sums) exactly like the scalar summary fields.
HISTOGRAM_BUCKET_BOUNDS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0
)


def _bucket_vector(value: float) -> tuple[int, ...]:
    """A one-observation bucket vector for ``value``."""
    counts = [0] * len(HISTOGRAM_BUCKET_BOUNDS)
    index = bisect.bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)
    if index < len(counts):
        counts[index] = 1
    return tuple(counts)


def _sum_buckets(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[int, ...]:
    """Elementwise sum, treating a missing (empty) vector as zeros."""
    if not a:
        return b
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class HistogramStat:
    """Summary statistics of one histogram metric.

    Full value lists would not merge cheaply across processes; the summary
    (count, total, min, max, fixed-layout bucket counts) does, and it is
    what the snapshot carries.

    Attributes:
        count: Number of observations.
        total: Sum of observed values.
        minimum: Smallest observed value.
        maximum: Largest observed value.
        bucket_counts: Per-bucket observation counts aligned with
            :data:`HISTOGRAM_BUCKET_BOUNDS` (non-cumulative; observations
            above the last bound are implicit: ``count - sum(buckets)``).
            Empty means "no bucket data" (a hand-built summary) and merges
            as all zeros.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    bucket_counts: tuple[int, ...] = ()

    @classmethod
    def single(cls, value: float) -> "HistogramStat":
        """The summary of exactly one observation."""
        return cls(
            count=1,
            total=value,
            minimum=value,
            maximum=value,
            bucket_counts=_bucket_vector(value),
        )

    @property
    def mean(self) -> float:
        """Average observed value (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def merged(self, other: "HistogramStat") -> "HistogramStat":
        """The summary of both histograms' observations combined."""
        return HistogramStat(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            bucket_counts=_sum_buckets(self.bucket_counts, other.bucket_counts),
        )

    def quantile(self, q: float) -> float:
        """An estimated ``q``-quantile of the observed values.

        NaN policy: an **empty** series has no quantiles — every ``q``
        returns NaN (mirroring :attr:`mean`). A **single** observation (or
        a degenerate series with ``minimum == maximum``) returns that
        exact value for every ``q`` — no interpolation, no division by the
        zero-width range. Otherwise the estimate interpolates linearly
        within the fixed bucket layout (clamped to ``[minimum, maximum]``);
        summaries without bucket data fall back to linear interpolation
        between the extremes.

        Args:
            q: Quantile level in ``[0, 1]``.

        Returns:
            The estimated value, or NaN for an empty series.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        if self.count == 1 or self.minimum == self.maximum:
            return self.minimum
        if not self.bucket_counts:
            return self.minimum + (self.maximum - self.minimum) * q
        target = q * self.count
        cumulative = 0
        lower = self.minimum
        for bound, bucket in zip(HISTOGRAM_BUCKET_BOUNDS, self.bucket_counts):
            if bucket <= 0:
                continue
            if cumulative + bucket >= target:
                within = (target - cumulative) / bucket
                upper = min(bound, self.maximum)
                low = max(lower, self.minimum)
                if upper <= low:
                    return min(max(upper, self.minimum), self.maximum)
                return low + (upper - low) * within
            cumulative += bucket
            lower = bound
        # Remaining mass sits in the implicit +Inf bucket.
        overflow = self.count - cumulative
        if overflow <= 0:
            return self.maximum
        within = (target - cumulative) / overflow
        low = max(lower, self.minimum)
        return min(low + (self.maximum - low) * max(0.0, min(1.0, within)),
                   self.maximum)

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean if self.count else None,
            "bucket_counts": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HistogramStat":
        """The inverse of :meth:`to_dict` (exact round-trip)."""
        count = int(payload.get("count", 0))
        minimum = payload.get("min")
        maximum = payload.get("max")
        return cls(
            count=count,
            total=float(payload.get("total", 0.0)),
            minimum=math.inf if minimum is None else float(minimum),
            maximum=-math.inf if maximum is None else float(maximum),
            bucket_counts=tuple(
                int(c) for c in payload.get("bucket_counts", ())
            ),
        )


def _normalize_attribute(value: object) -> object:
    """A span attribute as a JSON-compatible, round-trippable value.

    Ints, floats, bools, strings and None pass through unchanged; tuples
    and lists normalise elementwise to tuples (rendered as JSON arrays and
    restored as tuples on :meth:`SpanRecord.from_dict`); numpy scalars
    unwrap via ``.item()``. Only values outside those families — arbitrary
    objects a caller happened to pass — fall back to ``str``; the numeric
    and sequence types the instrumentation actually uses are never
    stringified.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_normalize_attribute(item) for item in value)
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _normalize_attribute(item())
        except (TypeError, ValueError):
            pass
    return str(value)


def _attribute_to_json(value: object) -> object:
    """Normalized attribute value with tuples rendered as lists."""
    if isinstance(value, tuple):
        return [_attribute_to_json(item) for item in value]
    return value


def _attribute_from_json(value: object) -> object:
    """The inverse of :func:`_attribute_to_json` (lists back to tuples)."""
    if isinstance(value, list):
        return tuple(_attribute_from_json(item) for item in value)
    return value


@dataclass(frozen=True)
class SpanRecord:
    """One completed span in a trace tree (in snapshots and the ring).

    Attributes:
        name: Dotted span name (``profiler.sweep``).
        duration: Wall time in seconds (monotonic clock).
        attributes: The keyword attributes the span was opened with,
            normalized by :func:`_normalize_attribute` (always
            JSON-compatible).
        children: Spans that completed while this one was open.
        start: Absolute wall-clock start time (unix seconds), anchored
            via ``_PERF_EPOCH`` so spans from different processes on
            one machine share a timeline.
        trace_id: The trace the span belongs to (None when untraced).
        span_id: This span's id within the trace.
        parent_span_id: The enclosing traced span's id, if any.
        tenant: The requesting tenant, if known.
        pid: The process that recorded the span.
    """

    name: str
    duration: float
    attributes: tuple[tuple[str, object], ...] = ()
    children: tuple["SpanRecord", ...] = ()
    start: float = 0.0
    trace_id: str | None = None
    span_id: str | None = None
    parent_span_id: str | None = None
    tenant: str | None = None
    pid: int = 0

    def to_dict(self, children: bool = True) -> dict:
        """A JSON-ready representation of the subtree (of the span alone,
        the form ``/traces/<id>`` serves, with ``children=False``)."""
        payload = {
            "name": self.name,
            "duration_s": round(self.duration, 9),
            "start_ts": round(self.start, 6),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "tenant": self.tenant,
            "pid": self.pid,
            "attributes": {
                key: _attribute_to_json(value)
                for key, value in self.attributes
            },
        }
        if children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanRecord":
        """The inverse of :meth:`to_dict`.

        Attribute values survive the JSON round-trip structurally: ints
        stay ints, floats stay floats, and tuples (serialized as JSON
        arrays) come back as tuples.

        Raises:
            ValueError: ``name`` is missing, ``start_ts`` is not
                positive, or ``duration_s`` is negative or not finite.
        """
        name = payload.get("name")
        try:
            start = float(payload["start_ts"])
            duration = float(payload["duration_s"])
        except (KeyError, TypeError, ValueError):
            start = duration = math.nan
        if not name or not start > 0.0 or not 0.0 <= duration < math.inf:
            raise ValueError(
                f"span record {name!r} needs a name, a positive start_ts "
                "and a finite, non-negative duration_s"
            )
        return cls(
            name=str(name),
            duration=duration,
            start=start,
            trace_id=payload.get("trace_id") or None,
            span_id=payload.get("span_id") or None,
            parent_span_id=payload.get("parent_span_id") or None,
            tenant=payload.get("tenant") or None,
            pid=int(payload.get("pid") or 0),
            attributes=tuple(
                sorted(
                    (str(key), _attribute_from_json(value))
                    for key, value in dict(
                        payload.get("attributes", {})
                    ).items()
                )
            ),
            children=tuple(
                cls.from_dict(child) for child in payload.get("children", ())
            ),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable view of a registry's state.

    Snapshots merge associatively: ``(a + b) + c`` equals ``a + (b + c)``
    on counters and histograms (sums) and concatenates span forests in
    argument order, so worker snapshots can be folded into the parent in
    any grouping. Gauges are last-write-wins in merge order.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramStat] = field(default_factory=dict)
    spans: tuple[SpanRecord, ...] = ()

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot with another folded in (see class docstring)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        histograms = dict(self.histograms)
        for name, stat in other.histograms.items():
            existing = histograms.get(name)
            histograms[name] = stat if existing is None else existing.merged(stat)
        return MetricsSnapshot(
            counters=counters,
            gauges={**self.gauges, **other.gauges},
            histograms=histograms,
            spans=self.spans + other.spans,
        )

    def to_dict(self) -> dict:
        """A JSON-ready representation (``json.dumps``-able as is)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histogram_bucket_bounds": list(HISTOGRAM_BUCKET_BOUNDS),
            "histograms": {
                name: stat.to_dict()
                for name, stat in sorted(self.histograms.items())
            },
            "spans": [record.to_dict() for record in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsSnapshot":
        """The inverse of :meth:`to_dict` (structural round-trip).

        Counter/gauge values, histogram summaries and span attributes come
        back with their original types (span durations are rounded to the
        nanosecond ``to_dict`` serialized).
        """
        return cls(
            counters={
                str(k): float(v)
                for k, v in dict(payload.get("counters", {})).items()
            },
            gauges={
                str(k): float(v)
                for k, v in dict(payload.get("gauges", {})).items()
            },
            histograms={
                str(k): HistogramStat.from_dict(v)
                for k, v in dict(payload.get("histograms", {})).items()
            },
            spans=tuple(
                SpanRecord.from_dict(record)
                for record in payload.get("spans", ())
            ),
        )


def merge_snapshots(*snapshots: MetricsSnapshot | None) -> MetricsSnapshot:
    """Fold any number of snapshots (None entries are skipped)."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        if snapshot is not None:
            merged = merged.merged(snapshot)
    return merged


# ---------------------------------------------------------------------------
# Registries.
# ---------------------------------------------------------------------------


#: The innermost span open in the current context: the parent of the
#: next span opened here. asyncio tasks copy it at creation; executor
#: threads and pool workers start without one unless
#: :func:`repro.system.observe.tracing.use` hands a parent across.
current_span: contextvars.ContextVar["_SpanHandle | None"] = (
    contextvars.ContextVar("repro_current_span", default=None)
)


class _SpanHandle:
    """Context manager timing one span into one :class:`SpanRecord`.

    ``record`` is None while the span is open and the finished record
    once it has closed.
    """

    __slots__ = ("_registry", "name", "attributes", "context", "record",
                 "_parent", "_children", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 attributes: Mapping[str, object], context=None):
        self._registry = registry
        self.name = name
        self.attributes = tuple(
            sorted(
                (key, _normalize_attribute(value))
                for key, value in attributes.items()
            )
        )
        self.context = context
        self.record: SpanRecord | None = None
        self._parent: _SpanHandle | None = None
        self._children: list[SpanRecord] = []
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._parent = current_span.get()
        current_span.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._start
        ctx = self.context  # a TraceContext, or None for a plain span
        self.record = SpanRecord(
            name=self.name,
            duration=duration,
            attributes=self.attributes,
            children=tuple(self._children),
            start=_PERF_EPOCH + self._start,
            trace_id=getattr(ctx, "trace_id", None),
            span_id=getattr(ctx, "span_id", None),
            parent_span_id=getattr(ctx, "parent_span_id", None),
            tenant=getattr(ctx, "tenant", None),
            pid=os.getpid(),
        )
        # Tolerate out-of-order exits (generators suspended mid-span):
        # attach to the nearest ancestor still open.
        parent = self._parent
        while parent is not None and parent.record is not None:
            parent = parent._parent
        if current_span.get() is self:
            current_span.set(parent)
        if self._registry.enabled:
            self._registry._close_span(self.record, parent)


class _NullSpan:
    """The shared no-op span/timer: entering and exiting does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _TimerHandle:
    """Context manager observing its wall time into a histogram."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_TimerHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class MetricsRegistry:
    """Counters, gauges, histograms, and spans for one process.

    Process-local: worker processes run their own registry and return
    snapshots for the parent to merge. Spans nest by context, not by a
    registry-wide stack, so threads and asyncio tasks sharing one
    registry each attach to their own parent. At most
    :data:`RING_CAPACITY` root spans are kept. One lock guards the
    counters, gauges, histograms and roots: the daemon writes them from
    its event loop and its executor threads at once.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramStat] = {}
        self._roots: deque[SpanRecord] = deque(maxlen=RING_CAPACITY)
        self._lock = threading.Lock()

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a monotonically increasing counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a histogram."""
        self._merge_histogram(name, HistogramStat.single(value))

    def _merge_histogram(self, name: str, stat: HistogramStat) -> None:
        with self._lock:
            existing = self._histograms.get(name, HistogramStat())
            self._histograms[name] = existing.merged(stat)

    def span(self, name: str, **attributes):
        """A context manager recording a wall-time span under this name.

        Spans opened while another span is open in the same context
        become its children in the trace tree; the tree is part of
        :meth:`snapshot`. Attribute values are normalized to
        JSON-compatible types up front (ints, floats, strings and tuples
        survive export structurally; arbitrary objects become strings).
        """
        return _SpanHandle(self, name, attributes)

    def timer(self, name: str):
        """A context manager observing its wall time into histogram ``name``."""
        return _TimerHandle(self, name)

    def _close_span(self, record: SpanRecord, parent) -> None:
        if parent is not None and parent._registry is self:
            parent._children.append(record)
        else:
            self._add_roots((record,))
        self.observe(f"span.{record.name}", record.duration)

    def _add_roots(self, records: tuple[SpanRecord, ...]) -> None:
        with self._lock:
            overflow = len(self._roots) + len(records) - RING_CAPACITY
            self._roots.extend(records)
        if overflow > 0:
            self.count("telemetry.spans_dropped", overflow)

    def snapshot(self) -> MetricsSnapshot:
        """The registry's current state as a mergeable snapshot."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms=dict(self._histograms),
                spans=tuple(self._roots),
            )

    def merge_snapshot(self, snapshot: MetricsSnapshot | None) -> None:
        """Fold a (worker) snapshot into this registry."""
        if snapshot is None:
            return
        for name, value in snapshot.counters.items():
            self.count(name, value)
        for name, value in snapshot.gauges.items():
            self.gauge(name, value)
        for name, stat in snapshot.histograms.items():
            self._merge_histogram(name, stat)
        self._add_roots(snapshot.spans)

    def reset(self) -> None:
        """Drop all recorded metrics and spans."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._roots.clear()


class NullRegistry(MetricsRegistry):
    """The off-by-default registry: every operation is a no-op.

    Instrumented hot paths pay one delegating call; ``span``/``timer``
    hand back a shared null context manager, so no objects are allocated.
    """

    enabled = False

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, **attributes):
        return _NULL_SPAN

    def timer(self, name: str):
        return _NULL_SPAN

    def snapshot(self) -> MetricsSnapshot | None:
        return None

    def merge_snapshot(self, snapshot: MetricsSnapshot | None) -> None:
        pass


_NULL_REGISTRY = NullRegistry()
_active: MetricsRegistry = _NULL_REGISTRY


def registry() -> MetricsRegistry:
    """The process-global registry instrumented code writes to."""
    return _active


def enabled() -> bool:
    """Whether telemetry collection is currently on in this process."""
    return _active.enabled


def enable() -> MetricsRegistry:
    """Install a fresh collecting registry and return it."""
    global _active
    _active = MetricsRegistry()
    return _active


def disable() -> None:
    """Return to the shared no-op registry (collection off)."""
    global _active
    _active = _NULL_REGISTRY


def install(target: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry, returning the previous one.

    Used by the executor's worker shim to collect one work unit's metrics
    into a private registry whose snapshot crosses the pool boundary.
    """
    global _active
    previous = _active
    _active = target
    return previous


# Delegating conveniences: instrumented modules call ``telemetry.count``
# etc. so the active registry is looked up per call (cheap, and workers
# that re-install a registry are picked up immediately).


def count(name: str, value: float = 1.0) -> None:
    """Add to a counter on the active registry."""
    _active.count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry."""
    _active.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry."""
    _active.observe(name, value)


def span(name: str, **attributes):
    """Open a span on the active registry (no-op context when disabled)."""
    return _active.span(name, **attributes)


def timer(name: str):
    """Open a timer on the active registry (no-op context when disabled)."""
    return _active.timer(name)


def traced_span(name: str, context, /, **attributes) -> _SpanHandle:
    """A span carrying ``context``'s trace identity as record fields.

    ``context`` is a :class:`~repro.system.observe.tracing.TraceContext`.
    Unlike :func:`span` the handle is timed even with telemetry off, so
    its ``record`` can feed the always-on trace ring; the registry keeps
    it only when collecting.
    """
    return _SpanHandle(_active, name, attributes, context)


# ---------------------------------------------------------------------------
# Structured logging.
# ---------------------------------------------------------------------------

_ROOT_LOGGER_NAME = "repro"


def get_logger(name: str) -> logging.Logger:
    """A logger in the ``repro.*`` namespace.

    Args:
        name: Suffix under the ``repro`` root (``"system.executor"``), or a
            full ``repro.*`` name, which is used as is.

    Returns:
        The namespaced logger.
    """
    if name == _ROOT_LOGGER_NAME or name.startswith(_ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_LOGGER_NAME}.{name}")


def log_event(
    logger: logging.Logger, level: int, event: str, **fields
) -> None:
    """Emit one structured event record.

    The event name becomes the message; ``fields`` ride on the record as
    ``record.fields`` so both formatters can render them (human as
    ``key=value`` suffixes, JSON as top-level keys).
    """
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"fields": fields})


def _record_fields(record: logging.LogRecord) -> Mapping[str, object]:
    fields = getattr(record, "fields", None)
    return fields if isinstance(fields, Mapping) else {}


class JsonFormatter(logging.Formatter):
    """One JSON object per line: timestamp, level, logger, event, fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, object] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in _record_fields(record).items():
            payload.setdefault(key, value)
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


class HumanFormatter(logging.Formatter):
    """``LEVEL logger: event key=value ...`` for terminals."""

    def format(self, record: logging.LogRecord) -> str:
        suffix = "".join(
            f" {key}={value}" for key, value in _record_fields(record).items()
        )
        base = (
            f"{record.levelname.lower():<7} {record.name}: "
            f"{record.getMessage()}{suffix}"
        )
        if record.exc_info:
            base = f"{base}\n{self.formatException(record.exc_info)}"
        return base


def setup_logging(
    level: str = "warning", fmt: str = "human", stream=None
) -> logging.Logger:
    """Wire the ``repro`` root logger to a stream handler.

    Idempotent per process: an existing handler installed by this function
    is replaced, not duplicated.

    Args:
        level: Threshold name (``debug``/``info``/``warning``/``error``).
        fmt: ``"human"`` or ``"json"``.
        stream: Destination; defaults to ``sys.stderr``.

    Returns:
        The configured ``repro`` root logger.
    """
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    if fmt not in ("human", "json"):
        raise ValueError(f"unknown log format {fmt!r}; use 'human' or 'json'")
    root = logging.getLogger(_ROOT_LOGGER_NAME)
    root.setLevel(numeric)
    root.propagate = False
    for handler in list(root.handlers):
        if getattr(handler, "_repro_telemetry", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if fmt == "json" else HumanFormatter())
    handler._repro_telemetry = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    return root


def iter_spans(snapshot: MetricsSnapshot) -> Iterator[SpanRecord]:
    """Depth-first walk over every span in a snapshot's forest."""
    stack = list(reversed(snapshot.spans))
    while stack:
        record = stack.pop()
        yield record
        stack.extend(reversed(record.children))
