"""Distributed trace-context propagation and the in-memory trace ring.

A request that enters ``POST /estimate``, gets coalesced by the
MicroBatcher and is priced inside a pool worker crosses an asyncio task,
an executor thread and a worker process. This module gives it one
identity across all of them:

- :class:`TraceContext` — an immutable (trace id, span id, parent span
  id, tenant) tuple minted per serve request (honouring an inbound
  ``X-Repro-Trace-Id`` header) and carried in a :mod:`contextvars`
  variable, so nested :func:`span` calls on one asyncio task or thread
  chain parent→child automatically. Boundaries that drop context
  variables (``run_in_executor``, the batcher task, pool workers) hand
  it across explicitly with :func:`use` or :func:`run_with`, which
  also hands over the open span, so the registry's tree follows the
  trace.
- :func:`span` — one traced span, timed once into one
  :class:`~repro.system.telemetry.SpanRecord` whose trace identity and
  pid are record fields. The record goes to the ring always and to the
  telemetry registry when collection is on. Worker records come back in
  the unit's snapshot and :func:`ingest_snapshot_spans` rings them.
- :class:`TraceRing` — a bounded, always-on ring of completed traced
  records (independent of telemetry enablement) backing the ``/traces``
  daemon endpoints, the ``repro trace`` CLI and the crash flight
  recorder (:func:`dump_flight_record`).

Tracing never touches the estimation kernels: contexts are minted and
spans opened only in orchestration paths (HTTP handler, batcher,
dispatch, stream windows), so profile series stay bit-identical and the
telemetry-off overhead budget is untouched.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass

from repro.system import telemetry
from repro.system.observe import ledger as run_ledger
from repro.system.telemetry import RING_CAPACITY, SpanRecord

__all__ = [
    "RING_CAPACITY",
    "TraceContext",
    "TraceRing",
    "current_context",
    "dump_flight_record",
    "ingest_snapshot_spans",
    "mint",
    "new_id",
    "ring",
    "run_with",
    "span",
    "use",
]

#: Inbound trace ids must look like hex-ish tokens; anything else is
#: replaced with a freshly minted id (never trust wire input verbatim).
TRACE_ID_PATTERN = re.compile(r"^[0-9a-fA-F-]{1,64}$")


def new_id() -> str:
    """A fresh 16-hex-character trace or span identifier."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """One position in a distributed trace.

    Attributes:
        trace_id: Identifier shared by every span of the request.
        span_id: Identifier of the current span.
        parent_span_id: The enclosing span's id, if any.
        tenant: The requesting tenant, if known.
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None
    tenant: str | None = None

    def child(self) -> "TraceContext":
        """A child context: same trace, fresh span id, this span as parent."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_span_id=self.span_id,
            tenant=self.tenant,
        )


def mint(
    tenant: str | None = None, trace_id: str | None = None
) -> TraceContext:
    """A root context for a new request.

    Args:
        tenant: Requesting tenant, if known.
        trace_id: Inbound trace id (e.g. from an ``X-Repro-Trace-Id``
            header). Accepted when it matches :data:`TRACE_ID_PATTERN`;
            anything malformed is discarded and a fresh id minted, so a
            hostile header cannot inject arbitrary bytes into exports.

    Returns:
        A context with no parent span.
    """
    accepted: str | None = None
    if trace_id is not None:
        candidate = str(trace_id).strip()
        if candidate and TRACE_ID_PATTERN.match(candidate):
            accepted = candidate.lower()
    return TraceContext(
        trace_id=accepted if accepted is not None else new_id(),
        span_id=new_id(),
        tenant=tenant,
    )


_current: contextvars.ContextVar[TraceContext | None] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_context() -> TraceContext | None:
    """The trace context active on this task/thread, if any."""
    return _current.get()


@contextlib.contextmanager
def use(ctx: TraceContext | None):
    """Make ``ctx`` the current context for the block (None is a no-op).

    The explicit re-entry point for boundaries that drop contextvars
    (thread pools, process pools): capture :func:`current_context` on
    the submitting side, pass it across, and ``with use(ctx):`` on the
    executing side. Spans opened in the block nest under the span
    ``ctx`` names when it is open in this process, and start a new root
    of the registry's span forest otherwise (a fresh trace).
    """
    if ctx is None:
        yield None
        return
    token = _current.set(ctx)
    span_token = telemetry.current_span.set(_open.get(ctx.span_id))
    try:
        yield ctx
    finally:
        telemetry.current_span.reset(span_token)
        _current.reset(token)


def run_with(ctx: TraceContext | None, fn, /, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` with ``ctx`` as the current context.

    A picklable-friendly closure target for ``run_in_executor``.
    """
    with use(ctx):
        return fn(*args, **kwargs)


class TraceRing:
    """A bounded, thread-safe ring of completed traced span records.

    Always on — recording a span is a deque append under a lock,
    cheap enough to keep regardless of telemetry enablement, which is
    what makes the crash flight recorder trustworthy: it has data even
    when the operator never passed ``--telemetry``.
    """

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        self._events: deque[SpanRecord] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()

    def record(self, event: SpanRecord) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> list[SpanRecord]:
        """All retained records, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def trace(self, trace_id: str) -> list[SpanRecord]:
        """Every retained record of one trace (id or unique prefix)."""
        events = self.events()
        exact = [e for e in events if e.trace_id == trace_id]
        if exact:
            return exact
        return [e for e in events if e.trace_id.startswith(trace_id)]

    def traces(self, limit: int = 20) -> list[dict]:
        """Per-trace summaries, most recent first.

        Each summary carries the trace id, span count, root span name
        (the span with no parent, else the earliest), tenants seen,
        wall-clock start and end-to-end duration.
        """
        grouped: dict[str, list[SpanRecord]] = {}
        for event in self.events():
            grouped.setdefault(event.trace_id, []).append(event)
        summaries = []
        for trace_id, events in grouped.items():
            roots = [e for e in events if e.parent_span_id is None]
            anchor = roots[0] if roots else min(events, key=lambda e: e.start)
            start = min(e.start for e in events)
            end = max(e.start + e.duration for e in events)
            summaries.append(
                {
                    "trace_id": trace_id,
                    "spans": len(events),
                    "root": anchor.name,
                    "tenants": sorted({e.tenant for e in events if e.tenant}),
                    "start_ts": round(start, 6),
                    "duration_s": round(end - start, 9),
                    "pids": sorted({e.pid for e in events}),
                }
            )
        summaries.sort(key=lambda s: s["start_ts"], reverse=True)
        return summaries[: max(int(limit), 0)]


_RING = TraceRing()


def ring() -> TraceRing:
    """The process-wide trace ring."""
    return _RING


#: Traced spans open in this process, by span id: what :func:`use`
#: hands across a boundary so child spans nest under their own parent.
_open: dict[str, telemetry._SpanHandle] = {}


@contextlib.contextmanager
def span(name: str, **attributes):
    """A traced span: one record to the ring, and to telemetry when on.

    Makes a child of the current context (or a fresh root) current for
    the block and times the block once into a
    :class:`~repro.system.telemetry.SpanRecord` carrying that identity.

    Yields:
        The block's :class:`TraceContext`.
    """
    parent = _current.get()
    ctx = parent.child() if parent is not None else mint()
    token = _current.set(ctx)
    handle = telemetry.traced_span(name, ctx, **attributes)
    _open[ctx.span_id] = handle
    try:
        with handle:
            yield ctx
    finally:
        del _open[ctx.span_id]
        _current.reset(token)
        _RING.record(handle.record)


def ingest_snapshot_spans(snapshot: telemetry.MetricsSnapshot | None) -> int:
    """Ring every traced record of a (worker) snapshot.

    The executor calls this while folding worker outcomes, so spans
    recorded inside pool processes — which have their own ring that dies
    with the worker — land in the parent's ring and show up in
    ``/traces`` and ``repro trace``.

    Returns:
        The number of records ingested.
    """
    if snapshot is None:
        return 0
    traced = [r for r in telemetry.iter_spans(snapshot) if r.trace_id]
    for record in traced:
        _RING.record(record)
    return len(traced)


def dump_flight_record(
    reason: str, error: str | None = None, limit: int = 64
) -> dict:
    """Dump the last-N ring records to the run ledger (crash forensics).

    Called on unhandled daemon errors and SIGQUIT. Annotates the active
    run, records a ``flight.recorder`` event, and — when the active run
    persists to a ledger file — appends a standalone, schema-valid
    ``flight-recorder`` record immediately, so the evidence survives
    even if the process dies before ``finish_run``.

    Returns:
        The flight record (also when no run was active).
    """
    events = _RING.events()[-max(int(limit), 1):]
    record = {
        "reason": str(reason),
        "error": str(error) if error else None,
        "ts": round(time.time(), 3),
        "pid": os.getpid(),
        "spans": [event.to_dict(children=False) for event in events],
    }
    run_ledger.annotate(
        flight_record={
            "reason": record["reason"],
            "error": record["error"],
            "spans": len(events),
        }
    )
    run_ledger.record_event(
        "flight.recorder", reason=record["reason"], spans=len(events)
    )
    run = run_ledger.active_run()
    if run is not None and run.path is not None:
        run_ledger.append_record(
            run.path,
            run_ledger.build_record(
                run.run_id,
                record["ts"],
                "flight-recorder",
                {"flight_record": record},
                status="flight",
            ),
        )
    return record
