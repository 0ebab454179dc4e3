"""The one Chrome trace-event exporter for span records.

Renders :class:`~repro.system.telemetry.SpanRecord` objects as the Trace
Event Format JSON that ``chrome://tracing`` and https://ui.perfetto.dev
load directly: one complete-duration event (``"ph": "X"``) per record,
with its trace identity and attributes riding in ``args``.

Every record carries an absolute wall-clock ``start`` (the registry
anchors ``perf_counter`` starts to a per-process wall-clock epoch) and
the ``pid`` that
recorded it, so :func:`chrome_payload` places each record at its true
offset from the earliest one, on its own process's track. A CLI
``--trace`` run and a ``repro trace export`` of a daemon trace go
through the same function; pool-worker spans render as genuinely
overlapping, epoch-aligned lanes either way.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

from repro.system.telemetry import MetricsSnapshot, SpanRecord, iter_spans


def chrome_payload(records: Iterable[SpanRecord]) -> dict:
    """Span records as a Perfetto-loadable Chrome trace payload.

    ``ts``/``dur`` stay unrounded: the subtraction-then-scale is
    monotone, so child/parent nesting relations survive, which rounding
    to a fixed decimal place would not guarantee.

    Args:
        records: The spans to render (nesting is not consulted: every
            record is placed by its own ``start`` and ``pid``).

    Returns:
        ``{"traceEvents": [...], ...}``: a ``process_name`` metadata
        event per pid, then one ``"X"`` event per record.
    """
    records = list(records)
    origin = min((record.start for record in records), default=0.0)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"repro pid {pid}"},
        }
        for pid in sorted({record.pid for record in records})
    ]
    events = []
    for record in records:
        args = {
            key: getattr(record, key)
            for key in ("trace_id", "span_id", "parent_span_id", "tenant")
            if record.trace_id is not None
        }
        args.update(record.to_dict(children=False)["attributes"])
        events.append(
            {
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": (record.start - origin) * 1e6,
                "dur": record.duration * 1e6,
                "pid": record.pid,
                "tid": 1,
                "args": args,
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.system.observe.trace",
            "note": "epoch-aligned wall-clock timeline; one track per pid",
        },
    }


def trace_depth(snapshot: MetricsSnapshot) -> int:
    """The deepest nesting level of the snapshot's span forest.

    A single root span is depth 1; a root with a child is depth 2. Useful
    for asserting a trace actually captured the layered structure (CLI →
    profiler → sweep → gather) rather than a flat list.
    """

    def depth(record: SpanRecord) -> int:
        return 1 + max((depth(child) for child in record.children), default=0)

    return max((depth(root) for root in snapshot.spans), default=0)


def export_chrome_trace(
    snapshot: MetricsSnapshot | None, path: str | Path
) -> dict:
    """Write every span of the snapshot as a Perfetto-loadable trace file.

    The write is atomic (see :func:`atomic_write_text`), so a reader — or
    a concurrent exporter targeting the same path — never observes a
    partial file.

    Args:
        snapshot: The spans to export (None renders an empty trace).
        path: Destination ``.json`` path.

    Returns:
        The payload written (``{"traceEvents": [...], ...}``).
    """
    payload = chrome_payload(
        iter_spans(snapshot) if snapshot is not None else ()
    )
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return payload


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temporary file and a rename.

    The temporary file lives in the destination directory and is removed
    if the write fails, so the destination is either untouched or
    complete and no partial file is ever left behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
