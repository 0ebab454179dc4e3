"""Prometheus text-exposition exporter for telemetry snapshots.

Renders a :class:`~repro.system.telemetry.MetricsSnapshot` in the
Prometheus text format (version 0.0.4): counters as ``*_total``
monotonic families, gauges as point-in-time families, and histograms as
full ``_bucket``/``_sum``/``_count`` families with **cumulative** bucket
lines over the fixed layout in
:data:`~repro.system.telemetry.HISTOGRAM_BUCKET_BOUNDS` — not just
min/max summaries, so quantiles can be computed server-side with
``histogram_quantile``.

Labels ride *inside* the dotted telemetry name: record a sample under
``serve.request_seconds{endpoint=estimate,tenant=alice}`` (use
:func:`labeled_name` to build such names) and the exporter groups every
labelled variant into one family, emitting ``HELP``/``TYPE`` once and a
labelled sample line per variant with values escaped per the exposition
spec. Names without a ``{...}`` suffix render exactly as before, so the
labelling layer is invisible until used.

The exposition is a plain string; write it to a file for the node
exporter's textfile collector, or serve it at ``/metrics`` with any HTTP
server for a scrape target (examples in ``docs/SUBSTRATE.md``).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from repro.system.observe.trace import atomic_write_text
from repro.system.telemetry import (
    HISTOGRAM_BUCKET_BOUNDS,
    HistogramStat,
    MetricsSnapshot,
)

_NAME_PREFIX = "repro_"
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(dotted: str, suffix: str = "") -> str:
    """A dotted telemetry name as a valid Prometheus metric name.

    ``cache.hit`` becomes ``repro_cache_hit`` (plus an optional suffix
    such as ``_total``); any character outside ``[a-zA-Z0-9_:]`` maps to
    an underscore.
    """
    return _NAME_PREFIX + _INVALID_CHARS.sub("_", dotted) + suffix


def labeled_name(dotted: str, **labels: object) -> str:
    """A dotted telemetry name carrying label pairs for the exporter.

    ``labeled_name("serve.request_seconds", endpoint="estimate")`` returns
    ``serve.request_seconds{endpoint=estimate}`` — a plain string usable
    with :func:`repro.system.telemetry.observe` and friends, which the
    exposition groups into the ``repro_serve_request_seconds`` family with
    an ``endpoint="estimate"`` label. Keys are sorted so the same label
    set always produces the same metric key. Without labels the dotted
    name passes through unchanged.
    """
    if not labels:
        return dotted
    inner = ",".join(
        f"{key}={value}" for key, value in sorted(labels.items())
    )
    return f"{dotted}{{{inner}}}"


def split_labels(dotted: str) -> tuple[str, dict[str, str]]:
    """Split a telemetry name into its base name and label pairs.

    The inverse of :func:`labeled_name`: a trailing ``{k=v,...}`` suffix
    becomes the label dict; anything else (including a malformed suffix)
    is returned as an unlabelled base name.
    """
    if not dotted.endswith("}"):
        return dotted, {}
    brace = dotted.find("{")
    if brace <= 0:
        return dotted, {}
    labels: dict[str, str] = {}
    body = dotted[brace + 1 : -1]
    for pair in body.split(","):
        key, sep, value = pair.partition("=")
        if not sep or not key:
            return dotted, {}
        labels[key] = value
    return dotted[:brace], labels


def _escape_label_value(value: str) -> str:
    """A label value escaped per the exposition format spec."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: dict[str, str], extra: str = "") -> str:
    """The ``{k="v",...}`` block for a sample line ('' when empty)."""
    parts = [
        f'{_INVALID_LABEL_CHARS.sub("_", key)}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _fmt(value: float) -> str:
    """A sample value in exposition syntax (integers without the dot)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(float(value))


def _families(
    mapping: dict[str, object],
) -> list[tuple[str, list[tuple[dict[str, str], object]]]]:
    """Metrics grouped into (base name, [(labels, value), ...]) families.

    Families sort by base name; within a family, unlabelled samples come
    first, then labelled ones in sorted label order.
    """
    grouped: dict[str, list[tuple[dict[str, str], object]]] = {}
    for dotted, value in mapping.items():
        base, labels = split_labels(dotted)
        grouped.setdefault(base, []).append((labels, value))
    return [
        (
            base,
            sorted(grouped[base], key=lambda item: sorted(item[0].items())),
        )
        for base in sorted(grouped)
    ]


def _histogram_lines(
    dotted: str, variants: list[tuple[dict[str, str], HistogramStat]]
) -> list[str]:
    """One histogram family: cumulative buckets, then sum and count."""
    name = metric_name(dotted)
    lines = [
        f"# HELP {name} Histogram of {dotted} (repro telemetry).",
        f"# TYPE {name} histogram",
    ]
    for labels, stat in variants:
        cumulative = 0
        buckets = stat.bucket_counts or (0,) * len(HISTOGRAM_BUCKET_BOUNDS)
        for bound, bucket in zip(HISTOGRAM_BUCKET_BOUNDS, buckets):
            cumulative += bucket
            block = _render_labels(labels, extra=f'le="{_fmt(bound)}"')
            lines.append(f"{name}_bucket{block} {cumulative}")
        block = _render_labels(labels, extra='le="+Inf"')
        lines.append(f"{name}_bucket{block} {stat.count}")
        block = _render_labels(labels)
        lines.append(f"{name}_sum{block} {_fmt(stat.total)}")
        lines.append(f"{name}_count{block} {stat.count}")
    return lines


def prometheus_exposition(snapshot: MetricsSnapshot | None) -> str:
    """The snapshot in the Prometheus text exposition format.

    Args:
        snapshot: The telemetry snapshot (None yields an empty exposition).

    Returns:
        The exposition text, newline-terminated.
    """
    if snapshot is None:
        return "# repro: no telemetry collected\n"
    lines: list[str] = []
    for base, variants in _families(snapshot.counters):
        name = metric_name(base, "_total")
        lines.append(f"# HELP {name} Counter {base} (repro telemetry).")
        lines.append(f"# TYPE {name} counter")
        for labels, value in variants:
            lines.append(f"{name}{_render_labels(labels)} {_fmt(value)}")
    for base, variants in _families(snapshot.gauges):
        name = metric_name(base)
        lines.append(f"# HELP {name} Gauge {base} (repro telemetry).")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in variants:
            lines.append(f"{name}{_render_labels(labels)} {_fmt(value)}")
    for base, variants in _families(snapshot.histograms):
        lines.extend(_histogram_lines(base, variants))
    return "\n".join(lines) + "\n"


def export_prometheus(
    snapshot: MetricsSnapshot | None, path: str | Path
) -> str:
    """Write the exposition to a file atomically (tmp + rename, see
    :func:`~repro.system.observe.trace.atomic_write_text`).

    Args:
        snapshot: The telemetry snapshot.
        path: Destination path (conventionally ``*.prom``).

    Returns:
        The exposition text written.
    """
    text = prometheus_exposition(snapshot)
    atomic_write_text(path, text)
    return text
