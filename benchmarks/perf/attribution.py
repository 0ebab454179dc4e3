"""Per-layer metrics from the spans a traced child wrote (see tracer.py).

A layer's self time is its span's duration minus the part its child
spans cover. One operation (a request, a sweep) is decomposed into the
self times of every span it caused:

- a request's root spans carry its request id; a batched request's
  ``serve.submit`` span is split into the wait before the kernel call
  that served it (``serve.queue_wait``), that call's span tree, and the
  wait after it until the request's task resumed (``serve.resume``);
- whatever the operation's measured latency holds beyond its root spans
  is the named residual (``serve.http`` for requests: connect, HTTP
  parsing, JSON decode and encode, event-loop scheduling).

The parts of one operation sum to its latency exactly. The reported
value of a layer is its mean over the operations whose latency lies
within 10 percentiles of the gated latency quantile, so the layers of
that operation sum to (within a few percent of) the gated latency.
"""

from __future__ import annotations

from collections import defaultdict

#: Self-time metrics: name -> the layer whose self time it reports. The
#: unit is the name's suffix.
SELF_LAYERS = {
    "serve.http_ms": "serve.http",
    "serve.parse_us": "serve.parse",
    "serve.admit_us": "serve.admit",
    "serve.queue_wait_ms": "serve.queue_wait",
    "serve.resume_us": "serve.resume",
    "serve.group_self_us": "serve.group",
    "interventions.draw_us": "interventions.draw",
    "query.gather_us": "query.gather",
    "estimators.estimate_rows_us": "estimators.estimate_rows",
    "serve.stream_validate_ms": "serve.stream_validate",
    "serve.stream_readout_us": "serve.stream_readout",
    "estimators.sentinel_extend_ms": "estimators.sentinel_extend",
    "estimators.window_extend_ms": "estimators.window_extend",
    "serve.profile_request_s": "serve.profile_request",
    "executor.map_self_ms": "executor.map",
    "shm.publish_ms": "shm.publish",
    "core.hypercube_self_ms": "core.hypercube",
    "core.sweep_self_ms": "core.sweep",
    "stats.sampler_ms": "stats.sampler",
    "stats.prefix_moments_ms": "stats.prefix_moments",
    "estimators.estimate_batch_ms": "estimators.estimate_batch",
    "query.frame_values_ms": "query.frame_values",
    "detection.run_ms": "detection.run",
    "detection.disk_load_ms": "detection.disk_load",
    "detection.disk_store_ms": "detection.disk_store",
}

#: Set-up phases, reported as the duration of their span.
SETUP_LAYERS = {
    "setup.import_s": "setup.import",
    "setup.warmup_s": "setup.warmup",
    "setup.prewarm_s": "setup.prewarm",
    "setup.cache_fill_s": "setup.cache_fill",
}

#: Counts, ratios and validity checks.
OTHER_LAYERS = {
    "serve.rejected": "count",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.kernel_calls": "count",
    "serve.group_busy_frac": "ratio",
    "detection.disk_hit_ratio": "ratio",
    "detection.evaluations": "count",
    "executor.units": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.sum_gap_frac": "ratio",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _unit(name: str) -> str:
    return name.rsplit("_", 1)[1]


UNITS = {
    **{name: _unit(name) for name in SELF_LAYERS},
    **{name: "s" for name in SETUP_LAYERS},
    **OTHER_LAYERS,
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Trace:
    """Spans of one traced child, indexed for decomposition."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[int, list] = defaultdict(list)
        self.roots: dict[str, list] = defaultdict(list)
        self.groups: dict[str, list] = {}
        for span in spans:
            _, layer, _, _, parent, rid = span[:6]
            if parent is not None:
                self.children[parent].append(span)
            elif layer == "serve.group":
                for request in rid:
                    self.groups[request] = span
            elif rid is not None:
                self.roots[rid].append(span)

    def layer(self, name: str, window=None) -> list[list]:
        """Spans of one layer, optionally only those starting in window."""
        return [
            span for span in self.spans
            if span[1] == name
            and (window is None or window[0] <= span[2] <= window[1])
        ]

    def _add_tree(self, span, parts) -> None:
        children = self.children.get(span[0], ())
        parts[span[1]] += (span[3] - span[2]) - sum(
            child[3] - child[2] for child in children
        )
        for child in children:
            self._add_tree(child, parts)

    def decompose(self, latency, residual, rid=None, roots=None) -> dict:
        """Seconds per layer of one operation; they sum to ``latency``."""
        parts: dict[str, float] = defaultdict(float)
        covered = 0.0
        for root in roots if roots is not None else self.roots.get(rid, ()):
            covered += root[3] - root[2]
            group = self.groups.get(rid) if root[1] == "serve.submit" else None
            if group is None:
                self._add_tree(root, parts)
                continue
            parts["serve.queue_wait"] += group[2] - root[2]
            parts["serve.resume"] += root[3] - group[3]
            self._add_tree(group, parts)
        parts[residual] += latency - covered
        return parts


def band_mean(decompositions: list[dict], latencies: list[float],
              quantile: float) -> dict:
    """Mean parts of the operations within 10 percentiles of
    ``quantile``."""
    low = percentile(latencies, max(quantile - 10, 0))
    high = percentile(latencies, min(quantile + 10, 100))
    band = [
        parts for parts, latency in zip(decompositions, latencies)
        if low <= latency <= high
    ]
    totals: dict[str, float] = defaultdict(float)
    for parts in band:
        for layer, seconds in parts.items():
            totals[layer] += seconds
    return {layer: total / len(band) for layer, total in totals.items()}


def _attributed(parts: dict) -> float:
    return sum(parts.get(layer, 0.0) for layer in SELF_LAYERS.values())


def layer_metrics(trace: Trace, primary, secondary, window,
                  quantile: float) -> dict:
    """The per-layer metrics the spans give; the caller adds
    ``loadgen.late_p99_ms`` and ``trace.overhead_frac``, which it measures.

    Args:
        trace: The child's spans.
        primary: ``(latencies, decompositions)`` of the workload's main
            operation; its layers win where both operations have one.
        secondary: The same for a second operation kind (``/profile``
            on profile-mix), or None.
        window: ``(start, end)`` of the measured phase for counters.
        quantile: The gated latency percentile; layers are averaged
            over the operations around it.

    Returns:
        ``{name: value}`` in each metric's unit; layers the workload
        never reaches read 0.
    """
    latencies, decompositions = primary
    own = band_mean(decompositions, latencies, quantile)
    parts = dict(own)
    if secondary is not None and secondary[0]:
        for layer, seconds in band_mean(secondary[1], secondary[0],
                                        quantile).items():
            parts.setdefault(layer, seconds)
    values = {
        name: parts.get(layer, 0.0) * _SCALE[_unit(name)]
        for name, layer in SELF_LAYERS.items()
    }
    for name, layer in SETUP_LAYERS.items():
        spans = trace.layer(layer)
        values[name] = spans[-1][3] - spans[-1][2] if spans else 0.0

    groups = trace.layer("serve.group", window)
    admits = trace.layer("serve.admit", window)
    loads = trace.layer("detection.disk_load", window)
    maps = trace.layer("executor.map", window)
    waits = [
        parts_["serve.queue_wait"] for parts_ in decompositions
        if "serve.queue_wait" in parts_
    ]
    phase = (window[1] - window[0]) if window else 0.0
    values.update({
        "serve.rejected": float(sum(not span[7] for span in admits)),
        "serve.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "serve.batch_size_mean": (
            sum(span[6] for span in groups) / len(groups) if groups else 0.0
        ),
        "serve.kernel_calls": float(len(groups)),
        "serve.group_busy_frac": (
            sum(span[3] - span[2] for span in groups) / phase
            if phase > 0 else 0.0
        ),
        "detection.disk_hit_ratio": (
            sum(span[7] for span in loads) / len(loads) if loads else 0.0
        ),
        "detection.evaluations": float(
            len(trace.layer("detection.disk_store", window))
        ),
        "executor.units": (
            sum(span[6] or 0 for span in maps) / len(maps) if maps else 0.0
        ),
    })
    gated = percentile(latencies, quantile)
    values["trace.sum_gap_frac"] = (
        _attributed(own) / gated - 1.0 if gated else 0.0
    )
    return values
