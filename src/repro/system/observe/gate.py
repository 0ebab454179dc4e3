"""Perf-regression gate over run-ledger records.

``repro runs check`` compares the latest ledger record against a pinned
baseline record under configurable thresholds and exits non-zero on any
violation, so CI catches cost regressions — wall-time blowups, extra
model invocations, cache hit-rate collapses, bound-width inflation —
the moment they land rather than releases later.

One table, :data:`METRICS`, says where each metric lives in a record and
how it is gated; :func:`check_run`, :func:`diff_runs` and the
``repro runs check`` flags all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class GateThresholds:
    """Limits ``check_run`` enforces, one per gated :data:`METRICS` row.

    Each field is the limit of the row that names it: a multiple of the
    baseline for a ratio row, an absolute value for a floor or ceiling.
    None disables the check, except on a row with a baseline slack,
    where None derives the limit from the baseline's value. Invocations
    and bound widths are seed-deterministic, so their ratios are tight
    (the bound's 1.001 is float-printing slack); wall time is the
    machine-dependent one, so its ratio is generous. The serve, stream
    and p99 limits are wall-time or timing dependent, so they have no
    safe baseline-derived default and are checked only when set.
    """

    max_wall_ratio: float | None = 10.0
    max_invocation_ratio: float | None = 1.0
    min_cache_hit_ratio: float | None = None
    max_bound_ratio: float | None = 1.001
    min_sentinel_recall: float | None = None
    max_sentinel_fpr: float | None = None
    max_executor_fallbacks: float | None = None
    min_serve_speedup: float | None = None
    min_serve_coalescing: float | None = None
    min_stream_fps: float | None = None
    max_p99_latency: float | None = None


@dataclass(frozen=True)
class Metric:
    """One row of the gate table.

    Attributes:
        label: Name in diff rows, ``GateResult.checked`` and violations.
        path: Dotted key path to the value in a ledger record.
        threshold: The :class:`GateThresholds` field that gates it, or
            None for a row ``diff_runs`` shows but nothing gates.
        rule: ``"ratio"`` (candidate at most threshold x baseline; both
            records need the value), ``"floor"`` or ``"ceiling"`` (an
            absolute limit on the candidate).
        slack: For a floor or ceiling left unset: the limit is the
            baseline plus this slack, never below zero when the slack is
            nonzero. None leaves an unset limit unchecked.
    """

    label: str
    path: str
    threshold: str | None = None
    rule: str = "ratio"
    slack: float | None = None


#: Every metric ``diff_runs`` shows, in display order; rows with a
#: threshold are the ones ``check_run`` gates. A fallback means the pool
#: path silently degraded to serial, so a clean baseline pins it at 0.
METRICS: tuple[Metric, ...] = (
    Metric("wall_seconds", "wall_seconds", "max_wall_ratio"),
    Metric("model_invocations", "metrics.model_invocations",
           "max_invocation_ratio"),
    Metric("cache_hit_ratio", "metrics.cache_hit_ratio",
           "min_cache_hit_ratio", "floor", -0.02),
    Metric("cache_hits", "metrics.cache_hits"),
    Metric("cache_misses", "metrics.cache_misses"),
    Metric("trials_priced", "metrics.trials_priced"),
    Metric("executor_fallbacks", "metrics.executor_fallbacks",
           "max_executor_fallbacks", "ceiling", 0.0),
    Metric("executor_units", "facts.executor.units"),
    Metric("executor_workers", "facts.executor.workers"),
    Metric("executor_chunk_size", "facts.executor.chunk_size"),
    Metric("executor_pool_generation", "facts.executor.pool_generation"),
    Metric("executor_spawn_seconds", "facts.executor.spawn_seconds"),
    Metric("executor_dispatch_seconds_per_task",
           "facts.executor.dispatch_seconds_per_task"),
    Metric("max_bound_width", "bounds.max_width", "max_bound_ratio"),
    Metric("mean_bound_width", "bounds.mean_width"),
    Metric("sentinel_recall", "facts.sentinel.recall", "min_sentinel_recall",
           "floor", 0.0),
    Metric("sentinel_fpr", "facts.sentinel.fpr", "max_sentinel_fpr",
           "ceiling", 0.0),
    Metric("sentinel_localization", "facts.sentinel.localization"),
    Metric("serve_p50_warm_seconds", "facts.serve.p50_warm_seconds"),
    Metric("serve_p99_warm_seconds", "facts.serve.p99_warm_seconds",
           "max_p99_latency", "ceiling"),
    Metric("serve_cold_cli_seconds", "facts.serve.cold_cli_seconds"),
    Metric("serve_speedup", "facts.serve.speedup_cold_over_warm",
           "min_serve_speedup", "floor"),
    Metric("serve_coalescing_ratio", "facts.serve.coalescing_ratio",
           "min_serve_coalescing", "floor"),
    Metric("serve_requests", "facts.serve.requests"),
    Metric("serve_rejected", "facts.serve.rejected"),
    Metric("serve_batched_kernel_calls", "facts.serve.batched_kernel_calls"),
    Metric("stream_frames_per_sec", "facts.stream.frames_per_sec",
           "min_stream_fps", "floor"),
    Metric("stream_windows", "facts.stream.windows"),
    Metric("stream_violations", "facts.stream.violations"),
    Metric("stream_repairs", "facts.stream.repairs"),
    Metric("stream_first_breach_count", "facts.stream.first_breach_count"),
    Metric("fleet_cameras", "facts.fleet.telemetry.fleet.cameras"),
    Metric("fleet_violations", "facts.fleet.telemetry.fleet.violations"),
    Metric("fleet_violation_concentration",
           "facts.fleet.telemetry.fleet.violation_concentration"),
)


def _lookup(record: Mapping, path: str) -> float | None:
    """The numeric value at dotted ``path`` in a record, else None."""
    node: object = record
    for key in path.split("."):
        if not isinstance(node, Mapping):
            return None
        node = node.get(key)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


@dataclass(frozen=True)
class GateViolation:
    """One threshold breach.

    Attributes:
        metric: Which metric breached (``"wall_seconds"``, ...).
        baseline: Baseline value.
        candidate: Candidate value.
        limit: The effective limit the candidate crossed.
        message: Human-readable one-liner.
    """

    metric: str
    baseline: float | None
    candidate: float | None
    limit: float
    message: str


@dataclass(frozen=True)
class GateResult:
    """Outcome of :func:`check_run`.

    Attributes:
        violations: Every breach found (empty means the gate passed).
        checked: Names of the metrics that were actually compared
            (a check is skipped when either record lacks the value).
    """

    violations: tuple[GateViolation, ...] = ()
    checked: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def _breach(
    metric: Metric, base: float | None, cand: float, limit: float
) -> GateViolation | None:
    """The violation of one gated row, or None when it holds."""
    label, rule = metric.label, metric.rule
    bound = base * limit if rule == "ratio" else limit
    if not all(math.isfinite(v) for v in (base, cand) if v is not None):
        # Every comparison with NaN is false: unchecked, a NaN record
        # would pass every check.
        message = (
            f"{label}: non-finite value (baseline {base}, candidate {cand})"
        )
    elif rule == "ratio" and base <= 0:
        # No baseline magnitude to scale: any positive candidate on a
        # zero baseline is growth the ratio cannot express.
        if cand <= 0:
            return None
        bound = 0.0
        message = f"{label}: baseline is {base:g} but candidate is {cand:g}"
    elif rule == "ratio" and cand > bound:
        message = f"{label}: {cand:g} exceeds {limit:g}x baseline ({base:g})"
    elif rule == "floor" and cand < bound:
        message = f"{label}: {cand:g} below floor {bound:g}"
    elif rule == "ceiling" and cand > bound:
        message = f"{label}: {cand:g} above ceiling {bound:g}"
    else:
        return None
    return GateViolation(label, base, cand, bound, message)


def check_run(
    baseline: Mapping,
    candidate: Mapping,
    thresholds: GateThresholds | None = None,
) -> GateResult:
    """Compare a candidate ledger record against a baseline record.

    Args:
        baseline: The pinned known-good record.
        candidate: The record under test (typically the ledger's latest).
        thresholds: Limits to enforce; defaults to :class:`GateThresholds`.

    Returns:
        A :class:`GateResult`; ``passed`` is False iff any enforced
        threshold was breached or a gated value is NaN or infinite.
        Checks whose inputs are missing from either record are skipped,
        not failed — the gate guards regressions, not record
        completeness.
    """
    limits = thresholds or GateThresholds()
    violations: list[GateViolation] = []
    checked: list[str] = []
    for metric in METRICS:
        if metric.threshold is None:
            continue
        limit = getattr(limits, metric.threshold)
        base = _lookup(baseline, metric.path)
        cand = _lookup(candidate, metric.path)
        if limit is None and metric.slack is not None and base is not None:
            limit = max(base + metric.slack, 0.0) if metric.slack else base
        if limit is None or cand is None:
            continue
        if metric.rule == "ratio" and base is None:
            continue
        checked.append(metric.label)
        violation = _breach(metric, base, cand, limit)
        if violation is not None:
            violations.append(violation)
    return GateResult(violations=tuple(violations), checked=tuple(checked))


def diff_runs(baseline: Mapping, candidate: Mapping) -> list[dict]:
    """A field-by-field comparison of two ledger records.

    Args:
        baseline: The reference record.
        candidate: The record to compare against it.

    Returns:
        One row per :data:`METRICS` entry present in either record:
        ``{"metric", "baseline", "candidate", "delta", "ratio"}`` (delta
        and ratio are None when either side is missing, ratio also when
        the baseline is zero).
    """
    rows: list[dict] = []
    for metric in METRICS:
        base = _lookup(baseline, metric.path)
        cand = _lookup(candidate, metric.path)
        if base is None and cand is None:
            continue
        both = base is not None and cand is not None
        delta = cand - base if both else None
        ratio = cand / base if both and base != 0.0 else None
        rows.append({"metric": metric.label, "baseline": base,
                     "candidate": cand, "delta": delta, "ratio": ratio})
    return rows
