"""The table-less regression gate, kept as a differential oracle.

A verbatim copy of ``check_run`` as it stood before
:data:`repro.system.observe.gate.METRICS` drove the gate: eleven
hand-unrolled checks over the same :class:`GateThresholds`. Tests compare
the table-driven ``check_run`` against :func:`check_run` here on random
records, so a table row with a wrong path, rule or slack shows up as a
different decision.
"""

from __future__ import annotations

from typing import Mapping

from repro.system.observe.gate import (
    GateResult,
    GateThresholds,
    GateViolation,
)

#: Slack subtracted from the baseline cache hit ratio when no explicit
#: floor is configured.
CACHE_HIT_SLACK = 0.02


def _lookup(record: Mapping, path: tuple[str, ...]) -> float | None:
    """The numeric value at ``path`` in a record, else None."""
    node: object = record
    for key in path:
        if not isinstance(node, Mapping):
            return None
        node = node.get(key)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


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
        threshold was breached. Checks whose inputs are missing from
        either record are skipped, not failed — the gate guards
        regressions, not record completeness.
    """
    limits = thresholds or GateThresholds()
    violations: list[GateViolation] = []
    checked: list[str] = []

    def ratio_check(
        metric: str,
        path: tuple[str, ...],
        max_ratio: float | None,
    ) -> None:
        if max_ratio is None:
            return
        base = _lookup(baseline, path)
        cand = _lookup(candidate, path)
        if base is None or cand is None:
            return
        checked.append(metric)
        if base <= 0:
            # No baseline magnitude to scale: any positive candidate on
            # a zero baseline is growth the ratio cannot express.
            if cand > 0:
                violations.append(
                    GateViolation(
                        metric=metric,
                        baseline=base,
                        candidate=cand,
                        limit=0.0,
                        message=(
                            f"{metric}: baseline is {base:g} but "
                            f"candidate is {cand:g}"
                        ),
                    )
                )
            return
        if cand > base * max_ratio:
            violations.append(
                GateViolation(
                    metric=metric,
                    baseline=base,
                    candidate=cand,
                    limit=base * max_ratio,
                    message=(
                        f"{metric}: {cand:g} exceeds {max_ratio:g}x "
                        f"baseline ({base:g})"
                    ),
                )
            )

    ratio_check("wall_seconds", ("wall_seconds",), limits.max_wall_ratio)
    ratio_check(
        "model_invocations",
        ("metrics", "model_invocations"),
        limits.max_invocation_ratio,
    )
    ratio_check(
        "max_bound_width", ("bounds", "max_width"), limits.max_bound_ratio
    )

    base_hit = _lookup(baseline, ("metrics", "cache_hit_ratio"))
    cand_hit = _lookup(candidate, ("metrics", "cache_hit_ratio"))
    floor = limits.min_cache_hit_ratio
    if floor is None and base_hit is not None:
        floor = max(base_hit - CACHE_HIT_SLACK, 0.0)
    if floor is not None and cand_hit is not None:
        checked.append("cache_hit_ratio")
        if cand_hit < floor:
            violations.append(
                GateViolation(
                    metric="cache_hit_ratio",
                    baseline=base_hit,
                    candidate=cand_hit,
                    limit=floor,
                    message=(
                        f"cache_hit_ratio: {cand_hit:g} below floor "
                        f"{floor:g}"
                    ),
                )
            )

    base_recall = _lookup(baseline, ("facts", "sentinel", "recall"))
    cand_recall = _lookup(candidate, ("facts", "sentinel", "recall"))
    recall_floor = limits.min_sentinel_recall
    if recall_floor is None and base_recall is not None:
        recall_floor = base_recall
    if recall_floor is not None and cand_recall is not None:
        checked.append("sentinel_recall")
        if cand_recall < recall_floor:
            violations.append(
                GateViolation(
                    metric="sentinel_recall",
                    baseline=base_recall,
                    candidate=cand_recall,
                    limit=recall_floor,
                    message=(
                        f"sentinel_recall: {cand_recall:g} below floor "
                        f"{recall_floor:g}"
                    ),
                )
            )

    base_fpr = _lookup(baseline, ("facts", "sentinel", "fpr"))
    cand_fpr = _lookup(candidate, ("facts", "sentinel", "fpr"))
    fpr_ceiling = limits.max_sentinel_fpr
    if fpr_ceiling is None and base_fpr is not None:
        fpr_ceiling = base_fpr
    if fpr_ceiling is not None and cand_fpr is not None:
        checked.append("sentinel_fpr")
        if cand_fpr > fpr_ceiling:
            violations.append(
                GateViolation(
                    metric="sentinel_fpr",
                    baseline=base_fpr,
                    candidate=cand_fpr,
                    limit=fpr_ceiling,
                    message=(
                        f"sentinel_fpr: {cand_fpr:g} above ceiling "
                        f"{fpr_ceiling:g}"
                    ),
                )
            )

    base_fallbacks = _lookup(baseline, ("metrics", "executor_fallbacks"))
    cand_fallbacks = _lookup(candidate, ("metrics", "executor_fallbacks"))
    fallback_ceiling = limits.max_executor_fallbacks
    if fallback_ceiling is None and base_fallbacks is not None:
        fallback_ceiling = base_fallbacks
    if fallback_ceiling is not None and cand_fallbacks is not None:
        checked.append("executor_fallbacks")
        if cand_fallbacks > fallback_ceiling:
            violations.append(
                GateViolation(
                    metric="executor_fallbacks",
                    baseline=base_fallbacks,
                    candidate=cand_fallbacks,
                    limit=fallback_ceiling,
                    message=(
                        f"executor_fallbacks: {cand_fallbacks:g} above "
                        f"ceiling {fallback_ceiling:g} (the pool path "
                        "silently degraded to serial)"
                    ),
                )
            )

    def floor_check(
        metric: str, path: tuple[str, ...], floor: float | None
    ) -> None:
        if floor is None:
            return
        cand = _lookup(candidate, path)
        if cand is None:
            return
        checked.append(metric)
        if cand < floor:
            violations.append(
                GateViolation(
                    metric=metric,
                    baseline=_lookup(baseline, path),
                    candidate=cand,
                    limit=floor,
                    message=f"{metric}: {cand:g} below floor {floor:g}",
                )
            )

    floor_check(
        "serve_speedup",
        ("facts", "serve", "speedup_cold_over_warm"),
        limits.min_serve_speedup,
    )
    floor_check(
        "serve_coalescing_ratio",
        ("facts", "serve", "coalescing_ratio"),
        limits.min_serve_coalescing,
    )
    floor_check(
        "stream_frames_per_sec",
        ("facts", "stream", "frames_per_sec"),
        limits.min_stream_fps,
    )

    def ceiling_check(
        metric: str, path: tuple[str, ...], ceiling: float | None
    ) -> None:
        if ceiling is None:
            return
        cand = _lookup(candidate, path)
        if cand is None:
            return
        checked.append(metric)
        if cand > ceiling:
            violations.append(
                GateViolation(
                    metric=metric,
                    baseline=_lookup(baseline, path),
                    candidate=cand,
                    limit=ceiling,
                    message=(
                        f"{metric}: {cand:g} above ceiling {ceiling:g}"
                    ),
                )
            )

    ceiling_check(
        "serve_p99_warm_seconds",
        ("facts", "serve", "p99_warm_seconds"),
        limits.max_p99_latency,
    )

    return GateResult(
        violations=tuple(violations), checked=tuple(checked)
    )
