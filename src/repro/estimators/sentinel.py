"""The online bound-violation sentinel.

The Smokescreen profile promises that, at a chosen degradation setting,
the realized relative error stays within the profiled bound with
probability ``1 - delta``. That promise is conditional on the world the
profile was measured in: an adversarial attack or a physical failure
(:mod:`repro.interventions.adversarial`, :mod:`repro.interventions.physical`)
silently shifts detector outputs, and the profiled bound keeps being
reported while no longer holding.

:class:`BoundSentinel` watches for exactly that. It consumes the streaming
Algorithm 1 path (:class:`~repro.estimators.streaming.StreamingMeanEstimator`)
alongside production traffic and compares the stream's answer against a
trusted *reference* — the profiling-time answer for the same query. The
observable drift between the two decomposes as

    |Y_stream - Y_ref| / |Y_ref|  <=  realized profile error
                                      + stream bound + reference bound,

so when the measured drift exceeds ``profiled_bound + stream_bound +
reference_bound`` (the *allowance*), the profiled bound is provably being
violated — no appeal to distributional assumptions, just the triangle
inequality over quantities the sentinel can actually see. Requiring
``patience`` consecutive breaches after a ``min_count`` warm-up keeps
single-read flukes (each read's bound holds only per-read, see the
streaming module) from tripping the alarm.

On a trip the sentinel emits telemetry (``sentinel.violations``), writes a
run-ledger event, and — when given a correction set estimate — triggers
Algorithm 3 automatically: :meth:`ProfileRepair.corrected_mean_bound`
transfers the correction set's valid bound onto the drifted answer, so the
system keeps returning a *trustworthy* (if wider) bound while degraded
(``sentinel.repairs_triggered``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import EstimationError
from repro.estimators.base import Estimate
from repro.estimators.repair import ProfileRepair, RepairedEstimate
from repro.estimators.streaming import StreamingMeanEstimator
from repro.system import telemetry
from repro.system.observe import ledger as run_ledger


@dataclass(frozen=True)
class SentinelCheck:
    """One drift-vs-allowance comparison on the live stream.

    Attributes:
        count: Stream length when the check ran.
        drift: Observed relative drift ``|Y_stream - Y_ref| / |Y_ref|``.
        allowance: Largest drift consistent with the profiled bound still
            holding (profiled bound + stream bound + reference bound).
        breached: Whether the drift exceeded the allowance.
        estimate: The stream estimate the check priced (a readout taken
            before the next fold can reuse it).
    """

    count: int
    drift: float
    allowance: float
    breached: bool
    estimate: Estimate


@dataclass(frozen=True)
class SentinelVerdict:
    """The sentinel's summary after (or during) a monitoring run.

    Attributes:
        label: The monitored stream's label (e.g. a camera name).
        tripped: Whether a violation was confirmed (``patience``
            consecutive breaches).
        checks: Number of drift checks performed.
        breaches: Number of checks whose drift exceeded the allowance.
        first_breach_count: Stream length at the first breach of the
            confirmed violation, or None if never tripped.
        drift: Drift at the most recent check (None before warm-up).
        allowance: Allowance at the most recent check (None before
            warm-up).
        repair: The Algorithm 3 repaired estimate issued on the trip, or
            None when the sentinel had no correction set (or never
            tripped).
    """

    label: str
    tripped: bool
    checks: int
    breaches: int
    first_breach_count: int | None
    drift: float | None
    allowance: float | None
    repair: RepairedEstimate | None

    def as_payload(self) -> dict:
        """A JSON-friendly summary for ledger events and reports."""
        return {
            "label": self.label,
            "tripped": self.tripped,
            "checks": self.checks,
            "breaches": self.breaches,
            "first_breach_count": self.first_breach_count,
            "drift": self.drift,
            "allowance": self.allowance,
            "repaired_bound": (
                self.repair.error_bound if self.repair is not None else None
            ),
        }


class BoundSentinel:
    """Online monitor comparing realized drift against the profiled bound.

    Feed it the same degraded per-frame values the production estimator
    consumes (:meth:`observe` / :meth:`extend`); it maintains an O(1)
    streaming estimate and checks the drift-vs-allowance inequality after
    every arrival (or once per batch).
    """

    def __init__(
        self,
        reference: Estimate,
        profiled_bound: float,
        universe_size: int,
        delta: float = 0.05,
        min_count: int = 30,
        patience: int = 2,
        correction: Estimate | None = None,
        label: str = "stream",
        stream: StreamingMeanEstimator | None = None,
    ) -> None:
        """Arm the sentinel.

        Args:
            reference: Trusted answer for the monitored query — typically
                the profiling-time exact or tightly-bounded estimate on
                clean video. Its ``error_bound`` joins the allowance.
            profiled_bound: The error bound the profile promised at the
                deployed degradation setting.
            universe_size: Eligible-universe size of the monitored stream.
            delta: Per-read failure probability for the stream bound.
            min_count: Warm-up floor before any check runs (mirrors
                :meth:`StreamingMeanEstimator.estimate_when_below`).
            patience: Consecutive breaches required to confirm a
                violation; absorbs per-read bound failures.
            correction: Optional correction-set estimate (random
                interventions only). When present, a confirmed violation
                automatically triggers Algorithm 3 repair.
            label: Name of the monitored stream, e.g. the camera name.
            stream: Optional pre-built stream estimator — any fresh object
                with ``update``/``extend``/``count``/``estimate`` (e.g.
                :class:`~repro.estimators.streaming.WindowedMeanEstimator`
                or ``DecayedMeanEstimator`` for endless feeds, where drift
                should dominate the answer within a window instead of
                being diluted by the whole clean history). Defaults to the
                cumulative :class:`StreamingMeanEstimator` built from
                ``universe_size``/``delta``.
        """
        if profiled_bound < 0.0 or not math.isfinite(profiled_bound):
            raise EstimationError(
                f"profiled bound must be finite and non-negative, got "
                f"{profiled_bound}"
            )
        if min_count < 1:
            raise EstimationError(f"min count must be positive, got {min_count}")
        if patience < 1:
            raise EstimationError(f"patience must be positive, got {patience}")
        if stream is not None and stream.count:
            raise EstimationError(
                f"stream estimator must be fresh, has already observed "
                f"{stream.count} values"
            )
        self._reference = reference
        self._profiled_bound = profiled_bound
        self._stream = (
            stream if stream is not None
            else StreamingMeanEstimator(universe_size, delta)
        )
        self._min_count = min_count
        self._patience = patience
        self._correction = correction
        self._label = label
        self._checks = 0
        self._breaches = 0
        self._streak = 0
        self._tripped = False
        self._first_breach_count: int | None = None
        self._last_check: SentinelCheck | None = None
        self._repair: RepairedEstimate | None = None

    @property
    def tripped(self) -> bool:
        """Whether a violation has been confirmed."""
        return self._tripped

    @property
    def repair(self) -> RepairedEstimate | None:
        """The automatic Algorithm 3 repair, when one was triggered."""
        return self._repair

    def observe(self, value: float) -> SentinelCheck | None:
        """Fold one arriving value and run a drift check.

        Args:
            value: The frame's aggregate input value.

        Returns:
            The check result, or None during warm-up.
        """
        self._stream.update(value)
        return self.check()

    def extend(self, values) -> SentinelCheck | None:
        """Fold a batch of arriving values, then run one drift check.

        One check per batch keeps the per-read semantics of the streaming
        bound honest: the sentinel's breach count grows with *decisions*,
        not with frames.

        Args:
            values: Sequence or array of finite values.

        Returns:
            The check result, or None during warm-up (or an empty batch).
        """
        self._stream.extend(values)
        if self._stream.count == 0:
            return None
        return self.check()

    def check(self) -> SentinelCheck | None:
        """Compare current drift against the allowance.

        Returns:
            The check result, or None while below the warm-up floor.
        """
        if self._stream.count < self._min_count:
            return None
        estimate = self._stream.estimate()
        drift = self._drift(estimate.value)
        allowance = (
            self._profiled_bound
            + estimate.error_bound
            + self._reference.error_bound
        )
        breached = drift > allowance
        check = SentinelCheck(
            count=self._stream.count,
            drift=drift,
            allowance=allowance,
            breached=breached,
            estimate=estimate,
        )
        self._checks += 1
        self._last_check = check
        if breached:
            self._breaches += 1
            self._streak += 1
            if self._first_breach_count is None:
                self._first_breach_count = check.count
            if self._streak >= self._patience and not self._tripped:
                self._trip(estimate, check)
        else:
            self._streak = 0
            if not self._tripped:
                self._first_breach_count = None
        return check

    def _drift(self, stream_value: float) -> float:
        reference = self._reference.value
        if reference == 0.0:
            return 0.0 if stream_value == 0.0 else math.inf
        return abs(stream_value - reference) / abs(reference)

    def _trip(self, estimate: Estimate, check: SentinelCheck) -> None:
        self._tripped = True
        telemetry.count("sentinel.violations")
        run_ledger.record_event(
            "sentinel.violation",
            sentinel=self._label,
            count=check.count,
            drift=check.drift,
            allowance=check.allowance,
            profiled_bound=self._profiled_bound,
        )
        if self._correction is None:
            return
        repaired_bound = ProfileRepair.corrected_mean_bound(
            estimate.value, self._correction
        )
        self._repair = RepairedEstimate(
            value=estimate.value,
            error_bound=repaired_bound,
            degraded=estimate,
            correction=self._correction,
        )
        telemetry.count("sentinel.repairs_triggered")
        run_ledger.record_event(
            "sentinel.repair",
            sentinel=self._label,
            repaired_bound=repaired_bound,
            uncorrected_bound=estimate.error_bound,
        )

    def verdict(self) -> SentinelVerdict:
        """The current summary of the monitoring run."""
        last = self._last_check
        return SentinelVerdict(
            label=self._label,
            tripped=self._tripped,
            checks=self._checks,
            breaches=self._breaches,
            first_breach_count=self._first_breach_count if self._tripped else None,
            drift=last.drift if last is not None else None,
            allowance=last.allowance if last is not None else None,
            repair=self._repair,
        )
