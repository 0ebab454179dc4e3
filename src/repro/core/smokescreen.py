"""The Smokescreen system facade.

Ties the prototype's three components together (paper §4): the video frame
processor (detectors + query processor), the analytical result and error
bound estimator, and the correction set / intervention candidate design —
behind one object mirroring the administration procedure of §3.1:
``profile`` (profile generation) then ``choose`` (choosing a tradeoff) then
``estimate`` (running the query under the chosen degradation).
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import CandidateGrid, default_candidates
from repro.core.correction import CorrectionSet, determine_correction_set
from repro.core.profile import DegradationHypercube, Profile
from repro.core.profiler import DegradationProfiler
from repro.core.tradeoff import PublicPreferences, TradeoffChoice, choose_tradeoff
from repro.detection.base import Detector
from repro.detection.zoo import DetectorSuite, default_suite
from repro.errors import ConfigurationError
from repro.estimators.base import Estimate
from repro.estimators.dispatch import estimate_query
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate, FramePredicate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.system.costs import InvocationLedger
from repro.system.observe import ledger as run_ledger
from repro.system.executor import (
    ExecutorConfig,
    ParallelExecutor,
    SeedKey,
    child_rng,
)
from repro.video.dataset import VideoDataset


class Smokescreen:
    """The prototype system: profiling, tradeoff choice, and estimation."""

    def __init__(
        self,
        dataset: VideoDataset,
        model: Detector,
        suite: DetectorSuite | None = None,
        delta: float = 0.05,
        trials: int = 1,
        seed: int = 0,
        workers: int | str = 1,
    ) -> None:
        """Deploy Smokescreen on a corpus with a query UDF.

        Args:
            dataset: The video corpus.
            model: The query's vision model (e.g. a car detector).
            suite: Restricted-class detectors; defaults to the paper's
                YOLOv4-person + MTCNN-face suite.
            delta: Bound failure probability (paper: 0.05).
            trials: Sampling trials averaged per profiled setting.
            seed: Root seed of every draw the system makes: the
                correction set takes the root stream, profile call ``k``
                the sweep keys under ``(seed, k)``, and estimate call
                ``k`` the key ``(SeedKey.ESTIMATE_CALL, k)``.
            workers: Worker processes for profile generation; the profile
                is bit-identical for any value. ``"auto"`` defers to the
                host CPU count and workload size.
        """
        self._dataset = dataset
        self._model = model
        self._suite = suite or default_suite()
        self._delta = delta
        self._processor = QueryProcessor(self._suite)
        self._ledger = InvocationLedger()
        self._profiler = DegradationProfiler(
            self._processor, trials=trials, ledger=self._ledger
        )
        self._seed = seed
        self._executor = ParallelExecutor(ExecutorConfig(workers=workers))
        self._profile_calls = 0
        self._estimate_calls = 0

    @property
    def processor(self) -> QueryProcessor:
        """The underlying query processor."""
        return self._processor

    @property
    def ledger(self) -> InvocationLedger:
        """Model-invocation accounting accumulated by this system."""
        return self._ledger

    @property
    def profiler(self) -> DegradationProfiler:
        """The underlying profiler (for advanced sweeps)."""
        return self._profiler

    def query(
        self,
        aggregate: Aggregate,
        predicate: FramePredicate | None = None,
        quantile_r: float | None = None,
    ) -> AggregateQuery:
        """Build a query over this deployment's corpus and model.

        Args:
            aggregate: The aggregate function.
            predicate: COUNT predicate (optional).
            quantile_r: MAX/MIN quantile level (optional).

        Returns:
            The query object.
        """
        return AggregateQuery(
            dataset=self._dataset,
            model=self._model,
            aggregate=aggregate,
            predicate=predicate,
            quantile_r=quantile_r,
            delta=self._delta,
        )

    def build_correction_set(
        self,
        query: AggregateQuery,
        growth_step: float = 0.01,
        tolerance: float = 0.02,
        size_limit: int | None = None,
    ) -> CorrectionSet:
        """Size and draw a correction set for a query (§3.3.1).

        The sample is the system seed's root stream, so every call draws
        the same nested frames.

        Args:
            query: The query whose bounds the set will repair.
            growth_step: Growth step as a corpus fraction (paper: 1%).
            tolerance: Elbow threshold on the bound change (paper: 2%).
            size_limit: Administrator-imposed maximum size.

        Returns:
            The correction set.
        """
        if query.dataset is not self._dataset:
            raise ConfigurationError("query targets a different corpus")
        return determine_correction_set(
            self._processor,
            query,
            self._seed,
            growth_step=growth_step,
            tolerance=tolerance,
            size_limit=size_limit,
        )

    def candidates(self, **kwargs) -> CandidateGrid:
        """The default intervention-candidate grid for this corpus (§3.3.2).

        Keyword arguments are forwarded to
        :func:`repro.core.candidates.default_candidates`.
        """
        return default_candidates(self._dataset, **kwargs)

    def profile(
        self,
        query: AggregateQuery,
        candidates: CandidateGrid,
        correction: CorrectionSet | None = None,
        early_stop_tolerance: float | None = None,
    ) -> DegradationHypercube:
        """Profile generation: price the candidate grid (§3.1).

        Args:
            query: The query.
            candidates: Intervention candidates to price.
            correction: Optional correction set (required for trustworthy
                bounds under the non-random candidates).
            early_stop_tolerance: Early-stop threshold for fraction sweeps.

        Returns:
            The degradation hypercube; browse it via ``initial_slices()``.
        """
        # Root the seed stream in (system seed, call counter): repeated
        # profile() calls draw fresh trials, yet each call's result is
        # independent of the worker count and of other RNG consumers.
        root = (self._seed, self._profile_calls)
        self._profile_calls += 1
        cube = self._profiler.generate_hypercube_seeded(
            query,
            candidates,
            root,
            correction=correction,
            early_stop_tolerance=early_stop_tolerance,
            executor=self._executor,
        )
        finite = cube.bounds[np.isfinite(cube.bounds)]
        run_ledger.annotate(
            model_invocations=self._ledger.total,
            dataset=self._dataset.name,
            detector=self._model.name,
            bounds={
                "max_width": (
                    round(float(finite.max()), 6) if finite.size else None
                ),
                "mean_width": (
                    round(float(finite.mean()), 6) if finite.size else None
                ),
                "cells": int(cube.bounds.size),
                "priced_cells": int(finite.size),
            },
        )
        return cube

    def choose(
        self, profile: Profile, preferences: PublicPreferences
    ) -> TradeoffChoice:
        """Choosing a tradeoff: the most degraded admissible setting.

        Args:
            profile: A profile (hypercube slice).
            preferences: The administrator's public preferences.

        Returns:
            The chosen tradeoff.
        """
        return choose_tradeoff(profile, preferences)

    def estimate(
        self,
        query: AggregateQuery,
        plan: InterventionPlan,
        method: str = "smokescreen",
    ) -> Estimate:
        """Run the query under a chosen degradation and estimate the answer.

        Args:
            query: The query.
            plan: The chosen degradation setting.
            method: Estimator name (see :mod:`repro.estimators.dispatch`).

        Returns:
            The approximate answer with its error bound.
        """
        rng = child_rng(self._seed, SeedKey.ESTIMATE_CALL, self._estimate_calls)
        self._estimate_calls += 1
        execution = self._processor.execute(query, plan, rng)
        return estimate_query(query, execution, method)
