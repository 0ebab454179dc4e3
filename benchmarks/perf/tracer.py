"""In-memory spans around the public functions of each layer.

The benchmark attributes wall time to layers from outside the program:
before the daemon starts (or before the sweep runs) :func:`install`
replaces public functions and methods with thin wrappers that record one
span per call. A span is ``[id, layer, start, end, parent, rid, n, ok]``:

- ``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC
  on Linux, so they compare across processes on one host);
- ``parent`` is the id of the enclosing span on the same thread (a
  per-thread stack), or None for a root;
- ``rid`` is the request id: the trace id the client sent in
  ``X-Repro-Trace-Id``, read from the daemon's current trace context.
  A micro-batched kernel call records the list of every request it
  served;
- ``n`` is the size of the call's work (requests in a group, units in a
  map) where a layer has one, else None;
- ``ok`` is False when the call raised, or returned None where None
  means a miss (disk-cache loads).

Spans stay in memory and are written once, when the process ends its
run. Spans recorded inside pool workers are never written: worker-side
attribution is out of reach from outside the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._context = lambda: None

    def _rid(self, args) -> str | None:
        ctx = self._context()
        return ctx.trace_id if ctx is not None else None

    def wrap(self, layer, fn, rid=None, size=None, miss_is_none=False):
        """A wrapper of ``fn`` recording one nested span per call.

        Args:
            layer: Layer name the span is attributed to.
            fn: The function (plain function or unbound method).
            rid: Callable ``(args) -> request id``; defaults to the trace
                id of the current trace context.
            size: Callable ``(args) -> int`` giving the call's work size.
            miss_is_none: Mark the span not-ok when ``fn`` returns None.
        """
        rid = rid or self._rid
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [
                next(self._ids), layer, 0.0, 0.0,
                stack[-1][0] if stack else None,
                rid(args), size(args) if size else None, True,
            ]
            self.spans.append(span)
            stack.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = False
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if miss_is_none and result is None:
                span[7] = False
            return result

        return wrapper

    def wrap_async(self, layer, fn):
        """A wrapper of coroutine function ``fn``: a root span per call.

        Coroutines interleave on the event-loop thread, so they take no
        part in the per-thread parent stack.
        """

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = [
                next(self._ids), layer, 0.0, 0.0, None,
                self._rid(args), None, True,
            ]
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            except BaseException:
                span[7] = False
                raise
            finally:
                span[3] = time.perf_counter()

        return wrapper

    def record(self, layer: str, start: float, end: float) -> None:
        """Add a root span timed by the caller (set-up phases)."""
        self.spans.append(
            [next(self._ids), layer, start, end, None, None, None, True]
        )

    def dump(self, path: str) -> None:
        """Write every finished span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span for span in self.spans if span[3]], handle)


def _group_rids(args) -> list:
    contexts = args[2] if len(args) > 2 else None
    return [ctx.trace_id for ctx in contexts or () if ctx is not None]


def _length(index):
    def size(args):
        value = args[index] if len(args) > index else None
        return len(value) if hasattr(value, "__len__") else None

    return size


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer the benchmark attributes.

    Layers are named after the modules that own them. Functions that
    other modules imported by name are patched where they are looked up.
    """
    from repro.core.profiler import DegradationProfiler
    from repro.detection.diskcache import DetectorDiskCache
    from repro.detection.simulated import SimulatedDetector
    from repro.estimators.sentinel import BoundSentinel
    from repro.estimators.smokescreen import SmokescreenMeanEstimator
    from repro.estimators.streaming import WindowedMeanEstimator
    from repro.interventions.plan import InterventionPlan
    from repro.query.processor import QueryProcessor
    from repro.stats.prefix_moments import PrefixMoments
    from repro.stats.sampling import ProgressiveSampler
    from repro.system import executor, serve, shm
    from repro.system.observe import tracing

    recorder._context = tracing.current_context
    table = [
        (serve.QueryRequest, "from_payload", "serve.parse", {}),
        (serve.MicroBatcher, "admit", "serve.admit", {}),
        (serve.ServeSession, "warmup", "setup.warmup", {}),
        (serve.ServeSession, "estimate_group", "serve.group",
         {"rid": _group_rids, "size": _length(1)}),
        (serve.ServeSession, "stream_ingest", "serve.stream_validate", {}),
        (serve.ServeSession, "stream_readout", "serve.stream_readout", {}),
        (serve.ServeSession, "profile_request", "serve.profile_request", {}),
        (serve, "estimate_rows", "estimators.estimate_rows", {}),
        (executor.ParallelExecutor, "prewarm", "setup.prewarm", {}),
        (executor.ParallelExecutor, "map", "executor.map",
         {"size": _length(2)}),
        (shm, "publish_dataset", "shm.publish", {}),
        (InterventionPlan, "draw", "interventions.draw", {}),
        (QueryProcessor, "values_for_sample", "query.gather", {}),
        (QueryProcessor, "frame_values", "query.frame_values", {}),
        (BoundSentinel, "extend", "estimators.sentinel_extend", {}),
        (WindowedMeanEstimator, "extend", "estimators.window_extend", {}),
        (DegradationProfiler, "generate_hypercube_seeded",
         "core.hypercube", {}),
        (DegradationProfiler, "sweep_fractions_seeded", "core.sweep", {}),
        (ProgressiveSampler, "__init__", "stats.sampler", {}),
        (ProgressiveSampler, "prefix", "stats.sampler", {}),
        (PrefixMoments, "__init__", "stats.prefix_moments", {}),
        (SmokescreenMeanEstimator, "estimate_batch",
         "estimators.estimate_batch", {}),
        (SimulatedDetector, "run", "detection.run", {}),
        (DetectorDiskCache, "load", "detection.disk_load",
         {"miss_is_none": True}),
        (DetectorDiskCache, "store", "detection.disk_store", {}),
    ]
    for owner, name, layer, options in table:
        fn = owner.__dict__[name]
        if isinstance(fn, classmethod):
            wrapped = classmethod(recorder.wrap(layer, fn.__func__, **options))
        else:
            wrapped = recorder.wrap(layer, fn, **options)
        setattr(owner, name, wrapped)
    serve.MicroBatcher.submit = recorder.wrap_async(
        "serve.submit", serve.MicroBatcher.submit
    )
