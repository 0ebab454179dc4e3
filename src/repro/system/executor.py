"""Parallel execution substrate with deterministic seed streams.

Profile generation and the paper's 100-trial experiment loops are
embarrassingly parallel: every ``(setting, trial)`` work unit is
independent. This module fans those units out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping results
**bit-identical regardless of worker count** — including ``workers=1`` and
the serial fallback — which preserves the determinism contract the fleet
and fault-injection layers already assert.

The trick is seeding: instead of threading one
:class:`numpy.random.Generator` through a sequential loop (whose state
depends on execution order), every work unit derives its own child stream
from the root seed via ``np.random.SeedSequence(root, spawn_key=(setting,
trial))``. Spawn keys are position-independent, so a unit draws the same
randomness whether it runs first on one worker or last on sixteen.

Cost accounting stays exact across the process boundary: worker functions
run against a fresh :class:`~repro.system.costs.InvocationLedger` and
return its per-resolution counts alongside the result; callers merge them
in unit order. Detector outputs are shared across workers and runs through
the persistent cache of :mod:`repro.detection.diskcache`, which the pool
initializer re-activates inside each worker process.

Three mechanisms kill the parallelism tax the first-generation executor
paid per call:

- a **persistent pool** (:class:`WorkerPool`) survives across ``map``
  calls, sweeps and CLI drivers, reused while its ``(workers, cache_dir,
  cache_limit, telemetry_on)`` key matches and rebuilt transparently on
  config change or a broken pool (shut down via ``atexit`` or
  :func:`shutdown_pool`);
- the **shared-memory data plane** (:mod:`repro.system.shm`) publishes
  each corpus once and ships tiny handles inside :class:`SweepUnit` /
  :class:`PlanUnit` pickles instead of whole ground-truth arrays;
- **cost-modeled dispatch**: every pool lifetime calibrates a
  :class:`~repro.system.costs.DispatchCostModel` (measured spawn and
  per-task overhead), each ``map`` probes its first unit in-process to
  measure per-unit kernel time, and ``workers="auto"`` compares the two
  before committing to the pool — so auto never regresses a single-core
  host and no fixed unit-count threshold is involved.
"""

from __future__ import annotations

import atexit
import contextlib
import logging
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
import enum
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.detection import diskcache
from repro.detection.zoo import DetectorSuite
from repro.errors import ConfigurationError
from repro.interventions.plan import InterventionPlan
from repro.query.query import AggregateQuery
from repro.system import shm, telemetry
from repro.system.costs import DispatchCostModel, InvocationLedger
from repro.system.observe import ledger as run_ledger
from repro.system.observe import tracing
from repro.video.dataset import VideoDataset
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution

if TYPE_CHECKING:
    from repro.core.correction import CorrectionSet

T = TypeVar("T")
U = TypeVar("U")

_LOG = telemetry.get_logger("system.executor")

#: Entropy tuples accepted as root seeds.
RootSeed = int | Sequence[int]


def normalize_root(root: RootSeed) -> tuple[int, ...]:
    """Root entropy as a canonical tuple of Python ints.

    Args:
        root: An int or a sequence of ints.

    Returns:
        The entropy tuple (picklable, hashable, numpy-free).
    """
    if isinstance(root, (int, np.integer)):
        return (int(root),)
    return tuple(int(e) for e in root)


def child_seed(root: RootSeed, *key: int) -> np.random.SeedSequence:
    """The deterministic child seed of one work unit.

    Args:
        root: Root entropy (an int, or a tuple of ints for derived roots).
        *key: The unit's coordinates, conventionally ``(setting_index,
            trial_index)``; any depth works.

    Returns:
        A seed sequence independent of every differently-keyed unit and of
        the order units are spawned in.
    """
    return np.random.SeedSequence(
        normalize_root(root), spawn_key=tuple(int(k) for k in key)
    )


def child_rng(root: RootSeed, *key: int) -> np.random.Generator:
    """A generator over :func:`child_seed`'s stream.

    With no key this is the root stream, bit-identical to
    ``np.random.default_rng(root)`` for an int root.
    """
    return np.random.default_rng(child_seed(root, *key))


#: Table keys sit above every setting, removal and camera index, so a
#: ``(key, i)`` spawn key never equals a ``(setting, trial)`` one.
_KEY_BASE = 1 << 31


@enum.unique
class SeedKey(enum.IntEnum):
    """The named first spawn-key word of every keyed draw below a root.

    An entry point takes an int root. Its one primary draw uses the root
    stream ``child_rng(root)``; every other draw is
    ``child_rng(root, SeedKey.X, ...)``. A key reused by several draws
    shares their randomness on purpose, and its name says which.
    """

    #: ``Smokescreen.estimate``, then the facade's estimate-call counter.
    ESTIMATE_CALL = _KEY_BASE
    #: ``StreamSession.arm``'s Algorithm 3 correction sample.
    STREAM_CORRECTION = _KEY_BASE + 1
    #: ``StreamSession.arm``'s clean sample pricing the profiled bound.
    STREAM_PROFILED = _KEY_BASE + 2
    #: The chaos sweep's per-camera correction sample, then the camera index.
    CAMERA_CORRECTION = _KEY_BASE + 3
    #: Repair or plan trials, one stream per trial shared by every knob
    #: of a figure row (Figures 6, 7 and 9), then the trial.
    TRIAL_PER_KNOB = _KEY_BASE + 4
    #: Figure 9's nested correction samplers, then the sampler index.
    CORRECTION_SAMPLER = _KEY_BASE + 5
    #: Figure 10's frame sample, then the video and the trial; shared by
    #: every size, resolution and access limit.
    TRIAL_SAMPLE = _KEY_BASE + 6
    #: Figure 10's correction sample, then the video and the trial;
    #: shared by every resolution and access limit.
    TRIAL_CORRECTION = _KEY_BASE + 7
    #: A chaos sweep trial's fleet-query root, then the trial; shared by
    #: every outage rate or severity of the sweep.
    FLEET_TRIAL = _KEY_BASE + 8
    #: The chaos sweep's fault-stream root, then the outage rate's index.
    FAULT_RATE = _KEY_BASE + 9


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``): a pool of
# four 32-bit words, the ``hashmix`` multiplier run and the ``mix`` step.
# The helpers take Python ints or uint32 arrays alike.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of one entropy int."""
    value = int(value)
    if value < 0:
        raise ConfigurationError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_keys(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The running hash constant: one ``(xor, multiplier)`` pair per call."""
    while True:
        following = init * mult & _MASK32
        yield init, following
        init = following


def _hashmix(value, keys: Iterator[tuple[int, int]]):
    xor, mult = next(keys)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def child_seed_words(
    root: RootSeed, unit: int, trials: Sequence[int]
) -> np.ndarray:
    """PCG64 seed words of every ``(root, unit, t)`` stream, in one pass.

    Row ``i`` equals ``child_seed(root, unit, trials[i]).generate_state(4,
    np.uint64)``. The root's words (zero-padded to the pool size) and the
    unit's words are shared by every trial, so they hash as Python ints;
    the trial words come last and hash as one uint32 column.

    Args:
        root: Root entropy.
        unit: The unit's index (first spawn-key coordinate).
        trials: Trial indices in ``[0, 2**32)``, any order.

    Returns:
        A C-contiguous ``(len(trials), 4)`` uint64 array.
    """
    trial_words = [int(t) for t in trials]
    if not all(0 <= t <= _MASK32 for t in trial_words):
        raise ConfigurationError(
            f"trial indices must lie in [0, 2**32), got {trial_words}"
        )
    entropy: list = [w for e in normalize_root(root) for w in _uint32_words(e)]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += _uint32_words(unit)
    entropy.append(np.array(trial_words, dtype=np.uint32))

    keys = _hash_keys(_INIT_A, _MULT_A)
    pool = [_hashmix(word, keys) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], keys))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, keys))

    keys = _hash_keys(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], keys) for i in range(2 * _POOL_SIZE)]
    low = np.stack(state[0::2], axis=1).astype(np.uint64)
    high = np.stack(state[1::2], axis=1).astype(np.uint64)
    return low | (high << np.uint64(32))


class _SeedWords(ISeedSequence):
    """Hands PCG64 seed words that :func:`child_seed_words` computed."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != self._words.size or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only")
        return self._words


def child_rngs(
    root: RootSeed, unit: int, trials: Sequence[int]
) -> list[np.random.Generator]:
    """``[child_rng(root, unit, t) for t in trials]``, hashed in one pass.

    Each generator is bit-identical to its :func:`child_rng` twin: numpy
    still seeds PCG64, and only the SeedSequence hash is vectorized.
    """
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for words in child_seed_words(root, unit, trials)
    ]


def trial_chunks(trials: int, chunk_count: int) -> list[range]:
    """Split ``range(trials)`` into at most ``chunk_count`` contiguous runs.

    Chunking reduces inter-process traffic without affecting results:
    every trial keeps its own seed stream, so the chunk boundaries are
    invisible to the output.

    Args:
        trials: Total number of trials.
        chunk_count: Desired number of chunks (clamped to ``trials``).

    Returns:
        Non-empty, contiguous, disjoint ranges covering ``range(trials)``.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    chunk_count = max(1, min(chunk_count, trials))
    bounds = np.linspace(0, trials, chunk_count + 1).astype(int)
    return [
        range(int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


def resolve_worker_count(workers: int | str, unit_count: int) -> int:
    """The structurally available process count for a worker setting.

    ``"auto"`` resolves to 1 on a single-CPU host (a pool can never pay
    for itself there) and otherwise to one worker per CPU capped at the
    unit count. Whether a multi-worker resolution actually *uses* the
    pool is decided per ``map`` call by the calibrated
    :class:`~repro.system.costs.DispatchCostModel` — the old fixed
    ``AUTO_MIN_UNITS`` threshold is gone.

    Args:
        workers: An explicit positive count, or ``"auto"``.
        unit_count: Number of independent work units to execute.

    Returns:
        The resolved worker count (>= 1).

    Raises:
        ConfigurationError: ``workers`` is a non-positive int or an
            unrecognised string.
    """
    if isinstance(workers, str):
        if workers != "auto":
            raise ConfigurationError(
                f"worker count must be a positive int or 'auto', got {workers!r}"
            )
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            return 1
        return max(1, min(cpus, unit_count))
    count = int(workers)
    if count < 1:
        raise ConfigurationError(
            f"worker count must be at least 1, got {workers}"
        )
    return count


@dataclass(frozen=True)
class ExecutorConfig:
    """How work units are executed.

    Attributes:
        workers: Process count; 1 means run serially in-process, and the
            string ``"auto"`` defers to :func:`resolve_worker_count` per
            workload (serial on single-CPU hosts and small sweeps).
        cache_dir: Persistent detector-cache directory activated inside
            workers; None inherits the parent's active cache (if any).
        cache_limit_bytes: LRU byte budget for ``cache_dir``.
    """

    workers: int | str = 1
    cache_dir: str | None = None
    cache_limit_bytes: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ConfigurationError(
                    f"worker count must be a positive int or 'auto', "
                    f"got {self.workers!r}"
                )
            return
        if self.workers < 1:
            raise ConfigurationError(
                f"worker count must be at least 1, got {self.workers}"
            )


def _worker_initializer(
    cache_dir: str | None, cache_limit: int | None, telemetry_on: bool
) -> None:
    """Prepare a worker process: persistent cache and telemetry state."""
    if cache_dir is not None:
        diskcache.activate(cache_dir, cache_limit)
    if telemetry_on:
        telemetry.enable()


# ---------------------------------------------------------------------------
# The module-managed persistent pool.
#
# One ProcessPoolExecutor survives across map calls, sweeps and CLI
# drivers; it is reused whenever the initargs key matches, transparently
# rebuilt on config change or a broken pool, and shut down via atexit or
# an explicit shutdown_pool()/ParallelExecutor.close(). Spawn and
# per-task dispatch costs are measured once per pool lifetime and drive
# the DispatchCostModel decisions in ParallelExecutor.map.
# ---------------------------------------------------------------------------

#: No-op tasks per calibration round (two rounds: spawn, then dispatch).
_CALIBRATION_TASKS = 16


def _calibration_task(index: int) -> int:
    """No-op unit used to time the pool's per-task dispatch overhead."""
    return index


@dataclass(frozen=True)
class _PoolKey:
    """The initargs identity a pool can be reused under."""

    workers: int
    cache_dir: str | None
    cache_limit: int | None
    telemetry_on: bool


@dataclass
class WorkerPool:
    """A live pool plus its measured dispatch economics.

    Attributes:
        pool: The underlying executor.
        key: Reuse identity (worker count + worker initargs).
        costs: Calibrated dispatch cost model for this pool's lifetime.
        generation: 1-based spawn ordinal within this process.
        map_calls: Completed ``map`` dispatches through this pool.
    """

    pool: ProcessPoolExecutor = field(repr=False)
    key: _PoolKey
    costs: DispatchCostModel
    generation: int
    map_calls: int = 0


_pool: WorkerPool | None = None
_pool_generations = 0
_last_costs: DispatchCostModel | None = None
_atexit_installed = False


def _ensure_pool(key: _PoolKey) -> WorkerPool:
    """The persistent pool for ``key`` — reused, else (re)spawned.

    Spawning forces all workers up with one chunked no-op round, then
    times a second round on the warm pool to split total cost into
    ``spawn_seconds`` and ``dispatch_seconds_per_task`` for the
    calibrated :class:`DispatchCostModel` (recorded in telemetry).
    """
    global _pool, _pool_generations, _last_costs, _atexit_installed
    if _pool is not None and _pool.key == key:
        return _pool
    shutdown_pool()
    shm.ensure_tracker_shared()
    started = time.perf_counter()
    pool = ProcessPoolExecutor(
        max_workers=key.workers,
        initializer=_worker_initializer,
        initargs=(key.cache_dir, key.cache_limit, key.telemetry_on),
    )
    list(pool.map(_calibration_task, range(_CALIBRATION_TASKS), chunksize=1))
    warm_started = time.perf_counter()
    list(pool.map(_calibration_task, range(_CALIBRATION_TASKS), chunksize=1))
    dispatch = max(
        (time.perf_counter() - warm_started) / _CALIBRATION_TASKS, 1e-7
    )
    spawn = max(
        warm_started - started - _CALIBRATION_TASKS * dispatch, 0.0
    )
    costs = DispatchCostModel(
        spawn_seconds=spawn, dispatch_seconds_per_task=dispatch
    )
    _pool_generations += 1
    _pool = WorkerPool(
        pool=pool, key=key, costs=costs, generation=_pool_generations
    )
    _last_costs = costs
    telemetry.count("executor.pool.spawns")
    telemetry.gauge("executor.pool.spawn_seconds", spawn)
    telemetry.gauge("executor.pool.dispatch_seconds_per_task", dispatch)
    telemetry.log_event(
        _LOG,
        logging.INFO,
        "executor.pool.spawn",
        workers=key.workers,
        generation=_pool_generations,
        spawn_seconds=round(spawn, 6),
        dispatch_seconds_per_task=round(dispatch, 6),
    )
    if not _atexit_installed:
        atexit.register(shutdown_pool)
        _atexit_installed = True
    return _pool


def shutdown_pool() -> None:
    """Shut down the shared pool (if any) and release shared memory.

    Safe to call repeatedly; the next pool-path ``map`` respawns lazily.
    The last pool's calibration survives as the cost prior for cold
    serial-vs-parallel decisions.
    """
    global _pool
    record = _pool
    _pool = None
    if record is not None:
        try:
            record.pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown is best effort
            pass
    shm.release_all()


def active_pool() -> WorkerPool | None:
    """The live persistent pool, or None (diagnostics/tests)."""
    return _pool


def pool_generation() -> int:
    """How many pools this process has spawned (0 = never)."""
    return _pool_generations


def pool_diagnostics() -> dict | None:
    """Machine-readable state of the live pool for benchmarks, or None."""
    if _pool is None:
        return None
    return {
        "workers": _pool.key.workers,
        "generation": _pool.generation,
        "map_calls": _pool.map_calls,
        "spawn_seconds": round(_pool.costs.spawn_seconds, 6),
        "dispatch_seconds_per_task": round(
            _pool.costs.dispatch_seconds_per_task, 9
        ),
        "published_bytes": shm.published_bytes(),
    }


@dataclass(frozen=True)
class _UnitOutcome:
    """What one work unit produced inside a worker, shipped back whole.

    Wrapping the call keeps two channels out of band of the result type:

    - ``error``: an exception ``fn`` raised *in the worker*. Returning it
      (instead of letting it propagate through ``pool.map``) lets the
      parent distinguish a genuine work-unit failure — which must re-raise
      as is — from pool infrastructure failures, which alone may fall back
      to the serial path.
    - ``snapshot``: the unit's telemetry, collected into a private
      registry and merged by the parent like worker ledger counts.
    """

    result: object = None
    error: BaseException | None = None
    snapshot: telemetry.MetricsSnapshot | None = None


def _call_unit(
    fn: Callable[[T], U],
    item: T,
    trace: tracing.TraceContext | None = None,
) -> _UnitOutcome:
    """Run one unit in a worker, capturing its error and telemetry.

    When a :class:`~repro.system.observe.tracing.TraceContext` rides
    along (the parent's ``executor.map`` span), the unit runs inside an
    ``executor.unit`` span continuing that trace and recorded with this
    worker's pid — its absolute start is anchored to this process's
    ``perf_counter`` epoch, so the folded snapshot stitches into the
    parent's cross-process timeline.
    """
    local = telemetry.MetricsRegistry() if telemetry.enabled() else None
    previous = telemetry.install(local) if local is not None else None
    try:
        if local is not None and trace is not None:
            unit_span = telemetry.traced_span("executor.unit", trace.child())
        else:
            unit_span = contextlib.nullcontext()
        try:
            with unit_span:
                result = fn(item)
        except Exception as error:
            return _UnitOutcome(
                error=error,
                snapshot=local.snapshot() if local is not None else None,
            )
        return _UnitOutcome(
            result=result,
            snapshot=local.snapshot() if local is not None else None,
        )
    finally:
        if previous is not None:
            telemetry.install(previous)


class ParallelExecutor:
    """Ordered map over independent work units, process-parallel when asked.

    The serial path and the pool path produce identical results for
    seed-stream work units; infrastructure failures (pool creation denied,
    unpicklable payloads, broken pool) degrade gracefully to the serial
    path rather than failing the run.
    """

    def __init__(self, config: ExecutorConfig | None = None) -> None:
        """Create an executor.

        Args:
            config: Execution configuration; defaults to serial.
        """
        self._config = config or ExecutorConfig()

    @property
    def config(self) -> ExecutorConfig:
        """The execution configuration."""
        return self._config

    def _cache_initargs(self) -> tuple[str | None, int | None]:
        if self._config.cache_dir is not None:
            return (self._config.cache_dir, self._config.cache_limit_bytes)
        active = diskcache.active_cache()
        if active is not None:
            return (str(active.root), active.byte_limit)
        return (None, None)

    def worker_count(self, unit_count: int) -> int:
        """The effective process count for ``unit_count`` work units.

        Resolves ``"auto"`` against the host and workload (see
        :func:`resolve_worker_count`); explicit counts pass through capped
        at the unit count.

        Args:
            unit_count: Number of independent work units.

        Returns:
            The resolved worker count (>= 1).
        """
        resolved = resolve_worker_count(self._config.workers, unit_count)
        return max(1, min(resolved, unit_count))

    def _pool_key(self, workers: int) -> _PoolKey:
        cache_dir, cache_limit = self._cache_initargs()
        return _PoolKey(
            workers=workers,
            cache_dir=cache_dir,
            cache_limit=cache_limit,
            telemetry_on=telemetry.enabled(),
        )

    def close(self) -> None:
        """Shut down the shared persistent pool (:func:`shutdown_pool`).

        The next pool-path ``map`` — from any executor — respawns it.
        """
        shutdown_pool()

    def prewarm(self, unit_count: int = 1_000_000) -> bool:
        """Spawn the persistent pool now, if this config would use one.

        Forking worker processes is only safe while the host process is
        quiet. A daemon that spawns the pool lazily on its first parallel
        request — with an event loop mid-connection and helper threads
        live — can deadlock the forked children on locks copied mid-
        acquisition (the classic fork-with-threads hazard). Long-lived
        hosts call this once during startup, before serving traffic, so
        later ``map`` calls find the pool already warm. Requests whose
        resolved worker count differs from the prewarmed key still
        respawn lazily (no worse than without prewarming).

        Args:
            unit_count: Hypothetical workload size used to resolve the
                worker count; the default is large so explicit counts
                resolve fully.

        Returns:
            True when a pool is up for this config (spawned here or
            already warm); False for serial configs.
        """
        workers = self.worker_count(unit_count)
        if workers <= 1:
            return False
        _ensure_pool(self._pool_key(workers))
        return True

    def map(self, fn: Callable[[T], U], payloads: Iterable[T]) -> list[U]:
        """Apply ``fn`` to every payload, preserving payload order.

        The first unit always runs in-process: spawn-keyed seed streams
        make results position-independent, so the probe is invisible to
        output while measuring the per-unit kernel time the calibrated
        :class:`DispatchCostModel` weighs against dispatch overhead.
        Under ``workers="auto"`` the remaining units go to the persistent
        pool only when the model predicts a win; explicit multi-worker
        configs always dispatch.

        Exceptions ``fn`` raises propagate unchanged from the pool path —
        without a serial re-run — exactly as they would serially. Only
        *infrastructure* failures (pool creation denied, unpicklable
        payloads, a pool broken twice) degrade to the serial path; seed
        streams make that rerun bit-identical.

        Args:
            fn: A picklable module-level function.
            payloads: Picklable work units.

        Returns:
            Results in payload order.
        """
        items = list(payloads)
        if not items:
            return []
        workers = self.worker_count(len(items))
        if workers <= 1:
            if self._config.workers == "auto":
                reason = "single_unit" if len(items) <= 1 else "single_cpu"
            else:
                reason = "explicit"
            self._note_dispatch(
                mode="serial",
                units=len(items),
                workers=1,
                chunk_size=1,
                reason=reason,
            )
            return [fn(item) for item in items]
        probe_started = time.perf_counter()
        first = fn(items[0])
        unit_seconds = time.perf_counter() - probe_started
        rest = items[1:]
        key = self._pool_key(workers)
        reusable = _pool is not None and _pool.key == key
        costs = (_pool.costs if reusable else _last_costs) or DispatchCostModel()
        if self._config.workers == "auto" and not costs.parallel_pays(
            len(rest), unit_seconds, workers, pool_warm=reusable
        ):
            self._note_dispatch(
                mode="serial_costed",
                units=len(items),
                workers=1,
                chunk_size=1,
                unit_seconds=unit_seconds,
                costs=costs,
                pool_reused=reusable,
            )
            return [first] + [fn(item) for item in rest]
        return [first] + self._pool_map(
            fn, rest, workers, key, unit_seconds, len(items)
        )

    def _pool_map(
        self,
        fn: Callable[[T], U],
        rest: list[T],
        workers: int,
        key: _PoolKey,
        unit_seconds: float,
        total_units: int,
    ) -> list[U]:
        """Dispatch the post-probe units through the persistent pool."""
        rebuilt = False
        while True:
            try:
                record = _ensure_pool(key)
            except OSError as error:
                self._fallback(error, total_units)
                return [fn(item) for item in rest]
            self._publish_payloads(rest)
            chunk = record.costs.chunk_size(len(rest), unit_seconds, workers)
            try:
                with tracing.span(
                    "executor.map", units=total_units, workers=workers
                ) as map_ctx:
                    outcomes = list(
                        record.pool.map(
                            partial(_call_unit, fn, trace=map_ctx),
                            rest,
                            chunksize=chunk,
                        )
                    )
            except BrokenProcessPool as error:
                # A worker died mid-flight (crash, OOM kill). Rebuild the
                # pool once and retry; a second break falls back to the
                # serial path. Either way the broken pool and its shared
                # segments are torn down immediately.
                shutdown_pool()
                if not rebuilt:
                    rebuilt = True
                    telemetry.count("executor.pool.rebuilds")
                    telemetry.log_event(
                        _LOG,
                        logging.WARNING,
                        "executor.pool.rebuild",
                        reason=type(error).__name__,
                        error=str(error),
                    )
                    continue
                self._fallback(error, total_units)
                return [fn(item) for item in rest]
            except (OSError, pickle.PicklingError,
                    AttributeError, TypeError) as error:
                # _call_unit confines fn's own exceptions to outcome
                # records, so anything else escaping pool.map is
                # infrastructure: a restricted environment (no fork), or
                # payload/callable pickling (unpicklable local functions
                # surface as AttributeError/TypeError from pickle itself).
                self._fallback(error, total_units)
                return [fn(item) for item in rest]
            record.map_calls += 1
            # Only a committed, completed pool run reports itself as
            # parallel; fallback runs are tagged serial_fallback instead
            # of masquerading through pre-emitted gauges.
            telemetry.gauge("executor.workers", workers)
            telemetry.gauge("executor.chunk_size", chunk)
            telemetry.count("executor.units", total_units)
            self._note_dispatch(
                mode="parallel",
                units=total_units,
                workers=workers,
                chunk_size=chunk,
                unit_seconds=unit_seconds,
                costs=record.costs,
                pool_reused=record.map_calls > 1,
            )
            return self._unpack_outcomes(outcomes)

    @staticmethod
    def _publish_payloads(items: Sequence) -> None:
        """Publish every dataset reachable from the payloads, so units
        pickle down to shared-memory handles instead of whole corpora."""
        if not shm.enabled():
            return
        for item in items:
            dataset = getattr(item, "dataset", None)
            if dataset is None:
                dataset = getattr(getattr(item, "query", None), "dataset", None)
            if isinstance(dataset, VideoDataset):
                shm.publish_dataset(dataset)

    def _fallback(self, error: BaseException, total_units: int) -> None:
        telemetry.count("executor.fallback")
        telemetry.gauge("executor.workers", 1)
        telemetry.log_event(
            _LOG,
            logging.WARNING,
            "executor.fallback",
            reason=type(error).__name__,
            error=str(error),
        )
        self._note_dispatch(
            mode="serial_fallback",
            units=total_units,
            workers=1,
            chunk_size=1,
            reason=type(error).__name__,
        )

    def _note_dispatch(
        self,
        *,
        mode: str,
        units: int,
        workers: int,
        chunk_size: int,
        unit_seconds: float | None = None,
        costs: DispatchCostModel | None = None,
        pool_reused: bool = False,
        reason: str | None = None,
    ) -> None:
        """Record the dispatch decision in telemetry and the run ledger."""
        facts: dict = {
            "mode": mode,
            "units": units,
            "workers": workers,
            "chunk_size": chunk_size,
            "pool_reused": bool(pool_reused),
            "pool_generation": _pool_generations,
            "shm_enabled": shm.enabled(),
        }
        if unit_seconds is not None:
            facts["unit_seconds"] = round(unit_seconds, 6)
        if costs is not None:
            facts["spawn_seconds"] = round(costs.spawn_seconds, 6)
            facts["dispatch_seconds_per_task"] = round(
                costs.dispatch_seconds_per_task, 9
            )
        if reason is not None:
            facts["reason"] = reason
        telemetry.log_event(_LOG, logging.DEBUG, "executor.dispatch", **facts)
        run_ledger.record_event("executor.dispatch", **facts)
        run_ledger.annotate(executor=facts)

    @staticmethod
    def _unpack_outcomes(outcomes: list[_UnitOutcome]) -> list:
        """Merge worker telemetry, then surface results or the first error."""
        active = telemetry.registry()
        failure: BaseException | None = None
        results = []
        for outcome in outcomes:
            active.merge_snapshot(outcome.snapshot)
            tracing.ingest_snapshot_spans(outcome.snapshot)
            if failure is None and outcome.error is not None:
                failure = outcome.error
            results.append(outcome.result)
        if failure is not None:
            raise failure
        return results


# ---------------------------------------------------------------------------
# Profiler work units.
#
# These are module-level (picklable) adapters that rebuild a profiler in the
# worker, run one unit against a fresh ledger, and return the result plus
# the ledger's counts so the parent can merge cost accounting exactly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepUnit:
    """One nested fraction sweep: a ``(resolution, removal)`` setting.

    A cube builds one unit per setting and keys the trials' draw by the
    removal alone, so the units of one removal share their frame draw
    (:func:`repro.core.profiler.trial_orderings`).

    Attributes:
        query: The query to profile.
        fractions: Ascending fraction candidates.
        resolution: Fixed resolution knob (None = native).
        removal: Fixed restricted classes.
        correction: Optional correction set.
        trials: Trials averaged inside the unit.
        root: Root entropy of the seed stream.
        unit_index: The draw key (first spawn-key coordinate): the
            removal index in a cube, 0 in a sampling profile.
        trial_indices: Trial coordinates (second spawn-key coordinate);
            defaults to ``range(trials)``.
        early_stop_tolerance: Early-stop threshold; None disables.
        suite: Restricted-class detectors for removal plans.
    """

    query: AggregateQuery
    fractions: tuple[float, ...]
    resolution: Resolution | None
    removal: tuple[ObjectClass, ...]
    correction: CorrectionSet | None
    trials: int
    root: tuple[int, ...]
    unit_index: int
    trial_indices: tuple[int, ...] | None = None
    early_stop_tolerance: float | None = None
    suite: DetectorSuite | None = None


def run_sweep_unit(unit: SweepUnit) -> tuple[object, dict[int, int]]:
    """Execute one sweep unit (in-process or inside a worker).

    Args:
        unit: The sweep unit.

    Returns:
        The unit's :class:`~repro.core.profiler.SweptGrid` and its
        per-resolution invocation counts.
    """
    from repro.core.profiler import DegradationProfiler
    from repro.query.processor import QueryProcessor

    ledger = InvocationLedger()
    profiler = DegradationProfiler(
        QueryProcessor(unit.suite), trials=unit.trials, ledger=ledger
    )
    trial_indices = (
        unit.trial_indices
        if unit.trial_indices is not None
        else tuple(range(unit.trials))
    )
    swept = profiler.sweep_fractions_seeded(
        unit.query,
        unit.fractions,
        unit.resolution,
        unit.removal,
        unit.correction,
        unit.root,
        unit.unit_index,
        trial_indices,
        unit.early_stop_tolerance,
    )
    return swept, ledger.by_resolution()


@dataclass(frozen=True)
class PlanUnit:
    """One priced degradation setting (trials averaged inside the unit).

    Attributes:
        query: The query to profile.
        plan: The degradation setting.
        correction: Optional correction set.
        trials: Trials averaged inside the unit.
        root: Root entropy of the seed stream.
        unit_index: The setting's index (first spawn-key coordinate).
        suite: Restricted-class detectors for removal plans.
    """

    query: AggregateQuery
    plan: InterventionPlan
    correction: CorrectionSet | None
    trials: int
    root: tuple[int, ...]
    unit_index: int
    suite: DetectorSuite | None = None


def run_plan_unit(unit: PlanUnit) -> tuple[object, dict[int, int]]:
    """Execute one plan-pricing unit.

    Args:
        unit: The plan unit.

    Returns:
        The setting's :class:`PointEstimate` and the unit's per-resolution
        invocation counts.
    """
    from repro.core.profiler import DegradationProfiler
    from repro.query.processor import QueryProcessor

    ledger = InvocationLedger()
    profiler = DegradationProfiler(
        QueryProcessor(unit.suite), trials=unit.trials, ledger=ledger
    )
    point = profiler.estimate_plan_seeded(
        unit.query, unit.plan, unit.root, unit.unit_index, unit.correction
    )
    return point, ledger.by_resolution()


def merge_ledger_counts(
    ledger: InvocationLedger | None, counts: dict[int, int]
) -> None:
    """Fold a worker ledger's per-resolution counts into the parent ledger.

    Args:
        ledger: The parent ledger (None = accounting disabled).
        counts: Per-resolution counts returned by a work unit.
    """
    if ledger is None:
        return
    for side, new_frames in sorted(counts.items()):
        ledger.record(side, new_frames)
