"""Append-only, schema-versioned run ledger (JSONL).

Every profile/experiment/chaos CLI invocation records one line describing
what ran and what it cost: config fingerprint, corpus/detector identity,
wall seconds, model invocations, cache hit ratio, bound-width summary,
and a digest of the run's telemetry counters. The ledger is how telemetry
*persists across runs* — AQuA- and BlazeIt-style systems treat pipeline
quality/cost as continuously monitored signals, and ``repro runs check``
(see :mod:`~repro.system.observe.gate`) turns the trajectory into a CI
regression gate.

Concurrency and durability:

- **Append-only JSONL** — one JSON object per line, never rewritten.
- **Atomic append** — each record is a single ``os.write`` to a file
  descriptor opened with ``O_APPEND``, so concurrent runs appending to
  the same ledger interleave whole lines, never partial ones (the record
  line is well under the POSIX pipe-buffer atomicity floor for typical
  runs; larger lines still cannot split another writer's line because
  every writer appends with ``O_APPEND``).
- **Schema-versioned** — every record carries ``"schema"``; readers skip
  lines whose version they do not understand instead of crashing.

Library layers annotate the *active run* through a module-global handle
mirroring :mod:`repro.system.telemetry`'s registry: :func:`annotate` and
:func:`record_event` are cheap no-ops when no run is active, so
instrumented code (the Smokescreen facade, the fleet processor, the
experiment drivers) never checks for a ledger itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.errors import ConfigurationError
from repro.system.telemetry import MetricsSnapshot

#: Current record schema. Bump when a reader of version N could
#: misinterpret a version N+1 record.
SCHEMA_VERSION = 1

#: Conventional ledger filename (the CLI's ``--run-ledger`` default
#: target when pointed at a directory).
DEFAULT_LEDGER_NAME = "runs.jsonl"

#: Cap on per-run recorded events, so a chaos sweep with thousands of
#: fleet executions cannot balloon one ledger line without bound; the
#: record counts what was dropped.
MAX_EVENTS = 50


def new_run_id() -> str:
    """A unique, sortable-ish run identifier (time prefix + random)."""
    return f"{int(time.time()):x}-{uuid.uuid4().hex[:10]}"


def config_fingerprint(config: Mapping) -> str:
    """A stable digest of a run's public configuration.

    Args:
        config: JSON-compatible configuration mapping (CLI args, knobs).

    Returns:
        A 12-hex-character BLAKE2 digest; identical configs fingerprint
        identically across processes and machines.
    """
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.blake2b(canonical.encode(), digest_size=6).hexdigest()


@dataclass
class ActiveRun:
    """The run currently being recorded (one per process at a time).

    Attributes:
        run_id: Unique identifier; also suffixes temporary files so
            concurrent runs never collide.
        command: The CLI subcommand (or caller-chosen label).
        config: Public configuration the fingerprint covers.
        path: Ledger file to append to on finish; None records nothing
            but still provides the run id and annotation sink.
        started_at: Unix timestamp at :func:`begin_run`.
        facts: Accumulated annotations (merged by :func:`annotate`).
        events: Bounded list of structured events from library layers.
        events_dropped: Events discarded once :data:`MAX_EVENTS` was hit.
    """

    run_id: str
    command: str
    config: dict
    path: Path | None
    started_at: float
    _started_perf: float
    facts: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    events_dropped: int = 0


_active: ActiveRun | None = None


def active_run() -> ActiveRun | None:
    """The run currently being recorded in this process, if any."""
    return _active


def begin_run(
    command: str,
    config: Mapping | None = None,
    path: str | Path | None = None,
) -> ActiveRun:
    """Start recording a run (replacing any prior active run).

    Args:
        command: Subcommand or label (``"profile"``, ``"chaos"``).
        config: Public configuration for the fingerprint.
        path: Ledger file to append the finished record to; a directory
            gets :data:`DEFAULT_LEDGER_NAME` appended. None disables
            persistence but keeps the annotation sink and run id.

    Returns:
        The active run handle.
    """
    global _active
    ledger_path: Path | None = None
    if path is not None:
        ledger_path = Path(path)
        if ledger_path.is_dir():
            ledger_path = ledger_path / DEFAULT_LEDGER_NAME
    _active = ActiveRun(
        run_id=new_run_id(),
        command=str(command),
        config=dict(config or {}),
        path=ledger_path,
        started_at=time.time(),
        _started_perf=time.perf_counter(),
    )
    return _active


def annotate(**facts) -> None:
    """Merge facts into the active run (no-op when none is active).

    Later annotations of the same key overwrite earlier ones; dict values
    merge shallowly so layers can each contribute to e.g. ``bounds``.
    """
    run = _active
    if run is None:
        return
    for key, value in facts.items():
        existing = run.facts.get(key)
        if isinstance(existing, dict) and isinstance(value, Mapping):
            existing.update(value)
        else:
            run.facts[key] = value


def record_event(name: str, /, **fields) -> None:
    """Append one structured event to the active run (bounded, no-op
    when no run is active). ``name`` is positional-only so fields may
    use any key, including ``name``."""
    run = _active
    if run is None:
        return
    if len(run.events) >= MAX_EVENTS:
        run.events_dropped += 1
        return
    run.events.append({"event": str(name), **fields})


def _derive_metrics(
    snapshot: MetricsSnapshot | None, facts: Mapping
) -> dict:
    """The record's metrics block from telemetry counters and facts.

    Facts override snapshot-derived values (the Smokescreen facade knows
    its exact ledger total; counters are the fallback for drivers that
    run without one).
    """
    counters = dict(snapshot.counters) if snapshot is not None else {}
    hits = counters.get("cache.hit", 0.0)
    misses = counters.get("cache.miss", 0.0)
    consulted = hits + misses
    invocations = facts.get("model_invocations")
    if invocations is None:
        invocations = counters.get("profiler.frames_invoked")
    return {
        "model_invocations": (
            int(invocations) if invocations is not None else None
        ),
        "cache_hits": int(hits),
        "cache_misses": int(misses),
        "cache_hit_ratio": (
            round(hits / consulted, 6) if consulted > 0 else None
        ),
        "trials_priced": int(counters.get("profiler.trials_priced", 0)),
        "executor_fallbacks": int(counters.get("executor.fallback", 0)),
        "fleet_cameras_lost": int(counters.get("fleet.cameras_lost", 0)),
    }


def build_record(
    run_id: str, ts: float, command: str, facts: Mapping, *,
    config: Mapping | None = None, status: str = "ok", exit_code: int = 0,
    wall_seconds: float = 0.0, metrics: Mapping | None = None,
    events: list | None = None, events_dropped: int = 0,
    counters: Mapping | None = None,
) -> dict:
    """One schema-versioned ledger record; the only place its keys live.

    ``bounds``, ``dataset`` and ``detector`` move from (a copy of)
    ``facts`` to the top level; ``model_invocations`` leaves it, since
    ``metrics`` carries the count.
    """
    facts = dict(facts)
    facts.pop("model_invocations", None)
    config = {} if config is None else config
    return {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "ts": ts,
        "command": command,
        "config": config,
        "fingerprint": config_fingerprint(config),
        "status": str(status),
        "exit_code": int(exit_code),
        "wall_seconds": wall_seconds,
        "metrics": {} if metrics is None else metrics,
        "bounds": facts.pop("bounds", None),
        "dataset": facts.pop("dataset", None),
        "detector": facts.pop("detector", None),
        "facts": facts,
        "events": [] if events is None else events,
        "events_dropped": events_dropped,
        "counters": {} if counters is None else counters,
    }


def finish_run(
    status: str = "ok",
    exit_code: int = 0,
    snapshot: MetricsSnapshot | None = None,
) -> dict | None:
    """Finalize the active run, append its record, and clear the handle.

    Args:
        status: ``"ok"`` or ``"error"``.
        exit_code: The process exit code being returned.
        snapshot: The run's telemetry snapshot, if one was collected;
            supplies the metrics block and the counter digest.

    Returns:
        The record appended (also when ``path`` was None and nothing was
        persisted), or None when no run was active.
    """
    global _active
    run = _active
    if run is None:
        return None
    _active = None
    record = build_record(
        run.run_id, round(run.started_at, 3), run.command, run.facts,
        config=run.config, status=status, exit_code=exit_code,
        wall_seconds=round(time.perf_counter() - run._started_perf, 6),
        metrics=_derive_metrics(snapshot, run.facts),
        events=run.events,
        events_dropped=run.events_dropped,
        counters=(
            dict(sorted(snapshot.counters.items()))
            if snapshot is not None
            else {}
        ),
    )
    if run.path is not None:
        append_record(run.path, record)
    return record


def append_record(path: str | Path, record: Mapping) -> None:
    """Atomically append one record line to a ledger file.

    One ``O_APPEND`` write of the whole line: concurrent appenders
    interleave complete lines, never fragments.

    Args:
        path: Ledger file (created, with parents, if missing).
        record: JSON-compatible record.
    """
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    fd = os.open(
        destination, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def read_runs(path: str | Path) -> list[dict]:
    """All readable records of a ledger, oldest first.

    Lines that fail to parse or carry an unknown schema version are
    skipped (forward compatibility), not fatal.

    Args:
        path: Ledger file.

    Returns:
        Parsed records.

    Raises:
        ConfigurationError: The ledger file does not exist.
    """
    ledger = Path(path)
    if not ledger.exists():
        raise ConfigurationError(f"run ledger not found: {ledger}")
    records = []
    with open(ledger, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("schema") != SCHEMA_VERSION:
                continue
            records.append(record)
    return records


def latest_run(
    path: str | Path,
    command: str | None = None,
    run_id: str | None = None,
) -> dict:
    """The newest matching record of a ledger.

    Args:
        path: Ledger file.
        command: Optional subcommand filter.
        run_id: Optional id (or unique id prefix) filter.

    Returns:
        The newest record satisfying every given filter.

    Raises:
        ConfigurationError: No record matches.
    """
    records = read_runs(path)
    if command is not None:
        records = [r for r in records if r.get("command") == command]
    if run_id is not None:
        records = [
            r for r in records
            if str(r.get("run_id", "")).startswith(run_id)
        ]
    if not records:
        filters = []
        if command is not None:
            filters.append(f"command={command!r}")
        if run_id is not None:
            filters.append(f"run_id~{run_id!r}")
        suffix = f" matching {', '.join(filters)}" if filters else ""
        raise ConfigurationError(f"no ledger runs{suffix} in {path}")
    return records[-1]
