"""Telemetry export and persistence: the layer above the in-memory registry.

:mod:`repro.system.telemetry` collects metrics and spans; this package
makes them *outlive the process* and plug into standard tooling:

- :mod:`~repro.system.observe.trace` — the one Chrome trace-event
  exporter: span records (a ``--trace`` snapshot or a daemon trace) as
  an epoch-aligned, per-pid timeline loadable in Perfetto or
  ``chrome://tracing``.
- :mod:`~repro.system.observe.prometheus` — render counters, gauges and
  histograms (with bucket lines) in the Prometheus text exposition format.
- :mod:`~repro.system.observe.ledger` — an append-only, schema-versioned
  JSONL run ledger every CLI invocation records into, plus the
  active-run annotation API library layers write through.
- :mod:`~repro.system.observe.gate` — compare two ledger records under
  configurable thresholds; the ``repro runs check`` CI gate.
- :mod:`~repro.system.observe.tracing` — distributed trace-context
  propagation (serve → batcher → pool workers), traced spans recorded
  as :class:`~repro.system.telemetry.SpanRecord` with their trace
  identity as fields, the always-on bounded trace ring behind
  ``/traces`` and ``repro trace``, and the crash flight recorder.
- :mod:`~repro.system.observe.aggregate` — hierarchical camera → shard
  → fleet telemetry rollups recorded as ``facts.fleet.telemetry``.

Everything here is write-only with respect to estimation: exporters and
the ledger consume snapshots after the fact, so profile series stay
bit-identical whether or not a run is observed.
"""

from __future__ import annotations

from repro.system.observe.aggregate import CameraStats, TelemetryAggregator
from repro.system.observe.gate import (
    GateResult,
    GateThresholds,
    GateViolation,
    check_run,
    diff_runs,
)
from repro.system.observe.ledger import (
    SCHEMA_VERSION,
    ActiveRun,
    active_run,
    annotate,
    append_record,
    begin_run,
    config_fingerprint,
    finish_run,
    latest_run,
    new_run_id,
    read_runs,
    record_event,
)
from repro.system.observe.prometheus import (
    export_prometheus,
    labeled_name,
    prometheus_exposition,
)
from repro.system.observe.trace import (
    chrome_payload,
    export_chrome_trace,
    trace_depth,
)
from repro.system.observe.tracing import (
    TraceContext,
    TraceRing,
    dump_flight_record,
    ingest_snapshot_spans,
)

__all__ = [
    "ActiveRun",
    "CameraStats",
    "TelemetryAggregator",
    "TraceContext",
    "TraceRing",
    "GateResult",
    "GateThresholds",
    "GateViolation",
    "SCHEMA_VERSION",
    "active_run",
    "annotate",
    "append_record",
    "begin_run",
    "check_run",
    "chrome_payload",
    "config_fingerprint",
    "diff_runs",
    "dump_flight_record",
    "export_chrome_trace",
    "export_prometheus",
    "finish_run",
    "ingest_snapshot_spans",
    "labeled_name",
    "latest_run",
    "new_run_id",
    "prometheus_exposition",
    "read_runs",
    "record_event",
    "trace_depth",
]
