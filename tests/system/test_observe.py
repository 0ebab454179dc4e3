"""Tests for the telemetry export layer: trace/prometheus exporters,
the run ledger, and the regression gate.

The contracts under test: span attributes of any supported type
round-trip through snapshot JSON (and render in both exporters without
crashing or silently stringifying), histogram quantiles are defined on
empty and single-observation series, the Chrome trace preserves span
nesting exactly, the ledger appends atomically and reads back what it
wrote, the gate passes a self-comparison and fails an injected breach,
and cross-process snapshot folding preserves nesting associatively.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.errors import ConfigurationError
from repro.system import telemetry
from repro.system.observe import (
    GateThresholds,
    append_record,
    begin_run,
    annotate,
    check_run,
    config_fingerprint,
    diff_runs,
    export_chrome_trace,
    export_prometheus,
    finish_run,
    latest_run,
    prometheus_exposition,
    read_runs,
    record_event,
)
from repro.system.observe import ledger as ledger_mod
from repro.system.executor import ExecutorConfig, ParallelExecutor
from repro.system.telemetry import (
    HISTOGRAM_BUCKET_BOUNDS,
    HistogramStat,
    MetricsRegistry,
    MetricsSnapshot,
    SpanRecord,
)


@pytest.fixture(autouse=True)
def no_active_run():
    """Every test starts and ends without a process-global active run."""
    finish_run()
    yield
    finish_run()


def nested_snapshot() -> MetricsSnapshot:
    """A registry exercise with 3 nesting levels and typed attributes."""
    registry = MetricsRegistry()
    registry.count("cache.hit", 30)
    registry.count("cache.miss", 10)
    registry.gauge("fleet.clock", 12.5)
    registry.observe("span.sweep", 0.004)
    registry.observe("span.sweep", 0.009)
    with registry.span("cli.profile", seed=7):
        with registry.span("profiler.sweep", fraction=0.25, shape=(2, 3)):
            with registry.span("profiler.gather", eligible=1500):
                pass
            with registry.span("profiler.price", vectorized=True):
                pass
    return registry.snapshot()


class TestAttributeRoundTrip:
    """Satellite S1: non-string span attributes survive JSON round-trips."""

    def test_int_float_tuple_attributes_preserved(self):
        registry = MetricsRegistry()
        with registry.span(
            "s", count=3, ratio=0.5, pair=(1, 2), label="x", flag=True
        ):
            pass
        snapshot = registry.snapshot()
        attrs = dict(snapshot.spans[0].attributes)
        assert attrs["count"] == 3 and isinstance(attrs["count"], int)
        assert attrs["ratio"] == 0.5 and isinstance(attrs["ratio"], float)
        assert attrs["pair"] == (1, 2)
        assert attrs["label"] == "x"
        assert attrs["flag"] is True

    def test_json_round_trip_restores_types(self):
        snapshot = nested_snapshot()
        restored = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        )
        assert restored.counters == snapshot.counters
        assert restored.gauges == snapshot.gauges
        assert restored.histograms == snapshot.histograms
        [root] = restored.spans
        assert root.name == "cli.profile"
        assert dict(root.attributes)["seed"] == 7
        [sweep] = root.children
        assert dict(sweep.attributes)["fraction"] == 0.25
        assert dict(sweep.attributes)["shape"] == (2, 3)
        assert [child.name for child in sweep.children] == [
            "profiler.gather", "profiler.price",
        ]

    def test_numpy_scalar_attributes_normalize(self):
        np = pytest.importorskip("numpy")
        registry = MetricsRegistry()
        with registry.span("s", n=np.int64(5), x=np.float64(0.25)):
            pass
        attrs = dict(registry.snapshot().spans[0].attributes)
        assert attrs["n"] == 5 and isinstance(attrs["n"], int)
        assert attrs["x"] == 0.25 and isinstance(attrs["x"], float)

    def test_exporters_accept_typed_attributes(self, tmp_path):
        snapshot = nested_snapshot()
        payload = export_chrome_trace(snapshot, tmp_path / "trace.json")
        args = {
            event["name"]: event["args"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert args["profiler.sweep"]["fraction"] == 0.25
        assert args["profiler.sweep"]["shape"] == [2, 3]
        text = prometheus_exposition(snapshot)
        assert "repro_cache_hit_total 30" in text


class TestQuantiles:
    """Satellite S3: quantile math on empty/single/merged series."""

    def test_empty_histogram_quantile_is_nan(self):
        stat = HistogramStat()
        assert math.isnan(stat.quantile(0.5))
        assert math.isnan(stat.quantile(0.0))
        assert math.isnan(stat.quantile(1.0))

    def test_single_observation_quantile_is_the_value(self):
        stat = HistogramStat.single(0.42)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert stat.quantile(q) == pytest.approx(0.42)

    def test_quantile_rejects_out_of_range(self):
        stat = HistogramStat.single(1.0)
        with pytest.raises(ValueError):
            stat.quantile(-0.1)
        with pytest.raises(ValueError):
            stat.quantile(1.5)

    def test_quantile_bounds_respected_on_merged_series(self):
        stat = HistogramStat()
        for value in (0.002, 0.003, 0.04, 0.7, 2.0):
            stat = stat.merged(HistogramStat.single(value))
        assert stat.quantile(0.0) == pytest.approx(0.002)
        assert stat.quantile(1.0) == pytest.approx(2.0)
        median = stat.quantile(0.5)
        assert 0.002 <= median <= 2.0

    def test_quantile_monotone_in_q(self):
        stat = HistogramStat()
        for value in (0.0001, 0.004, 0.06, 0.6, 10.0, 200.0):
            stat = stat.merged(HistogramStat.single(value))
        qs = [stat.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)


class TestChromeTrace:
    def test_depth_and_nesting_preserved(self, tmp_path):
        from repro.system.observe import trace_depth

        snapshot = nested_snapshot()
        assert trace_depth(snapshot) == 3
        payload = export_chrome_trace(snapshot, tmp_path / "trace.json")
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {event["name"]: event for event in spans}
        parent = by_name["cli.profile"]
        child = by_name["profiler.sweep"]
        grandchild = by_name["profiler.gather"]
        for inner, outer in ((child, parent), (grandchild, child)):
            assert inner["ts"] >= outer["ts"]
            assert inner["ts"] + inner["dur"] <= (
                outer["ts"] + outer["dur"] + 1e-6
            )

    def test_written_file_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(nested_snapshot(), path)
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "M" for e in loaded["traceEvents"])

    def test_none_snapshot_writes_empty_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        payload = export_chrome_trace(None, path)
        assert payload["traceEvents"] == []
        assert path.exists()

    def test_no_leftover_temp_files(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        export_chrome_trace(nested_snapshot(), tmp_path / "trace.json")
        # ``repro trace export`` writes through the same atomic writer.
        spans = [
            record.to_dict(children=False)
            for record in telemetry.iter_spans(nested_snapshot())
        ]
        monkeypatch.setattr(
            cli, "_fetch_traces",
            lambda args, path: (200, {"trace_id": "ab", "spans": spans}),
        )
        output = tmp_path / "served.json"
        assert cli.main(["trace", "export", "ab", "--output", str(output)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "served.json", "trace.json",
        ]


class TestPrometheus:
    def test_counter_gauge_histogram_families(self):
        text = prometheus_exposition(nested_snapshot())
        assert "# TYPE repro_cache_hit_total counter" in text
        assert "repro_cache_hit_total 30" in text
        assert "# TYPE repro_fleet_clock gauge" in text
        assert "repro_fleet_clock 12.5" in text
        assert "# TYPE repro_span_sweep histogram" in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative_with_inf(self):
        text = prometheus_exposition(nested_snapshot())
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_span_sweep_bucket")
        ]
        assert len(bucket_lines) == len(HISTOGRAM_BUCKET_BOUNDS) + 1
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert bucket_lines[-1].startswith(
            'repro_span_sweep_bucket{le="+Inf"}'
        )
        assert counts[-1] == 2
        assert "repro_span_sweep_sum 0.013" in text
        assert "repro_span_sweep_count 2" in text

    def test_invalid_chars_sanitized(self):
        registry = MetricsRegistry()
        registry.count("weird-name.with:ok", 1)
        text = prometheus_exposition(registry.snapshot())
        assert "repro_weird_name_with:ok_total 1" in text

    def test_none_snapshot_yields_comment_only(self):
        text = prometheus_exposition(None)
        assert text.startswith("#") and text.endswith("\n")

    def test_export_writes_atomically(self, tmp_path):
        path = tmp_path / "metrics.prom"
        text = export_prometheus(nested_snapshot(), path)
        assert path.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.prom"]


class TestLedger:
    def test_begin_annotate_finish_appends_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        begin_run("profile", {"dataset": "ua-detrac", "frames": 2000}, path)
        annotate(model_invocations=6084, dataset="ua-detrac")
        annotate(bounds={"max_width": 0.3})
        annotate(bounds={"mean_width": 0.1})
        record_event("fleet.execute", cameras=5)
        record = finish_run(snapshot=nested_snapshot())
        assert record is not None
        [stored] = read_runs(path)
        assert stored["run_id"] == record["run_id"]
        assert stored["command"] == "profile"
        assert stored["metrics"]["model_invocations"] == 6084
        assert stored["metrics"]["cache_hits"] == 30
        assert stored["metrics"]["cache_hit_ratio"] == pytest.approx(0.75)
        assert stored["bounds"] == {"max_width": 0.3, "mean_width": 0.1}
        assert stored["dataset"] == "ua-detrac"
        assert stored["events"] == [{"event": "fleet.execute", "cameras": 5}]
        assert stored["fingerprint"] == config_fingerprint(
            {"dataset": "ua-detrac", "frames": 2000}
        )

    def test_finish_without_begin_is_noop(self):
        assert finish_run() is None

    def test_annotate_without_run_is_noop(self):
        annotate(model_invocations=1)
        record_event("x")

    def test_appends_accumulate_oldest_first(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for index in range(3):
            begin_run("profile", {"index": index}, path)
            finish_run()
        records = read_runs(path)
        assert [r["config"]["index"] for r in records] == [0, 1, 2]
        assert latest_run(path)["config"]["index"] == 2

    def test_reader_skips_garbage_and_foreign_schema(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        begin_run("profile", {}, path)
        finish_run()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"schema": 999, "run_id": "future"}) + "\n")
            handle.write("[1,2,3]\n")
        records = read_runs(path)
        assert len(records) == 1

    def test_latest_run_filters(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        begin_run("profile", {}, path)
        profile_record = finish_run()
        begin_run("chaos", {}, path)
        finish_run()
        assert latest_run(path, command="profile")["run_id"] == (
            profile_record["run_id"]
        )
        # The run-id prefix must reach past the shared time component to
        # select uniquely (both records were created in the same second).
        prefix = profile_record["run_id"][:14]
        assert latest_run(path, run_id=prefix)["run_id"] == (
            profile_record["run_id"]
        )
        with pytest.raises(ConfigurationError):
            latest_run(path, command="estimate")

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_runs(tmp_path / "absent.jsonl")

    def test_event_cap_counts_drops(self, tmp_path):
        begin_run("chaos", {}, tmp_path / "runs.jsonl")
        for index in range(ledger_mod.MAX_EVENTS + 7):
            record_event("tick", index=index)
        record = finish_run()
        assert len(record["events"]) == ledger_mod.MAX_EVENTS
        assert record["events_dropped"] == 7

    def test_append_record_is_one_line_per_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_record(path, {"schema": 1, "run_id": "a"})
        append_record(path, {"schema": 1, "run_id": "b"})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_fingerprint_stable_and_order_insensitive(self):
        a = config_fingerprint({"x": 1, "y": [2, 3]})
        b = config_fingerprint({"y": [2, 3], "x": 1})
        c = config_fingerprint({"x": 2, "y": [2, 3]})
        assert a == b
        assert a != c


def baseline_record(**overrides) -> dict:
    record = {
        "schema": 1,
        "run_id": "base",
        "wall_seconds": 10.0,
        "metrics": {
            "model_invocations": 6084,
            "cache_hit_ratio": 0.9,
        },
        "bounds": {"max_width": 0.5},
    }
    record.update(overrides)
    return record


def candidate_record(**metric_overrides) -> dict:
    record = baseline_record(run_id="cand")
    record["metrics"] = {**record["metrics"], **metric_overrides}
    return record


class TestGate:
    def test_identical_records_pass(self):
        result = check_run(baseline_record(), baseline_record())
        assert result.passed
        assert set(result.checked) == {
            "wall_seconds", "model_invocations", "max_bound_width",
            "cache_hit_ratio",
        }

    def test_wall_breach_fails(self):
        candidate = candidate_record()
        candidate["wall_seconds"] = 101.0
        result = check_run(baseline_record(), candidate)
        assert not result.passed
        assert [v.metric for v in result.violations] == ["wall_seconds"]

    def test_invocation_growth_fails_at_tight_ratio(self):
        result = check_run(
            baseline_record(), candidate_record(model_invocations=6085)
        )
        assert not result.passed
        assert result.violations[0].metric == "model_invocations"

    def test_cache_hit_floor_defaults_to_baseline_minus_slack(self):
        passing = check_run(
            baseline_record(), candidate_record(cache_hit_ratio=0.89)
        )
        assert passing.passed
        failing = check_run(
            baseline_record(), candidate_record(cache_hit_ratio=0.5)
        )
        assert not failing.passed

    def test_bound_width_inflation_fails(self):
        candidate = candidate_record()
        candidate["bounds"] = {"max_width": 0.6}
        result = check_run(baseline_record(), candidate)
        assert not result.passed
        assert result.violations[0].metric == "max_bound_width"

    def test_zero_baseline_invocations_flag_any_growth(self):
        base = baseline_record()
        base["metrics"]["model_invocations"] = 0
        grown = candidate_record(model_invocations=5)
        assert not check_run(base, grown).passed
        same = candidate_record(model_invocations=0)
        assert check_run(base, same).passed

    def test_missing_fields_are_skipped_not_failed(self):
        bare = {"schema": 1, "run_id": "bare"}
        result = check_run(bare, bare)
        assert result.passed
        assert result.checked == ()

    def test_thresholds_none_disables_check(self):
        candidate = candidate_record()
        candidate["wall_seconds"] = 1e9
        thresholds = GateThresholds(max_wall_ratio=None)
        assert check_run(baseline_record(), candidate, thresholds).passed

    def test_diff_rows_include_ratio(self):
        candidate = candidate_record()
        candidate["wall_seconds"] = 20.0
        rows = {row["metric"]: row for row in diff_runs(
            baseline_record(), candidate
        )}
        assert rows["wall_seconds"]["ratio"] == pytest.approx(2.0)
        assert rows["model_invocations"]["delta"] == 0


def sentinel_record(recall=1.0, fpr=0.0, **overrides) -> dict:
    record = baseline_record(**overrides)
    record["facts"] = {
        "sentinel": {"recall": recall, "fpr": fpr, "localization": 1.0}
    }
    return record


class TestSentinelGate:
    """Chaos-run sentinel metrics flow through the same perf gate."""

    def test_identical_sentinel_records_pass(self):
        result = check_run(sentinel_record(), sentinel_record(run_id="cand"))
        assert result.passed
        assert "sentinel_recall" in result.checked
        assert "sentinel_fpr" in result.checked

    def test_recall_floor_defaults_to_baseline(self):
        result = check_run(
            sentinel_record(recall=1.0),
            sentinel_record(recall=0.5, run_id="cand"),
        )
        assert not result.passed
        assert [v.metric for v in result.violations] == ["sentinel_recall"]

    def test_fpr_ceiling_defaults_to_baseline(self):
        result = check_run(
            sentinel_record(fpr=0.0),
            sentinel_record(fpr=0.25, run_id="cand"),
        )
        assert not result.passed
        assert [v.metric for v in result.violations] == ["sentinel_fpr"]

    def test_explicit_thresholds_override_baseline(self):
        lenient = GateThresholds(
            min_sentinel_recall=0.4, max_sentinel_fpr=0.5
        )
        result = check_run(
            sentinel_record(recall=1.0, fpr=0.0),
            sentinel_record(recall=0.5, fpr=0.25, run_id="cand"),
            lenient,
        )
        assert result.passed

    def test_non_chaos_records_skip_sentinel_checks(self):
        result = check_run(baseline_record(), candidate_record())
        assert result.passed
        assert "sentinel_recall" not in result.checked
        assert "sentinel_fpr" not in result.checked

    def test_diff_surfaces_sentinel_rows(self):
        rows = {row["metric"]: row for row in diff_runs(
            sentinel_record(), sentinel_record(recall=0.5, run_id="cand")
        )}
        assert rows["sentinel_recall"]["delta"] == pytest.approx(-0.5)
        assert rows["sentinel_localization"]["ratio"] == pytest.approx(1.0)


def serve_record(speedup=200.0, coalescing=8.0, **overrides) -> dict:
    record = baseline_record(**overrides)
    record["facts"] = {
        "serve": {
            "p50_warm_seconds": 0.004,
            "p99_warm_seconds": 0.01,
            "cold_cli_seconds": 1.0,
            "speedup_cold_over_warm": speedup,
            "coalescing_ratio": coalescing,
            "requests": 84,
            "rejected": 0,
            "batched_kernel_calls": 5,
        }
    }
    return record


class TestServeGate:
    """Serving-benchmark facts flow through the same perf gate."""

    def test_serve_checks_disabled_by_default(self):
        # Both floors are wall-time/timing dependent: nothing is checked
        # unless an explicit threshold opts in.
        result = check_run(serve_record(), serve_record(run_id="cand"))
        assert result.passed
        assert "serve_speedup" not in result.checked
        assert "serve_coalescing_ratio" not in result.checked

    def test_speedup_floor_enforced_when_explicit(self):
        thresholds = GateThresholds(min_serve_speedup=5.0)
        passing = check_run(
            serve_record(), serve_record(run_id="cand"), thresholds
        )
        assert passing.passed
        assert "serve_speedup" in passing.checked
        failing = check_run(
            serve_record(),
            serve_record(speedup=3.0, run_id="cand"),
            thresholds,
        )
        assert not failing.passed
        assert [v.metric for v in failing.violations] == ["serve_speedup"]

    def test_coalescing_floor_enforced_when_explicit(self):
        thresholds = GateThresholds(min_serve_coalescing=2.0)
        failing = check_run(
            serve_record(),
            serve_record(coalescing=1.0, run_id="cand"),
            thresholds,
        )
        assert not failing.passed
        assert [v.metric for v in failing.violations] == [
            "serve_coalescing_ratio"
        ]

    def test_records_without_serve_facts_skip_the_checks(self):
        thresholds = GateThresholds(
            min_serve_speedup=5.0, min_serve_coalescing=2.0
        )
        result = check_run(
            baseline_record(), candidate_record(), thresholds
        )
        assert result.passed
        assert "serve_speedup" not in result.checked

    def test_diff_surfaces_serve_rows(self):
        rows = {row["metric"]: row for row in diff_runs(
            serve_record(), serve_record(speedup=100.0, run_id="cand")
        )}
        assert rows["serve_speedup"]["delta"] == pytest.approx(-100.0)
        assert rows["serve_coalescing_ratio"]["ratio"] == pytest.approx(1.0)
        assert rows["serve_p50_warm_seconds"]["baseline"] == pytest.approx(
            0.004
        )


def stream_record(fps=1_000_000.0, **overrides) -> dict:
    record = baseline_record(**overrides)
    record["facts"] = {
        "stream": {
            "frames_per_sec": fps,
            "windows": 5,
            "violations": 2,
            "repairs": 1,
            "first_breach_count": 1920,
            "tripped": True,
        }
    }
    return record


class TestStreamGate:
    """Streaming-replay facts flow through the same perf gate."""

    def test_stream_checks_disabled_by_default(self):
        result = check_run(
            stream_record(), stream_record(run_id="cand"), GateThresholds()
        )
        assert result.passed
        assert "stream_frames_per_sec" not in result.checked

    def test_fps_floor_enforced_when_explicit(self):
        thresholds = GateThresholds(min_stream_fps=5000.0)
        passing = check_run(
            stream_record(), stream_record(run_id="cand"), thresholds
        )
        assert passing.passed
        assert "stream_frames_per_sec" in passing.checked
        failing = check_run(
            stream_record(),
            stream_record(fps=400.0, run_id="cand"),
            thresholds,
        )
        assert not failing.passed
        assert [v.metric for v in failing.violations] == [
            "stream_frames_per_sec"
        ]

    def test_records_without_stream_facts_skip_the_checks(self):
        result = check_run(
            baseline_record(),
            candidate_record(),
            GateThresholds(min_stream_fps=5000.0),
        )
        assert result.passed
        assert "stream_frames_per_sec" not in result.checked

    def test_diff_surfaces_stream_rows(self):
        rows = {row["metric"]: row for row in diff_runs(
            stream_record(), stream_record(fps=2_000_000.0, run_id="cand")
        )}
        assert rows["stream_frames_per_sec"]["delta"] == pytest.approx(
            1_000_000.0
        )
        assert rows["stream_violations"]["ratio"] == pytest.approx(1.0)
        assert rows["stream_repairs"]["baseline"] == 1


def _traced_unit(index: int) -> int:
    """Module-level (picklable) work unit that records a nested span."""
    with telemetry.span("unit.outer", index=index):
        with telemetry.span("unit.inner", index=index):
            telemetry.count("unit.calls")
    return index * 10


class TestCrossProcessMerge:
    """Satellite S4: worker snapshots fold into the parent correctly."""

    def test_folded_worker_spans_preserve_nesting(self):
        registry = telemetry.enable()
        try:
            executor = ParallelExecutor(ExecutorConfig(workers=2))
            results = executor.map(_traced_unit, [0, 1, 2, 3])
            snapshot = registry.snapshot()
        finally:
            telemetry.disable()
        assert results == [0, 10, 20, 30]
        # Pool-dispatched units fold in under a trace-tagged
        # ``executor.unit`` root; the in-process probe unit stays at the
        # top level. Either way the unit's own nesting is intact.
        outers = [
            s
            for s in telemetry.iter_spans(snapshot)
            if s.name == "unit.outer"
        ]
        assert len(outers) == 4
        for outer in outers:
            assert [c.name for c in outer.children] == ["unit.inner"]
            assert not outer.children[0].children
        dispatched = [
            s for s in snapshot.spans if s.name == "executor.unit"
        ]
        assert dispatched
        for unit in dispatched:
            assert unit.trace_id
            assert [c.name for c in unit.children] == ["unit.outer"]
        assert snapshot.counters["unit.calls"] == 4
        assert sorted(
            dict(outer.attributes)["index"] for outer in outers
        ) == [0, 1, 2, 3]

    def test_fold_order_does_not_change_aggregates(self):
        def worker(tag: str) -> MetricsSnapshot:
            registry = MetricsRegistry()
            with registry.span("outer", tag=tag):
                with registry.span("inner"):
                    # Power-of-two values: exact in binary, so the total
                    # is independent of summation order.
                    registry.observe("latency", 0.25 * (len(tag) + 1))
            registry.count("done")
            return registry.snapshot()

        parts = [worker(tag) for tag in ("a", "bb", "ccc")]
        forward = MetricsRegistry()
        for part in parts:
            forward.merge_snapshot(part)
        backward = MetricsRegistry()
        for part in reversed(parts):
            backward.merge_snapshot(part)
        left, right = forward.snapshot(), backward.snapshot()
        assert left.counters == right.counters
        assert left.histograms == right.histograms
        assert sorted(s.attributes for s in left.spans) == sorted(
            s.attributes for s in right.spans
        )
        for snapshot in (left, right):
            for root in snapshot.spans:
                assert [c.name for c in root.children] == ["inner"]

    def test_trace_renders_folded_worker_roots(self, tmp_path):
        registry = telemetry.enable()
        try:
            with telemetry.span("cli.profile"):
                pass
            executor = ParallelExecutor(ExecutorConfig(workers=2))
            executor.map(_traced_unit, [0, 1])
            snapshot = registry.snapshot()
        finally:
            telemetry.disable()
        payload = export_chrome_trace(snapshot, tmp_path / "trace.json")
        names = [
            event["name"] for event in payload["traceEvents"]
            if event["ph"] == "X"
        ]
        assert names.count("unit.outer") == 2
        assert names.count("unit.inner") == 2
        assert "cli.profile" in names


class TestPrometheusLabels:
    """Label-carrying metric names render as one family with label sets."""

    def test_labeled_name_round_trips(self):
        from repro.system.observe import labeled_name
        from repro.system.observe.prometheus import split_labels

        dotted = labeled_name(
            "serve.request_seconds", endpoint="estimate", tenant="acme"
        )
        assert dotted == (
            "serve.request_seconds{endpoint=estimate,tenant=acme}"
        )
        base, labels = split_labels(dotted)
        assert base == "serve.request_seconds"
        assert labels == {"endpoint": "estimate", "tenant": "acme"}

    def test_malformed_suffix_treated_as_unlabeled(self):
        from repro.system.observe.prometheus import split_labels

        base, labels = split_labels("serve.request_seconds{oops}")
        assert base == "serve.request_seconds{oops}"
        assert labels == {}

    def test_labeled_histogram_family_renders_once(self):
        from repro.system.observe import labeled_name

        registry = MetricsRegistry()
        registry.observe("serve.request_seconds", 0.004)
        registry.observe(
            labeled_name("serve.request_seconds", endpoint="estimate"),
            0.008,
        )
        registry.observe(
            labeled_name("serve.request_seconds", endpoint="profile"),
            0.016,
        )
        text = prometheus_exposition(registry.snapshot())
        type_lines = [
            line for line in text.splitlines()
            if line.startswith("# TYPE repro_serve_request_seconds ")
        ]
        assert len(type_lines) == 1
        assert 'repro_serve_request_seconds_count{endpoint="estimate"} 1' in text
        assert 'repro_serve_request_seconds_count{endpoint="profile"} 1' in text
        assert "repro_serve_request_seconds_count 1" in text
        assert 'bucket{endpoint="estimate",le="+Inf"} 1' in text

    def test_labeled_counter_and_gauge_render(self):
        from repro.system.observe import labeled_name

        registry = MetricsRegistry()
        registry.count(labeled_name("serve.requests", tenant="t1"), 3)
        registry.gauge(labeled_name("serve.queue_depth", lane="fast"), 7)
        text = prometheus_exposition(registry.snapshot())
        assert 'repro_serve_requests_total{tenant="t1"} 3' in text
        assert 'repro_serve_queue_depth{lane="fast"} 7' in text

    def test_label_values_escaped_per_exposition_spec(self):
        from repro.system.observe import labeled_name

        registry = MetricsRegistry()
        hostile = 'a"b\\c\nd'
        registry.count(labeled_name("serve.requests", tenant=hostile), 1)
        text = prometheus_exposition(registry.snapshot())
        assert (
            'repro_serve_requests_total{tenant="a\\"b\\\\c\\nd"} 1' in text
        )
        assert "\nd\"} 1" not in text  # no raw newline inside the line

    def test_unlabeled_output_unchanged_by_label_support(self):
        text = prometheus_exposition(nested_snapshot())
        assert "{" not in text.replace('le="', "le-").replace(
            '{le-', "le-"
        ) or True
        # The unlabeled families render without any label braces except
        # histogram bucket ``le``.
        for line in text.splitlines():
            if line.startswith("#") or "_bucket{" in line:
                continue
            assert "{" not in line


def latency_record(p99=0.01, **overrides) -> dict:
    record = serve_record(**overrides)
    record["facts"]["serve"]["p99_warm_seconds"] = p99
    return record


class TestLatencyGate:
    """The explicit-only p99 ceiling on the serve benchmark."""

    def test_p99_not_checked_by_default(self):
        result = check_run(
            latency_record(), latency_record(p99=9.0, run_id="cand")
        )
        assert result.passed
        assert "serve_p99_warm_seconds" not in result.checked

    def test_p99_ceiling_enforced_when_explicit(self):
        thresholds = GateThresholds(max_p99_latency=0.5)
        passing = check_run(
            latency_record(), latency_record(run_id="cand"), thresholds
        )
        assert passing.passed
        assert "serve_p99_warm_seconds" in passing.checked
        failing = check_run(
            latency_record(),
            latency_record(p99=0.75, run_id="cand"),
            thresholds,
        )
        assert not failing.passed
        assert [v.metric for v in failing.violations] == [
            "serve_p99_warm_seconds"
        ]
        assert "above ceiling" in failing.violations[0].message

    def test_p99_skipped_without_serve_facts(self):
        thresholds = GateThresholds(max_p99_latency=0.5)
        result = check_run(
            baseline_record(), candidate_record(), thresholds
        )
        assert result.passed
        assert "serve_p99_warm_seconds" not in result.checked

    def test_diff_surfaces_fleet_rows(self):
        baseline = baseline_record()
        candidate = baseline_record(run_id="cand")
        for record, cameras in ((baseline, 4), (candidate, 6)):
            record["facts"] = {
                "fleet": {
                    "telemetry": {
                        "fleet": {
                            "cameras": cameras,
                            "violations": 1,
                            "violation_concentration": 0.5,
                        }
                    }
                }
            }
        rows = {row["metric"]: row for row in diff_runs(baseline, candidate)}
        assert rows["fleet_cameras"]["baseline"] == 4
        assert rows["fleet_cameras"]["candidate"] == 6
        assert rows["fleet_violation_concentration"]["candidate"] == 0.5
