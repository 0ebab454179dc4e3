"""Tests for the command-line interface (invoked in-process)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import _gate_thresholds, build_parser, main
from repro.experiments.registry import experiment_names
from repro.experiments.workloads import model_for
from repro.system import observe, telemetry


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "--dataset", "ua-detrac"])
        assert args.output == "hypercube.json"
        assert args.trials == 3
        assert not args.no_correction

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--dataset", "city-walk"])

    def test_every_subcommand_accepts_telemetry_flags(self):
        for argv in (
            ["profile", "--dataset", "ua-detrac"],
            ["choose", "--cube", "c.json", "--max-error", "0.5"],
            ["estimate", "--dataset", "ua-detrac"],
            ["experiment", "fig8"],
            ["chaos"],
            ["info", "--dataset", "ua-detrac"],
            ["report"],
        ):
            args = build_parser().parse_args(
                argv + ["--telemetry", "t.json", "--log-level", "info",
                        "--log-format", "json", "--trace", "t.trace.json",
                        "--prometheus", "t.prom",
                        "--run-ledger", "runs.jsonl"]
            )
            assert args.telemetry == "t.json"
            assert args.log_level == "info"
            assert args.log_format == "json"
            assert args.trace == "t.trace.json"
            assert args.prometheus == "t.prom"
            assert args.run_ledger == "runs.jsonl"

    def test_experiment_names_cover_every_figure(self):
        names = experiment_names()
        for figure in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert figure in names
        assert "fig10-sampling" in names
        assert "fig10-resolution" in names
        assert "temporal" in names
        assert "var" in names


class TestInfo:
    def test_prints_calibration(self, capsys):
        code = main(["info", "--dataset", "ua-detrac", "--frames", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ua-detrac" in out
        assert "mean cars/frame" in out
        assert "person frames" in out


class TestEstimate:
    def test_random_plan(self, capsys):
        code = main([
            "estimate", "--dataset", "ua-detrac", "--frames", "1500",
            "--aggregate", "avg", "--fraction", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert "warning" not in out

    def test_non_random_plan_warns(self, capsys):
        code = main([
            "estimate", "--dataset", "ua-detrac", "--frames", "1500",
            "--fraction", "0.5", "--resolution", "256",
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().out

    def test_max_aggregate_with_stein(self, capsys):
        code = main([
            "estimate", "--dataset", "ua-detrac", "--frames", "1500",
            "--aggregate", "max", "--fraction", "0.2", "--method", "stein",
        ])
        assert code == 0
        assert "stein" not in capsys.readouterr().err

    def test_unknown_aggregate_exits(self):
        with pytest.raises(SystemExit):
            main([
                "estimate", "--dataset", "ua-detrac", "--frames", "1500",
                "--aggregate", "median",
            ])

    def test_unknown_method_reports_error(self, capsys):
        code = main([
            "estimate", "--dataset", "ua-detrac", "--frames", "1500",
            "--fraction", "0.1", "--method", "bootstrap",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestProfileAndChoose:
    def test_profile_writes_cube_and_choose_reads_it(self, tmp_path, capsys):
        cube_path = tmp_path / "cube.json"
        code = main([
            "profile", "--dataset", "ua-detrac", "--frames", "1500",
            "--output", str(cube_path), "--fraction-step", "0.25",
            "--resolution-count", "3", "--trials", "1",
        ])
        assert code == 0
        data = json.loads(cube_path.read_text())
        assert data["kind"] == "hypercube"

        capsys.readouterr()
        code = main([
            "choose", "--cube", str(cube_path), "--axis", "sampling",
            "--max-error", "0.9",
        ])
        assert code == 0
        assert "chosen setting" in capsys.readouterr().out

    def test_choose_infeasible_target_reports_error(self, tmp_path, capsys):
        cube_path = tmp_path / "cube.json"
        main([
            "profile", "--dataset", "ua-detrac", "--frames", "1500",
            "--output", str(cube_path), "--fraction-step", "0.5",
            "--resolution-count", "2", "--trials", "1", "--no-correction",
        ])
        capsys.readouterr()
        # No profiled fraction is at or below 0.1, so the degradation goal
        # admits nothing.
        code = main([
            "choose", "--cube", str(cube_path), "--axis", "sampling",
            "--max-error", "0.9", "--max-fraction", "0.1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTelemetrySnapshot:
    def test_warm_profile_reports_all_hits_and_no_degradation(
        self, tmp_path, capsys
    ):
        """Acceptance criterion: a warm-cache ``profile --telemetry`` run
        reports cache hits == detector consultations and zero
        ``cache.corrupt``/``executor.fallback`` events."""
        cache_dir = tmp_path / "cache"
        base = [
            "profile", "--dataset", "ua-detrac", "--frames", "1500",
            "--fraction-step", "0.25", "--resolution-count", "3",
            "--trials", "1", "--cache-dir", str(cache_dir),
        ]
        # Cold run populates the persistent cache.
        assert main(base + ["--output", str(tmp_path / "cold.json")]) == 0
        # Empty the shared detector's in-process cache so the warm run
        # behaves like a fresh process: every output must come from disk.
        model_for("ua-detrac").clear_cache()
        snapshot_path = tmp_path / "telemetry.json"
        capsys.readouterr()
        code = main(base + [
            "--output", str(tmp_path / "warm.json"),
            "--telemetry", str(snapshot_path),
        ])
        assert code == 0
        assert not telemetry.enabled()  # main() restored the no-op registry
        assert "telemetry snapshot written" in capsys.readouterr().out
        snapshot = json.loads(snapshot_path.read_text())
        counters = snapshot["counters"]
        assert counters["cache.hit"] > 0
        assert counters["cache.hit"] == counters["detector.consultations"]
        assert "cache.corrupt" not in counters
        assert "executor.fallback" not in counters
        assert snapshot["spans"], "profile generation records spans"
        warm = json.loads((tmp_path / "warm.json").read_text())
        cold = json.loads((tmp_path / "cold.json").read_text())
        assert warm["bounds"] == cold["bounds"]  # telemetry never read

    def test_cache_dir_does_not_leak_past_main(self, tmp_path):
        """An in-process ``profile --cache-dir`` run must not leave the
        process-global detector cache active: later detector work in the
        same process (other tests, notebooks) would silently read from and
        write to a directory it never asked for."""
        from repro.detection import diskcache

        assert diskcache.active_cache() is None
        code = main([
            "profile", "--dataset", "ua-detrac", "--frames", "1500",
            "--fraction-step", "0.5", "--resolution-count", "2",
            "--trials", "1", "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "cube.json"),
        ])
        assert code == 0
        assert diskcache.active_cache() is None

    def test_snapshot_written_even_when_command_fails(self, tmp_path, capsys):
        snapshot_path = tmp_path / "telemetry.json"
        code = main([
            "estimate", "--dataset", "ua-detrac", "--frames", "1500",
            "--fraction", "0.1", "--method", "bootstrap",
            "--telemetry", str(snapshot_path),
        ])
        assert code == 1
        assert snapshot_path.exists()
        assert not telemetry.enabled()


# A quick profile invocation (8 cells, 1 trial) shared by the exporter
# and runs-ledger tests below.
FAST_PROFILE = [
    "profile", "--dataset", "ua-detrac", "--frames", "1500",
    "--fraction-step", "0.5", "--resolution-count", "2", "--trials", "1",
]


class TestExporterFlags:
    def test_trace_and_prometheus_files_written(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        snapshot_path = tmp_path / "telemetry.json"
        # Other tests may have warmed the shared model's in-process cache;
        # empty it so this run actually invokes the detector.
        model_for("ua-detrac").clear_cache()
        code = main(FAST_PROFILE + [
            "--output", str(tmp_path / "cube.json"),
            "--telemetry", str(snapshot_path),
            "--trace", str(trace_path),
            "--prometheus", str(prom_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chrome trace written to" in out
        assert "prometheus metrics written to" in out

        # Acceptance: the trace captures the layered span structure
        # (cli -> profiler -> sweep -> gather), not a flat list.
        snapshot = telemetry.MetricsSnapshot.from_dict(
            json.loads(snapshot_path.read_text())
        )
        assert observe.trace_depth(snapshot) >= 3
        payload = json.loads(trace_path.read_text())
        names = {
            event["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"cli.profile", "profiler.sweep", "profiler.gather"} <= names

        prom = prom_path.read_text()
        assert "# TYPE repro_profiler_frames_invoked_total counter" in prom
        assert "# TYPE repro_span_cli_profile histogram" in prom
        assert 'le="+Inf"' in prom

    def test_trace_alone_enables_collection(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "info", "--dataset", "ua-detrac", "--frames", "1500",
            "--trace", str(trace_path),
        ])
        assert code == 0
        assert not telemetry.enabled()
        payload = json.loads(trace_path.read_text())
        assert any(
            event["name"] == "cli.info"
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        )


class TestTraceExport:
    @pytest.mark.parametrize(
        "span",
        [
            {"start_ts": 1.7e9, "duration_s": 0.1},
            {"name": "serve.request", "start_ts": 0.0, "duration_s": 0.1},
            {"name": "serve.request", "duration_s": 0.1},
            {"name": "serve.request", "start_ts": 1.7e9, "duration_s": -1},
        ],
    )
    def test_malformed_span_exits_one_without_writing(
        self, span, tmp_path, monkeypatch, capsys
    ):
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "_fetch_traces",
            lambda args, path: (200, {"trace_id": "ab", "spans": [span]}),
        )
        output = tmp_path / "trace.json"
        code = main(["trace", "export", "ab", "--output", str(output)])
        assert code == 1
        assert "malformed span" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_export_matches_the_trace_flag_exporter(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli

        span = {
            "name": "serve.request", "trace_id": "ab", "span_id": "01",
            "parent_span_id": None, "tenant": "acme", "start_ts": 1.7e9,
            "duration_s": 0.25, "pid": 4321,
            "attributes": {"endpoint": "estimate"},
        }
        monkeypatch.setattr(
            repro.cli, "_fetch_traces",
            lambda args, path: (200, {"trace_id": "ab", "spans": [span]}),
        )
        output = tmp_path / "trace.json"
        assert main(["trace", "export", "ab", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["otherData"]["exporter"] == "repro.system.observe.trace"
        [meta] = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        [event] = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert meta["pid"] == event["pid"] == 4321
        assert event["ts"] == 0.0 and event["dur"] == pytest.approx(250_000)
        assert event["args"]["trace_id"] == "ab"
        assert event["args"]["endpoint"] == "estimate"


class TestSnapshotConcurrency:
    def test_write_leaves_no_temporary_behind(self, tmp_path, capsys):
        snapshot_path = tmp_path / "telemetry.json"
        code = main([
            "info", "--dataset", "ua-detrac", "--frames", "1500",
            "--telemetry", str(snapshot_path),
        ])
        assert code == 0
        assert snapshot_path.exists()
        assert list(tmp_path.glob(".telemetry.json.*.tmp")) == []

    def test_peer_marker_diverts_instead_of_clobbering(self, tmp_path, capsys):
        """S2: if another run's temporary marker is visible next to the
        destination, this run writes its snapshot to a run-id-suffixed
        path instead of racing the peer for the shared one."""
        snapshot_path = tmp_path / "telemetry.json"
        snapshot_path.write_text('{"sentinel": true}\n')
        marker = tmp_path / ".telemetry.json.deadbeef.tmp"
        marker.write_text("{}")
        code = main([
            "info", "--dataset", "ua-detrac", "--frames", "1500",
            "--telemetry", str(snapshot_path),
        ])
        assert code == 0
        # The pre-existing destination was not overwritten...
        assert json.loads(snapshot_path.read_text()) == {"sentinel": True}
        # ...the snapshot landed on a diverted, run-id-suffixed path...
        diverted = list(tmp_path.glob("telemetry.*.json"))
        assert len(diverted) == 1
        assert "counters" in json.loads(diverted[0].read_text())
        out = capsys.readouterr().out
        assert f"telemetry snapshot written to {diverted[0]}" in out
        # ...and the peer's marker was left alone.
        assert marker.exists()


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8177
        assert args.datasets == "ua-detrac"
        assert args.max_batch == 64
        assert args.max_queue == 256
        assert args.tenant_rate == 50.0
        assert args.tenant_burst == 100
        assert args.handler.__name__ == "cmd_serve"

    def test_serve_accepts_tuning_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--datasets", "ua-detrac,night-street",
            "--frames", "2000", "--workers", "auto",
            "--max-batch", "16", "--tenant-rate", "5", "--tenant-burst", "3",
            "--cache-dir", "/tmp/cache", "--run-ledger", "runs.jsonl",
        ])
        assert args.port == 0
        assert args.datasets == "ua-detrac,night-street"
        assert args.workers == "auto"
        assert args.tenant_burst == 3

    def test_call_defaults_and_endpoints(self):
        args = build_parser().parse_args(["call", "estimate"])
        assert args.endpoint == "estimate"
        assert args.port == 8177
        assert args.tenant == "cli"
        assert args.handler.__name__ == "cmd_call"
        for endpoint in ("bound", "profile", "choose", "stats",
                         "healthz", "metrics", "shutdown"):
            assert build_parser().parse_args(
                ["call", endpoint]
            ).endpoint == endpoint
        with pytest.raises(SystemExit):
            build_parser().parse_args(["call", "teapot"])

    def test_pool_defaults(self):
        args = build_parser().parse_args(["pool"])
        assert args.host is None
        assert args.port == 8177
        assert args.handler.__name__ == "cmd_pool"

    def test_runs_check_accepts_serve_thresholds(self):
        args = build_parser().parse_args([
            "runs", "check", "--baseline", "b.json",
            "--min-serve-speedup", "5", "--min-serve-coalescing", "2",
        ])
        assert args.min_serve_speedup == 5.0
        assert args.min_serve_coalescing == 2.0

    def test_runs_check_accepts_stream_fps_floor(self):
        args = build_parser().parse_args([
            "runs", "check", "--baseline", "b.json",
            "--min-stream-fps", "5000",
        ])
        assert args.min_stream_fps == 5000.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(observe.GateThresholds)]
    )
    def test_runs_check_rejects_non_finite_or_negative_limits(
        self, field, value, capsys
    ):
        # A NaN limit compares false with everything: --max-wall-ratio nan
        # would pass a run of any wall time.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([
                "runs", "check", "--baseline", "b.json",
                f"--{field.replace('_', '-')}={value}",
            ])
        assert exit_info.value.code == 2
        assert "finite number >= 0" in capsys.readouterr().err

    def test_runs_check_defaults_are_the_gate_defaults(self):
        args = build_parser().parse_args([
            "runs", "check", "--baseline", "b.json",
        ])
        assert _gate_thresholds(args) == observe.GateThresholds()


class TestStreamCommand:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.dataset == "ua-detrac"
        assert args.frames == 2000
        assert args.scenario is None
        assert args.onset == 0.5
        assert args.window == 480
        assert args.estimator == "windowed"
        assert args.decay == 0.999
        assert args.fps == 0.0
        assert args.handler.__name__ == "cmd_stream"

    def test_stream_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--scenario", "teapot"])

    def test_stream_replay_records_facts_and_prints_table(
        self, tmp_path, capsys
    ):
        from repro.system.stream import StreamConfig, replay_stream

        # Weather at 0.95 trips on about one replay seed in eight
        # (tests/system/test_stream.py checks the rate); replay the first
        # seed that trips to see what the command prints and records.
        seed = next(
            seed for seed in range(100)
            if replay_stream(
                StreamConfig(
                    frames=2000, scenario="weather", severity=0.95, seed=seed
                )
            ).verdict.tripped
        )
        ledger = tmp_path / "stream.jsonl"
        code = main([
            "stream", "--scenario", "weather", "--severity", "0.95",
            "--frames", "2000", "--seed", str(seed),
            "--run-ledger", str(ledger),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TRIPPED" in out
        assert "repaired bound" in out
        record = json.loads(ledger.read_text().splitlines()[-1])
        facts = record["facts"]["stream"]
        assert facts["tripped"] is True
        assert facts["repairs"] == 1
        assert facts["frames_per_sec"] > 0

    def test_clean_stream_replay_stays_quiet(self, capsys):
        code = main(["stream", "--frames", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TRIPPED" not in out


class TestPoolCommand:
    def test_local_pool_inspection_without_a_pool(self, capsys):
        from repro.system.executor import shutdown_pool

        shutdown_pool()
        assert main(["pool"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pool"] is None
        assert isinstance(payload["generation"], int)
        assert "no persistent pool is warm" in captured.err

    def test_local_pool_inspection_with_a_warm_pool(self, capsys):
        from repro.system.executor import (
            _PoolKey,
            _ensure_pool,
            shutdown_pool,
        )

        _ensure_pool(
            _PoolKey(
                workers=2, cache_dir=None, cache_limit=None,
                telemetry_on=False,
            )
        )
        try:
            assert main(["pool"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["pool"]["workers"] == 2
            assert payload["generation"] >= 1
        finally:
            shutdown_pool()


class TestRunsCLI:
    def _record_profile_run(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        # Start from a cold in-process model cache so the recorded run has
        # a non-zero invocation count to gate on.
        model_for("ua-detrac").clear_cache()
        code = main(FAST_PROFILE + [
            "--output", str(tmp_path / "cube.json"),
            "--run-ledger", str(ledger),
        ])
        assert code == 0
        capsys.readouterr()
        return ledger

    def test_list_shows_recorded_run(self, tmp_path, capsys):
        ledger = self._record_profile_run(tmp_path, capsys)
        assert main(["runs", "list", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "profile" in out
        assert "ok" in out

    def test_show_prints_full_record(self, tmp_path, capsys):
        ledger = self._record_profile_run(tmp_path, capsys)
        assert main(["runs", "show", "--ledger", str(ledger)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "profile"
        assert record["status"] == "ok"
        assert record["dataset"] == "ua-detrac"
        assert record["metrics"]["model_invocations"] > 0
        assert record["bounds"]["max_width"] is not None
        assert record["wall_seconds"] > 0

    def test_pin_diff_check_roundtrip_passes(self, tmp_path, capsys):
        ledger = self._record_profile_run(tmp_path, capsys)
        baseline = tmp_path / "baseline.json"
        assert main([
            "runs", "pin", "--ledger", str(ledger),
            "--output", str(baseline),
        ]) == 0
        assert "baseline pinned" in capsys.readouterr().out

        assert main([
            "runs", "diff", "--ledger", str(ledger),
            "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out
        assert "model_invocations" in out

        # A run checked against its own pin passes the gate.
        assert main([
            "runs", "check", "--ledger", str(ledger),
            "--baseline", str(baseline),
        ]) == 0
        assert "regression gate: PASS" in capsys.readouterr().out

    def test_check_fails_on_injected_wall_breach(self, tmp_path, capsys):
        """Acceptance: an injected 10x wall-time breach makes
        ``repro runs check`` exit non-zero."""
        ledger = self._record_profile_run(tmp_path, capsys)
        baseline_path = tmp_path / "baseline.json"
        assert main([
            "runs", "pin", "--ledger", str(ledger),
            "--output", str(baseline_path),
        ]) == 0
        baseline = json.loads(baseline_path.read_text())
        baseline["wall_seconds"] = baseline["wall_seconds"] / 100.0
        baseline_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        code = main([
            "runs", "check", "--ledger", str(ledger),
            "--baseline", str(baseline_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "regression gate: FAIL" in out
        assert "wall_seconds" in out

    def test_check_fails_on_extra_invocations(self, tmp_path, capsys):
        ledger = self._record_profile_run(tmp_path, capsys)
        baseline_path = tmp_path / "baseline.json"
        assert main([
            "runs", "pin", "--ledger", str(ledger),
            "--output", str(baseline_path),
        ]) == 0
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["model_invocations"] -= 1
        baseline_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        code = main([
            "runs", "check", "--ledger", str(ledger),
            "--baseline", str(baseline_path),
        ])
        assert code == 1
        assert "model_invocations" in capsys.readouterr().out

    def test_command_filter_and_limit(self, tmp_path, capsys):
        ledger = self._record_profile_run(tmp_path, capsys)
        assert main([
            "info", "--dataset", "ua-detrac", "--frames", "1500",
            "--run-ledger", str(ledger),
        ]) == 0
        capsys.readouterr()

        assert main([
            "runs", "show", "--ledger", str(ledger), "--command", "profile",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "profile"

        assert main([
            "runs", "list", "--ledger", str(ledger), "--limit", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "info" in out
        assert "profile" not in out

    def test_missing_ledger_reports_error(self, tmp_path, capsys):
        code = main(["runs", "list", "--ledger", str(tmp_path / "no.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_fig8_runs_fast(self, capsys):
        code = main(["experiment", "fig8", "--frames", "1500"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_fig4_with_options(self, capsys):
        code = main([
            "experiment", "fig4", "--dataset", "ua-detrac",
            "--aggregate", "max", "--frames", "1500", "--trials", "3",
        ])
        assert code == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_ablation_reuse(self, capsys):
        code = main(["experiment", "ablation-reuse", "--frames", "1500"])
        assert code == 0
        assert "reuse" in capsys.readouterr().out


class TestChaos:
    def test_sweep_emits_outage_rate_to_bound_width_table(self, capsys):
        code = main([
            "chaos", "--frames", "1000", "--trials", "3",
            "--rates", "0,0.3", "--cameras", "3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "outage rate" in out
        assert "mean bound width" in out
        assert "mean frame coverage" in out

    def test_registered_as_experiment(self):
        assert "chaos" in experiment_names()

    def test_rejects_bad_rates(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--rates", "0,banana"])
        with pytest.raises(SystemExit):
            main(["chaos", "--rates", ","])

    def test_scenario_mode_emits_sentinel_table(self, capsys):
        code = main([
            "chaos", "--scenario", "occlusion", "--frames", "1000",
            "--trials", "2", "--cameras", "3", "--severities", "0.7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario chaos: occlusion" in out
        assert "sentinel recall" in out
        assert "localization accuracy" in out
        assert "sentinel verdict: detected" in out

    def test_scenario_mode_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "volcano"])

    def test_scenario_ledger_records_verdict(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        code = main([
            "chaos", "--scenario", "compression-attack", "--frames", "1000",
            "--trials", "2", "--cameras", "3", "--severities", "0.3",
            "--run-ledger", str(ledger),
        ])
        assert code == 0
        from repro.system.observe import latest_run

        record = latest_run(ledger)
        assert record["facts"]["scenario"] == "compression-attack"
        assert record["facts"]["sentinel"]["verdict"] == "detected"
        assert record["facts"]["sentinel"]["fpr"] == 0.0
        events = [e for e in record["events"] if e["event"] == "chaos.scenario"]
        assert events and events[0]["scenario"] == "compression-attack"
