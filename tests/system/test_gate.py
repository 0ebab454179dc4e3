"""The table-driven regression gate: oracle parity, loud non-finite values,
and what each CI gate step actually checks."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _gate_thresholds, build_parser, main
from repro.system.observe import (
    GateThresholds,
    append_record,
    check_run,
)
from repro.system.observe.gate import METRICS
from tests import gate_oracle

ROOT = Path(__file__).resolve().parents[2]
RUN_BASELINE = ROOT / "benchmarks" / "run_baseline.json"

GATED = tuple(metric for metric in METRICS if metric.threshold is not None)

# Record values of every kind ``_lookup`` must sort out: missing (None),
# bools and strings (not numbers), zero and negative baselines, and a few
# shared values so baseline and candidate often tie or sit at a limit.
values = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, -1.0, 0.5, 0.88, 0.9, 1, 1.0, 10.0]),
)


@st.composite
def records(draw) -> dict:
    record: dict = {}
    for metric in GATED:
        if draw(st.booleans()):
            continue
        *parents, leaf = metric.path.split(".")
        node = record
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = draw(values)
    if draw(st.integers(0, 9)) == 0:
        # A scalar where a sub-record belongs hides every path below it.
        record[draw(st.sampled_from(["metrics", "bounds", "facts"]))] = (
            draw(values)
        )
    return record


limits = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1.0, 1.001, 10.0]),
)
thresholds = st.one_of(
    st.none(),
    st.just(GateThresholds()),
    st.builds(
        GateThresholds,
        **{f.name: limits for f in dataclasses.fields(GateThresholds)},
    ),
)


def decisions(result) -> tuple:
    return (
        result.passed,
        set(result.checked),
        {
            v.metric: (v.limit, v.baseline, v.candidate)
            for v in result.violations
        },
    )


class TestOracleParity:
    @settings(max_examples=2000, deadline=None)
    @given(records(), records(), thresholds)
    def test_table_gate_matches_unrolled_gate(
        self, baseline, candidate, limits
    ):
        assert decisions(check_run(baseline, candidate, limits)) == (
            decisions(gate_oracle.check_run(baseline, candidate, limits))
        )

    def test_every_threshold_gates_exactly_one_row(self):
        fields = [f.name for f in dataclasses.fields(GateThresholds)]
        gating = [metric.threshold for metric in GATED]
        assert sorted(gating) == sorted(fields)

    def test_labels_are_unique(self):
        labels = [metric.label for metric in METRICS]
        assert len(labels) == len(set(labels))


class TestNonFinite:
    """NaN compares false with everything, so it must fail by itself."""

    @pytest.mark.parametrize(
        "path",
        ["wall_seconds", "bounds.max_width", "metrics.cache_hit_ratio"],
    )
    @pytest.mark.parametrize("side", ["baseline", "candidate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gated_value_fails(self, path, side, value):
        pair = {
            "baseline": json.loads(RUN_BASELINE.read_text()),
            "candidate": json.loads(RUN_BASELINE.read_text()),
        }
        *parents, leaf = path.split(".")
        node = pair[side]
        for key in parents:
            node = node[key]
        node[leaf] = value
        result = check_run(pair["baseline"], pair["candidate"])
        assert not result.passed
        label = next(m.label for m in METRICS if m.path == path)
        assert [v.metric for v in result.violations] == [label]

    def test_ungated_non_finite_values_are_ignored(self):
        record = json.loads(RUN_BASELINE.read_text())
        candidate = json.loads(RUN_BASELINE.read_text())
        candidate["metrics"]["cache_hits"] = math.nan
        candidate["facts"] = {"serve": {"speedup_cold_over_warm": math.nan}}
        assert check_run(record, candidate).passed

    def test_nan_read_back_from_a_ledger_fails_the_cli_gate(
        self, tmp_path, capsys
    ):
        candidate = json.loads(RUN_BASELINE.read_text())
        candidate["wall_seconds"] = math.nan
        ledger = tmp_path / "runs.jsonl"
        append_record(ledger, candidate)
        code = main([
            "runs", "check", "--ledger", str(ledger),
            "--baseline", str(RUN_BASELINE),
        ])
        assert code == 1
        assert "wall_seconds: non-finite value" in capsys.readouterr().out


def ci_gate_steps() -> list[list[str]]:
    """The argument lists of every ``repro runs check`` step in CI."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = re.findall(
        r"python -m repro (runs check(?:[^\n]*\\\n)*[^\n]*)", workflow
    )
    return [shlex.split(step.replace("\\\n", " ")) for step in steps]


#: What each CI gate compares today. A baseline re-pinned without one of
#: these facts would silently stop gating it; this pins the set.
CI_CHECKED = {
    "run_baseline.json": {
        "wall_seconds", "model_invocations", "max_bound_width",
        "cache_hit_ratio", "executor_fallbacks",
    },
    "chaos_baseline.json": {
        "wall_seconds", "sentinel_recall", "sentinel_fpr",
        "executor_fallbacks",
    },
    "serve_baseline.json": {
        "wall_seconds", "model_invocations", "max_bound_width",
        "executor_fallbacks", "serve_speedup", "serve_coalescing_ratio",
        "serve_p99_warm_seconds",
    },
    "stream_baseline.json": {
        "wall_seconds", "executor_fallbacks", "stream_frames_per_sec",
    },
}


class TestCIGates:
    def test_every_pinned_baseline_has_a_ci_gate(self):
        gated = {
            Path(build_parser().parse_args(argv).baseline).name
            for argv in ci_gate_steps()
        }
        assert gated == set(CI_CHECKED)

    @pytest.mark.parametrize(
        "argv",
        ci_gate_steps(),
        ids=lambda argv: argv[argv.index("--baseline") + 1],
    )
    def test_ci_gate_checks_its_pinned_facts(self, argv):
        args = build_parser().parse_args(argv)
        baseline = json.loads((ROOT / args.baseline).read_text())
        result = check_run(baseline, baseline, _gate_thresholds(args))
        assert result.passed
        assert set(result.checked) == CI_CHECKED[Path(args.baseline).name]
