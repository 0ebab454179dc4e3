"""Smoke test of the benchmark (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/perf

Runs ``run.py --smoke``: one round of ~1 s phases per workload plus the
traced round, about a minute and a half on a two-CPU host.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, json.loads(out.read_text()), done.stdout


def test_every_metric_is_printed_with_its_unit(smoke):
    spec, report, stdout = smoke
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload in report["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            line = rf"^{re.escape(workload)}\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
            assert re.search(line, stdout, re.M), (workload, metric["name"])


def test_traced_round_emits_every_layer_metric(smoke):
    spec, report, _ = smoke
    for entry in report["workloads"].values():
        assert {m["name"] for m in spec["per_layer"]} == set(entry["layers"])
        for metric in spec["end_to_end"]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_nothing_failed(smoke):
    _, report, _ = smoke
    for name, entry in report["workloads"].items():
        assert entry["attempted"] > 0, name
        assert entry["failed_frac"] == 0, name


@pytest.mark.parametrize("workload", ["bound", "sweep"])
def test_layers_sum_to_the_traced_latency(smoke, workload):
    _, report, _ = smoke
    gap = report["workloads"][workload]["layers"]["trace.sum_gap_frac"]
    assert abs(gap["value"]) < 0.05
