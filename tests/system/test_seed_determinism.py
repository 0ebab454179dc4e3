"""Same seed, bit-identical output, across fresh processes and workers.

Runs ``tests/seed_entry_points.py`` as a script four times — twice at
workers 1 and twice at workers 2, each in a new interpreter — and checks
that every entry point's canonical JSON is the same in all four runs. A
fresh process has no warm memo, pool or module state, so any draw that
leaked from process state instead of the seed would show here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "seed_entry_points.py"
SRC = Path(__file__).resolve().parents[2] / "src"


def _run(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "--workers", str(workers)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def runs() -> list[dict[str, str]]:
    return [_run(workers) for workers in (1, 1, 2, 2)]


def test_every_entry_point_ran(runs):
    from tests.seed_entry_points import ENTRY_POINTS

    for outputs in runs:
        assert set(outputs) == set(ENTRY_POINTS)


def test_outputs_are_bit_identical(runs):
    first = runs[0]
    for outputs in runs[1:]:
        for name, output in first.items():
            assert outputs[name] == output, name
