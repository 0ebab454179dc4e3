"""Import hygiene: cold-start paths stay off scipy and off the fleet layer.

A daemon restart or a ``repro`` CLI call pays for every module its import
graph pulls in. scipy is only needed by ``z_score`` (CLT, MAX/MIN, and the
asymptotic VAR bound), which imports it on first call, and the
``repro.system`` package re-exports lazily, so importing one leaf module
(``telemetry``) does not load fleet, faults, camera and resilience. Each
check runs in a fresh interpreter: other tests load scipy into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.system

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(*modules: str) -> set[str]:
    """Names in ``sys.modules`` after importing ``modules`` in a fresh process."""
    code = (
        "import json, sys\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return set(json.loads(result.stdout))


@pytest.mark.parametrize(
    "module", ["repro.system.serve", "repro.cli", "repro.core.profiler"]
)
def test_cold_start_paths_load_no_scipy(module):
    loaded = loaded_after(module)
    assert module in loaded
    assert not {name for name in loaded if name.split(".")[0] == "scipy"}


def test_serve_does_not_load_the_chaos_sweep():
    # Serve arms its feeds through repro.system.stream, which reaches the
    # scenario zoo only when a replay asks for a scenario.
    loaded = loaded_after("repro.system.serve")
    assert "repro.system.stream" in loaded
    assert "repro.experiments.chaos_sweep" not in loaded


def test_diskcache_does_not_load_the_fleet_layer():
    loaded = loaded_after("repro.detection.diskcache")
    assert "repro.system.telemetry" in loaded
    assert "repro.system.fleet" not in loaded


def test_every_system_export_resolves():
    namespace: dict = {}
    exec("from repro.system import *", namespace)
    for name in repro.system.__all__:
        assert namespace[name] is getattr(repro.system, name), name
    assert set(repro.system.__all__) <= set(dir(repro.system))


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.system.NoSuchExport  # noqa: B018
