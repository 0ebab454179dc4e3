"""Characterization test: live-feed outputs pinned byte for byte.

Every path that arms a sentinel over a feed — the ``repro stream``
replay, the daemon's ``/stream`` session, and the chaos sweep's
per-camera arming — must keep its seeded outputs bit-identical across
refactors. This test pins the canonical JSON (sorted keys, exact float
reprs, timing fields dropped) of each against ``stream_golden.json``.

Regenerate the file only when an output change is intended::

    PYTHONPATH=src python tests/system/test_stream_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("stream_golden.json")

#: Wall-clock fields, which differ run to run.
_TIMING = ("wall_seconds", "ingest_seconds", "frames_per_sec")

#: Replay runs on ua-detrac/2000: name -> StreamConfig overrides.
_REPLAYS = {
    "clean-windowed": {},
    "weather-windowed": {"scenario": "weather", "severity": 0.95},
    "decayed": {"estimator": "decayed"},
    "cumulative": {"estimator": "cumulative"},
}

#: The scripted ``/stream`` session's corpus size: ``1203 // 2`` (serve's
#: profiled-sample rule) differs from ``round(0.5 * 1203)`` (replay's).
_SERVE_FRAMES = 1203


def _replay(overrides: dict) -> dict:
    from repro.system.stream import StreamConfig, replay_stream

    report = replay_stream(
        StreamConfig(dataset="ua-detrac", frames=2000, **overrides)
    )
    payload = report.as_payload()
    for key in _TIMING:
        del payload[key]
    return {
        "windows": [dataclasses.asdict(window) for window in report.windows],
        "payload": payload,
        "verdict": report.verdict.as_payload(),
        "reference_value": report.reference_value,
    }


def _serve_session() -> list[dict]:
    from repro.experiments.workloads import load_dataset, model_for
    from repro.system.serve import ServeConfig, ServeSession

    session = ServeSession(
        ServeConfig(datasets=("ua-detrac",), frames=_SERVE_FRAMES, workers=1)
    )
    try:
        dataset = load_dataset("ua-detrac", _SERVE_FRAMES)
        clean = model_for("ua-detrac").run(dataset).counts.astype(float)
        feed = clean[np.random.default_rng(11).permutation(clean.size)]
        bodies = [session.stream_open({"tenant": "golden"})]
        stream_id = bodies[0]["id"]
        for start in range(0, 600, 200):
            bodies.append(session.stream_ingest(
                {"id": stream_id, "values": feed[start:start + 200].tolist()}
            ))
        for _ in range(2):
            bodies.append(session.stream_ingest(
                {"id": stream_id, "values": [0.0] * 200}
            ))
        bodies.append(session.stream_readout(stream_id))
        bodies.append(session.stream_open(
            {"tenant": "golden", "profiled_bound": 0.05, "window": 100}
        ))
        return bodies
    finally:
        session.shutdown()


def _chaos_arm() -> dict:
    from repro.experiments.chaos_sweep import (
        _arm_sentinel,
        _build_cameras,
        _clean_truths,
    )
    from repro.experiments.workloads import shared_suite
    from repro.query.processor import QueryProcessor

    cameras = _build_cameras(4, 600, 0.5)
    processor = QueryProcessor(shared_suite())
    sentinel, profiled = _arm_sentinel(
        cameras, processor, _clean_truths(cameras), 0.05, 3
    )
    return {
        "profiled": profiled,
        "corrections": {
            name: dataclasses.asdict(estimate)
            for name, estimate in sentinel._corrections.items()
        },
    }


def _outputs() -> dict:
    return {
        "replay": {name: _replay(knobs) for name, knobs in _REPLAYS.items()},
        "serve": _serve_session(),
        "chaos": _chaos_arm(),
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_REPLAYS))
def test_replay_matches_golden(golden, name):
    assert _canonical(_replay(_REPLAYS[name])) == _canonical(
        golden["replay"][name]
    )


def test_serve_session_matches_golden(golden):
    bodies = _serve_session()
    assert bodies[5]["verdict"]["tripped"]  # the zeros tripped it
    assert _canonical(bodies) == _canonical(golden["serve"])


def test_chaos_arming_matches_golden(golden):
    assert _canonical(_chaos_arm()) == _canonical(golden["chaos"])


if __name__ == "__main__":
    GOLDEN.write_text(_canonical(_outputs()) + "\n")
    print(f"wrote {GOLDEN}")
