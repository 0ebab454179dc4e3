"""Characterization test: seeded profiler outputs pinned byte for byte.

Every route that prices a degradation setting — the §5.3.1 hypercube
sweep, the trial-split sampling profile, a single seeded plan, and the
daemon's ``/profile`` miss — must keep its seeded outputs bit-identical
across refactors of the pricing kernels. This test pins, against
``cube_golden.json``:

- the sha256 of each cube's ``bounds`` and ``values`` bytes and the
  ledger's ``by_resolution`` counts, for AVG, AVG with a correction set
  (Eq. 12), MAX with a correction set (Eq. 13), COUNT, a removal combo
  and an early-stopped sweep, each at workers 1 and 2;
- the sha256 of a trial-split sampling profile at workers 1 and 2;
- exact ``estimate_plan_seeded`` points;
- one ``/profile`` response body (timing fields dropped).

Regenerate the file only when an output change is intended::

    PYTHONPATH=src python tests/core/test_cube_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("cube_golden.json")

FRAMES = 2000
FRACTIONS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
TRIALS = 5

#: Cube runs: name -> (aggregate, correction?, removals, early-stop tolerance).
_CUBES = {
    "avg": ("AVG", False, ((),), None),
    "avg-correction": ("AVG", True, ((),), None),
    "max-correction": ("MAX", True, ((),), None),
    "count": ("COUNT", False, ((),), None),
    "removal": ("AVG", False, ((), ("PERSON",), ("PERSON", "FACE")), None),
    "early-stop": ("AVG", False, ((),), 0.02),
}

#: Single seeded plans: name -> (aggregate, knobs, correction?).
_PLANS = {
    "avg": ("AVG", {"f": 0.1}, False),
    "sum-resolution": ("SUM", {"f": 0.05, "p": 256}, False),
    "avg-correction": ("AVG", {"f": 0.02}, True),
    "max-resolution-correction": ("MAX", {"f": 0.1, "p": 256}, True),
    "var-correction": ("VAR", {"f": 0.5}, True),
}

#: The ``/profile`` request priced by the golden daemon session.
_PROFILE_PAYLOAD = {
    "dataset": "ua-detrac",
    "trials": 3,
    "fraction_step": 0.25,
    "resolution_count": 3,
    "seed": 5,
}
_PROFILE_FRAMES = 1203

#: Wall-clock fields of a ``/profile`` body, which differ run to run.
_TIMING = ("cached", "profile_seconds")


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _ledger_counts(ledger) -> dict[str, int]:
    return {str(side): count for side, count in sorted(ledger.by_resolution().items())}


def _query(aggregate: str):
    from repro.detection import yolo_v4_like
    from repro.query import Aggregate, AggregateQuery
    from repro.video import ua_detrac

    return AggregateQuery(
        ua_detrac(frame_count=FRAMES), yolo_v4_like(), Aggregate[aggregate]
    )


def _correction(processor, query):
    from repro.core.correction import determine_correction_set

    return determine_correction_set(processor, query, 12345)


def _executor(workers: int):
    from repro.system.executor import ExecutorConfig, ParallelExecutor

    return ParallelExecutor(ExecutorConfig(workers=workers))


def _cube(name: str, workers: int) -> dict:
    from repro.core.candidates import CandidateGrid
    from repro.core.profiler import DegradationProfiler
    from repro.detection import default_suite
    from repro.query import QueryProcessor
    from repro.system.costs import InvocationLedger
    from repro.video import ObjectClass
    from repro.video.geometry import resolution_grid

    aggregate, corrected, removals, tolerance = _CUBES[name]
    query = _query(aggregate)
    processor = QueryProcessor(default_suite())
    grid = CandidateGrid(
        fractions=FRACTIONS,
        resolutions=tuple(resolution_grid(query.dataset.native_resolution, 3)),
        removals=tuple(
            tuple(ObjectClass[label] for label in combo) for combo in removals
        ),
    )
    ledger = InvocationLedger()
    profiler = DegradationProfiler(processor, trials=TRIALS, ledger=ledger)
    cube = profiler.generate_hypercube_seeded(
        query,
        grid,
        root=7,
        correction=_correction(processor, query) if corrected else None,
        early_stop_tolerance=tolerance,
        executor=_executor(workers),
    )
    return {
        "bounds": _digest(cube.bounds),
        "values": _digest(cube.values),
        "by_resolution": _ledger_counts(ledger),
    }


def _sampling(workers: int) -> dict:
    from repro.core.profiler import DegradationProfiler
    from repro.detection import default_suite
    from repro.query import QueryProcessor
    from repro.system.costs import InvocationLedger

    query = _query("AVG")
    ledger = InvocationLedger()
    profiler = DegradationProfiler(
        QueryProcessor(default_suite()), trials=TRIALS, ledger=ledger
    )
    profile = profiler.profile_sampling_seeded(
        query, FRACTIONS, root=(3, 1), executor=_executor(workers)
    )
    return {
        "bounds": _digest(np.array(profile.error_bounds())),
        "values": _digest(np.array([point.value for point in profile.points])),
        "sizes": [point.n for point in profile.points],
        "by_resolution": _ledger_counts(ledger),
    }


def _plans() -> dict:
    from repro.core.profiler import DegradationProfiler
    from repro.detection import default_suite
    from repro.interventions import InterventionPlan
    from repro.query import QueryProcessor

    processor = QueryProcessor(default_suite())
    profiler = DegradationProfiler(processor, trials=TRIALS)
    points = {}
    for index, (name, (aggregate, knobs, corrected)) in enumerate(
        sorted(_PLANS.items())
    ):
        query = _query(aggregate)
        point = profiler.estimate_plan_seeded(
            query,
            InterventionPlan.from_knobs(**knobs),
            root=9,
            unit_index=index,
            correction=_correction(processor, query) if corrected else None,
        )
        points[name] = {
            "value": point.value,
            "error_bound": point.error_bound,
            "n": point.n,
        }
    return points


def _profile_body() -> dict:
    from repro.system.serve import QueryRequest, ServeConfig, ServeSession

    session = ServeSession(
        ServeConfig(datasets=("ua-detrac",), frames=_PROFILE_FRAMES, workers=1)
    )
    try:
        request = QueryRequest.from_payload(
            "profile", dict(_PROFILE_PAYLOAD), session.config
        )
        body = session.profile_request(request)
    finally:
        session.shutdown()
    for key in _TIMING:
        body.pop(key, None)
    return body


def _outputs() -> dict:
    return {
        "cubes": {name: _cube(name, workers=1) for name in _CUBES},
        "sampling": _sampling(workers=1),
        "plans": _plans(),
        "profile": _profile_body(),
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(_CUBES))
def test_cube_matches_golden(golden, name, workers):
    assert _canonical(_cube(name, workers)) == _canonical(golden["cubes"][name])


@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_profile_matches_golden(golden, workers):
    assert _canonical(_sampling(workers)) == _canonical(golden["sampling"])


def test_plan_points_match_golden(golden):
    assert _canonical(_plans()) == _canonical(golden["plans"])


def test_profile_body_matches_golden(golden):
    assert _canonical(_profile_body()) == _canonical(golden["profile"])


if __name__ == "__main__":
    GOLDEN.write_text(_canonical(_outputs()) + "\n")
    print(f"wrote {GOLDEN}")
