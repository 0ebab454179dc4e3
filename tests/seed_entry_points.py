"""Every seeded entry point, run small and reduced to canonical JSON.

Each entry takes an int root (a ``seed``) and draws below it through
``child_rng`` keys. :data:`ENTRY_POINTS` maps a name to a callable of the
worker count that runs the entry point on a small corpus and returns a
JSON-able result. Two tests use the table:

- ``tests/system/test_seed_determinism.py`` runs this file as a script
  in fresh processes, twice at workers 1 and 2, and compares the output;
- ``tests/system/test_seed_keys.py`` records every stream each entry
  point draws and checks that no two draw sites share one.

Run it by hand with::

    PYTHONPATH=src python tests/seed_entry_points.py --workers 2
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import io
import json
import sys
from typing import Callable

import numpy as np

SEED = 5
FRAMES = 600
TRIALS = 2


def _jsonable(value):
    """``json.dumps`` default: numpy, dataclasses and enums as plain data."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {
            field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)
        }
    raise TypeError(f"cannot encode {type(value).__name__}")


def canonical(value) -> str:
    """Sorted-key JSON with exact float reprs."""
    return json.dumps(value, sort_keys=True, default=_jsonable)


def _query(aggregate: str = "AVG"):
    from repro.experiments.workloads import load_dataset, model_for
    from repro.query import Aggregate, AggregateQuery

    return AggregateQuery(
        load_dataset("ua-detrac", FRAMES), model_for("ua-detrac"),
        Aggregate[aggregate],
    )


def _processor():
    from repro.experiments.workloads import shared_suite
    from repro.query import QueryProcessor

    return QueryProcessor(shared_suite())


def _correction_set(workers: int):
    from repro.core.correction import determine_correction_set

    return determine_correction_set(_processor(), _query(), SEED)


def _workload(workers: int):
    from repro.core.workload import QueryWorkload

    workload = QueryWorkload(
        [_query("AVG"), _query("COUNT")], _processor(), trials=TRIALS
    )
    correction = workload.build_shared_correction_set(SEED)
    profiles = workload.profile_sampling((0.05, 0.2), SEED, correction)
    return {
        "correction": correction.frame_indices,
        "profiles": {
            label: profile.error_bounds() for label, profile in profiles.items()
        },
    }


def _smokescreen(workers: int):
    from repro.core.smokescreen import Smokescreen
    from repro.experiments.workloads import load_dataset, model_for
    from repro.interventions import InterventionPlan

    system = Smokescreen(
        load_dataset("ua-detrac", FRAMES), model_for("ua-detrac"),
        trials=TRIALS, seed=SEED, workers=workers,
    )
    query = system.query(_query().aggregate)
    correction = system.build_correction_set(query)
    grid = system.candidates(fraction_step=0.5, resolution_count=2)
    cubes = [system.profile(query, grid, correction) for _ in range(2)]
    plan = InterventionPlan.from_knobs(f=0.1)
    estimates = [system.estimate(query, plan) for _ in range(2)]
    return {
        "correction": correction.frame_indices,
        "cubes": [cube.bounds for cube in cubes],
        "estimates": estimates,
    }


def _stream_arm(workers: int):
    from repro.system.stream import StreamSession, price_sample

    values = _processor().true_values(_query())
    session = StreamSession.arm(values, SEED, FRAMES // 2, delta=0.05)
    return {
        "profiled_bound": session.profiled_bound,
        "correction": price_sample(values, 0.05, SEED),
    }


def _replay(workers: int):
    from repro.system.stream import StreamConfig, replay_stream

    report = replay_stream(
        StreamConfig(frames=FRAMES, seed=SEED, scenario="occlusion")
    )
    payload = report.as_payload()
    for key in ("wall_seconds", "ingest_seconds", "frames_per_sec"):
        del payload[key]
    return payload


def _serve(kind: str, payload: dict) -> Callable[[int], object]:
    """One daemon request on a fresh session, without HTTP."""

    def run(workers: int):
        from repro.system.serve import QueryRequest, ServeConfig, ServeSession

        session = ServeSession(
            ServeConfig(datasets=("ua-detrac",), frames=FRAMES, workers=workers)
        )
        try:
            if kind == "stream":
                return session.stream_open(payload)
            request = QueryRequest.from_payload(kind, payload, session.config)
            if kind == "bound":
                return session.estimate_group([request])
            body = session.profile_request(request)
            body.pop("profile_seconds")
            return body
        finally:
            session.shutdown()

    return run


def _cli_estimate(workers: int):
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([
            "estimate", "--dataset", "ua-detrac", "--frames", str(FRAMES),
            "--fraction", "0.1", "--seed", str(SEED),
        ])
    return out.getvalue()


def _fleet(workers: int):
    from repro.experiments.workloads import load_dataset, model_for
    from repro.system import Camera, FleetQueryProcessor
    from repro.system.executor import ExecutorConfig, ParallelExecutor
    from repro.system.faults import FaultModel

    processor = _processor()
    cameras = []
    for index, name in enumerate(("ua-detrac", "night-street")):
        camera = Camera(f"cam{index}", load_dataset(name, FRAMES), processor.suite)
        camera.configure(fraction=0.2)
        cameras.append(camera)
    fleet = FleetQueryProcessor(
        cameras, processor,
        faults=FaultModel(frame_drop_probability=0.1), fault_seed=SEED,
        executor=ParallelExecutor(ExecutorConfig(workers=workers)),
    )
    report = fleet.execute(
        lambda camera: model_for(camera.dataset.name), seed=SEED
    )
    return {"combined": report.combined, "per_camera": report.per_camera}


def _experiment(name: str, **kwargs) -> Callable[[int], object]:
    """A registered experiment's series at the small size."""

    def run(workers: int):
        from repro.experiments.registry import ExperimentRequest, run_experiment

        request = ExperimentRequest(
            frames=FRAMES, trials=TRIALS, seed=SEED, **kwargs
        )
        result = run_experiment(name, request)
        return {"knobs": result.knobs, "series": result.series}

    return run


def _fig6(workers: int):
    from repro.experiments.fig6_profile_repair import run_fig6
    from repro.experiments.workloads import UA_DETRAC
    from repro.query import Aggregate

    result = run_fig6(
        UA_DETRAC, Aggregate.AVG, "resolution", trials=TRIALS,
        frame_count=FRAMES, seed=SEED, workers=workers,
    )
    return result.series


#: Figure 10's two corpora, small.
_FIG10_SIZES = {"frames_a": 400, "frames_b": 300}


def _fig10_sampling(workers: int):
    from repro.experiments.fig10_profile_similarity import run_fig10_sampling

    return run_fig10_sampling(
        trials=TRIALS, sizes=(10, 60), target_frames=200, seed=SEED,
        **_FIG10_SIZES,
    ).series


def _fig10_resolution(workers: int):
    from repro.experiments.fig10_profile_similarity import run_fig10_resolution

    return run_fig10_resolution(
        trials=TRIALS, sides=(128, 320), sample_size=200, seed=SEED,
        **_FIG10_SIZES,
    ).series


def _scenario_chaos(workers: int):
    from repro.experiments.chaos_sweep import run_scenario_chaos

    result = run_scenario_chaos(
        "occlusion", trials=TRIALS, frame_count=FRAMES, seed=SEED,
        severities=(0.7,), camera_count=2, workers=workers,
    )
    return result.series


#: Entry point name -> callable of the worker count.
ENTRY_POINTS: dict[str, Callable[[int], object]] = {
    "determine_correction_set": _correction_set,
    "QueryWorkload": _workload,
    "Smokescreen": _smokescreen,
    "StreamSession.arm": _stream_arm,
    "replay_stream": _replay,
    "serve /bound": _serve("bound", {"fraction": 0.1, "seed": SEED}),
    "serve /profile": _serve("profile", {"seed": SEED, "trials": TRIALS}),
    "serve /stream": _serve("stream", {"seed": SEED}),
    "cli estimate": _cli_estimate,
    "FleetQueryProcessor": _fleet,
    "fig5": _experiment("fig5"),
    "fig6": _fig6,
    "fig7": _experiment("fig7"),
    "fig9": _experiment("fig9"),
    "fig10-sampling": _fig10_sampling,
    "fig10-resolution": _fig10_resolution,
    "ablation-radius": _experiment("ablation-radius"),
    "ablation-replacement": _experiment("ablation-replacement"),
    "ablation-elbow": _experiment("ablation-elbow"),
    "ablation-stratified": _experiment("ablation-stratified"),
    "coverage-audit": _experiment("coverage-audit"),
    "temporal": _experiment("temporal"),
    "var": _experiment("var"),
    "chaos": _experiment("chaos"),
    "scenario-chaos": _scenario_chaos,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    outputs = {
        name: canonical(run(args.workers)) for name, run in ENTRY_POINTS.items()
    }
    from repro.system.executor import shutdown_pool

    shutdown_pool()
    json.dump(outputs, sys.stdout, sort_keys=True, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
