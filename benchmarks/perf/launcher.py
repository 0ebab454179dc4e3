"""Child-process entry points of the benchmark.

``serve``  runs the daemon with its defaults, after wrapping the layers'
           public functions with in-memory spans (traced runs only; the
           untraced daemon is started through ``python -m repro serve``).
``sweep``  runs the §5.3.1 hypercube sweep workload in-process.

Both print a line when ready. The sweep child then waits for ``run``
on stdin, sweeps for the given seconds, re-runs its first roots as the
correctness oracle and prints one JSON result line: the start and end
of every timed sweep, the phase, and the oracle's mismatch count. With
``--trace-out`` the spans are written there when the child ends.

Run from the repository root with ``PYTHONPATH=src``; ``run.py`` does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import Recorder, install

#: Sweeps whose cubes are recomputed after timing and compared bit for bit.
ORACLE_SWEEPS = 3

#: Spawn-key coordinate of the set-up (cache filling) sweep's root.
FILL_ROOT = 1 << 30


def serve(args, recorder: Recorder | None) -> int:
    started = time.perf_counter()
    from repro.system.serve import ServeConfig, run_daemon

    if recorder is not None:
        recorder.record("setup.import", started, time.perf_counter())
        install(recorder)
    try:
        return run_daemon(ServeConfig(port=0, workers=args.workers))
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


def sweep(args, recorder: Recorder | None) -> int:
    started = time.perf_counter()
    from repro.core.candidates import CandidateGrid, fraction_candidates
    from repro.core.profiler import DegradationProfiler
    from repro.detection import diskcache
    from repro.experiments.workloads import UA_DETRAC, Workload, shared_suite
    from repro.query.aggregates import Aggregate
    from repro.query.processor import QueryProcessor
    from repro.system.executor import ExecutorConfig, ParallelExecutor
    from repro.video.geometry import resolution_grid

    imported = time.perf_counter()
    if recorder is not None:
        recorder.record("setup.import", started, imported)
        install(recorder)
    diskcache.activate(args.cache_dir)
    query = Workload(UA_DETRAC, Aggregate.AVG).query()
    grid = CandidateGrid(
        fractions=fraction_candidates(step=0.01, maximum=0.04),
        resolutions=tuple(
            resolution_grid(query.dataset.native_resolution, 10)
        ),
        removals=((),),
    )
    profiler = DegradationProfiler(QueryProcessor(shared_suite()), trials=100)
    executor = ParallelExecutor(ExecutorConfig(workers=1))

    def run_sweep(index: int):
        """One timed sweep; it reads detector outputs from the disk cache."""
        query.model.clear_cache()
        tick = time.perf_counter()
        cube = profiler.generate_hypercube_seeded(
            query, grid, root=(args.seed, index), executor=executor
        )
        return cube, (tick, time.perf_counter())

    fill_started = time.perf_counter()
    run_sweep(FILL_ROOT)
    if recorder is not None:
        recorder.record("setup.cache_fill", fill_started, time.perf_counter())
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    spans: list[tuple] = []
    cubes = []
    phase_start = time.perf_counter()
    deadline = phase_start + float(command[1])
    while time.perf_counter() < deadline:
        cube, span = run_sweep(len(spans))
        spans.append(span)
        if len(cubes) < ORACLE_SWEEPS:
            cubes.append(cube)
    phase_end = time.perf_counter()
    mismatches = sum(
        not _same_cube(cube, run_sweep(index)[0])
        for index, cube in enumerate(cubes)
    )
    print(json.dumps({
        "spans": spans,
        "phase": [phase_start, phase_end],
        "oracle_failed": mismatches,
    }), flush=True)
    if recorder is not None:
        recorder.dump(args.trace_out)
    return 0


def _same_cube(a, b) -> bool:
    return (
        a.bounds.tobytes() == b.bounds.tobytes()
        and a.values.tobytes() == b.values.tobytes()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("serve", "sweep"))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    recorder = Recorder() if args.trace_out else None
    if args.mode == "serve":
        return serve(args, recorder)
    return sweep(args, recorder)


if __name__ == "__main__":
    sys.exit(main())
