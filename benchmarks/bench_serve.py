"""The serving daemon against the cold CLI, and micro-batching at work.

Runs an in-process :class:`~repro.system.serve.ServeDaemon` on an
ephemeral port and measures, on the same UA-DETRAC AVG query:

- **warm request latency** — p50/p99 and requests/sec of sequential
  ``/bound`` requests against the hot daemon (corpus, detector outputs,
  moments all resident),
- **micro-batching** — 8 compatible concurrent requests per round must
  finish with *fewer kernel calls than requests* (the session's
  ``batched_kernel_calls`` counter proves coalescing) and every answer
  must be **bit-identical** to the same seeds served sequentially,
- **cold CLI cost** — one fresh ``repro estimate`` and one fresh
  ``repro profile`` subprocess paying import + corpus build + detection
  from scratch, the overhead the daemon amortizes away.

The acceptance ratio (warm p50 at least 5x below the cold CLI) holds on
a single CPU: the win is amortization and coalescing, not parallelism.
Results land machine-readably in ``BENCH_serve.json`` at the repo root,
and the run's ledger record (``serve_runs.jsonl``, annotated with
``facts.serve.*``) feeds the ``repro runs check`` gate against the
pinned ``benchmarks/serve_baseline.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.system import telemetry
from repro.system.observe import ledger as run_ledger
from repro.system.serve import ServeConfig, ServeDaemon, post_json

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serve.json"

#: Reduced corpus shared by the daemon and the cold CLI subprocesses —
#: identical work on both sides keeps the comparison honest.
FRAMES = 2000

#: Sequential warm requests timed for the p50/p99 latency distribution.
SEQUENTIAL_REQUESTS = 40

#: Concurrent compatible requests per micro-batching round.
CONCURRENT_CLIENTS = 8

#: Micro-batching rounds (each fires CONCURRENT_CLIENTS at once).
CONCURRENT_ROUNDS = 5

_PAYLOAD = {
    "dataset": "ua-detrac",
    "aggregate": "avg",
    "fraction": 0.25,
    "tenant": "bench",
}

_PROFILE_PAYLOAD = {
    "dataset": "ua-detrac",
    "aggregate": "avg",
    "trials": 1,
    "fraction_step": 0.25,
    "resolution_count": 3,
    "tenant": "bench",
}


def _cold_cli_seconds(arguments: list[str]) -> float:
    """Wall seconds of one fresh ``repro`` CLI subprocess."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        check=True,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


async def _bench_daemon() -> dict:
    """Drive the in-process daemon through every warm regime."""
    config = ServeConfig(
        port=0,
        datasets=("ua-detrac",),
        frames=FRAMES,
    )
    daemon = ServeDaemon(config)
    warmup_started = time.perf_counter()
    port = await daemon.start()
    warmup_seconds = time.perf_counter() - warmup_started

    async def bound(seed: int) -> tuple[float, dict]:
        started = time.perf_counter()
        status, body = await post_json(
            "127.0.0.1", port, "/bound", {**_PAYLOAD, "seed": seed}
        )
        assert status == 200, body
        return time.perf_counter() - started, body

    # Sequential warm latency: one request in flight at a time, each a
    # 1-row pass through the same batched kernel.
    sequential_latencies: list[float] = []
    serial_bounds: dict[int, float] = {}
    for seed in range(SEQUENTIAL_REQUESTS):
        latency, body = await bound(seed)
        sequential_latencies.append(latency)
        serial_bounds[seed] = body["error_bound"]
        assert body["batch_size"] == 1, body

    kernel_calls_before = daemon.session.stats["kernel_calls"]
    batched_before = daemon.session.stats["batched_kernel_calls"]

    # Concurrent compatible load: every round fires CONCURRENT_CLIENTS
    # requests at once; the batcher must coalesce them.
    concurrent_latencies: list[float] = []
    concurrent_bounds: dict[int, float] = {}
    for round_index in range(CONCURRENT_ROUNDS):
        seeds = list(range(CONCURRENT_CLIENTS))
        results = await asyncio.gather(*(bound(seed) for seed in seeds))
        for seed, (latency, body) in zip(seeds, results):
            concurrent_latencies.append(latency)
            concurrent_bounds[seed] = body["error_bound"]

    concurrent_requests = CONCURRENT_CLIENTS * CONCURRENT_ROUNDS
    concurrent_kernel_calls = (
        daemon.session.stats["kernel_calls"] - kernel_calls_before
    )
    batched_kernel_calls = (
        daemon.session.stats["batched_kernel_calls"] - batched_before
    )

    # Bit-identity: a coalesced row answers exactly what the same seed
    # answered when served alone.
    identical = all(
        concurrent_bounds[seed] == serial_bounds[seed]
        for seed in range(CONCURRENT_CLIENTS)
    )

    # Warm profile latency: the first request prices the hypercube, the
    # rest ride the fingerprint cache.
    profile_latencies: list[float] = []
    for _ in range(4):
        started = time.perf_counter()
        status, body = await post_json(
            "127.0.0.1", port, "/profile", _PROFILE_PAYLOAD, timeout=600
        )
        profile_latencies.append(time.perf_counter() - started)
        assert status == 200, body
    profile_first_seconds = profile_latencies[0]
    profile_cached_seconds = statistics.median(profile_latencies[1:])

    stats = daemon.session.snapshot_stats()
    await daemon.stop()

    return {
        "port": port,
        "warmup_seconds": round(warmup_seconds, 4),
        "sequential_latencies": sequential_latencies,
        "concurrent_latencies": concurrent_latencies,
        "concurrent_requests": concurrent_requests,
        "concurrent_kernel_calls": concurrent_kernel_calls,
        "batched_kernel_calls": batched_kernel_calls,
        "bit_identical": identical,
        "profile_first_seconds": round(profile_first_seconds, 4),
        "profile_cached_seconds": round(profile_cached_seconds, 6),
        "counters": stats["counters"],
    }


def _quantile(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def test_serve_daemon_vs_cold_cli(benchmark):
    ledger_path = os.environ.get("REPRO_SERVE_LEDGER", "serve_runs.jsonl")
    was_enabled = telemetry.enabled()
    if not was_enabled:
        telemetry.enable()
    run_ledger.begin_run(
        "serve",
        {"frames": FRAMES, "benchmark": "serve"},
        ledger_path,
    )
    outcome: dict = {}

    def all_regimes() -> None:
        outcome["daemon"] = asyncio.run(_bench_daemon())
        outcome["cold_cli_estimate_seconds"] = _cold_cli_seconds(
            [
                "estimate", "--dataset", "ua-detrac", "--frames",
                str(FRAMES), "--fraction", "0.25", "--seed", "0",
            ]
        )
        outcome["cold_cli_profile_seconds"] = _cold_cli_seconds(
            [
                "profile", "--dataset", "ua-detrac", "--frames",
                str(FRAMES), "--trials", "1", "--fraction-step", "0.25",
                "--resolution-count", "3", "--no-correction",
                "--output", "/tmp/bench_serve_cube.json",
            ]
        )

    status = "error"
    try:
        benchmark.pedantic(all_regimes, rounds=1, iterations=1)

        daemon = outcome["daemon"]
        sequential = daemon["sequential_latencies"]
        concurrent = daemon["concurrent_latencies"]
        p50_warm = _quantile(sequential, 0.50)
        p99_warm = _quantile(sequential, 0.99)
        p50_concurrent = _quantile(concurrent, 0.50)
        p99_concurrent = _quantile(concurrent, 0.99)
        requests_per_second = len(sequential) / sum(sequential)
        coalescing_ratio = (
            daemon["concurrent_requests"] / daemon["concurrent_kernel_calls"]
        )
        cold_estimate = outcome["cold_cli_estimate_seconds"]
        cold_profile = outcome["cold_cli_profile_seconds"]
        speedup_estimate = cold_estimate / p50_warm
        speedup_profile = cold_profile / daemon["profile_cached_seconds"]

        serve_facts = {
            "p50_warm_seconds": round(p50_warm, 6),
            "p99_warm_seconds": round(p99_warm, 6),
            "p50_concurrent_seconds": round(p50_concurrent, 6),
            "p99_concurrent_seconds": round(p99_concurrent, 6),
            "requests_per_second": round(requests_per_second, 2),
            "cold_cli_seconds": round(cold_estimate, 4),
            "cold_cli_profile_seconds": round(cold_profile, 4),
            "speedup_cold_over_warm": round(speedup_estimate, 2),
            "speedup_profile_cold_over_warm": round(speedup_profile, 2),
            "coalescing_ratio": round(coalescing_ratio, 3),
            "concurrent_requests": daemon["concurrent_requests"],
            "concurrent_kernel_calls": daemon["concurrent_kernel_calls"],
            "batched_kernel_calls": daemon["batched_kernel_calls"],
            "bit_identical": daemon["bit_identical"],
        }
        run_ledger.annotate(serve=serve_facts)

        payload = {
            "benchmark": "serve",
            "query": "UA-DETRAC AVG, f=0.25, smokescreen bound",
            "cpu_count": os.cpu_count(),
            "frames": FRAMES,
            "note": (
                "warm = in-process daemon on an ephemeral port (corpus, "
                "detector outputs and pool resident); cold = fresh "
                "'repro estimate'/'repro profile' subprocess on the same "
                "query; concurrent rounds fire "
                f"{CONCURRENT_CLIENTS} compatible requests at once"
            ),
            "warmup_seconds": daemon["warmup_seconds"],
            "sequential": {
                "requests": len(sequential),
                "p50_seconds": round(p50_warm, 6),
                "p99_seconds": round(p99_warm, 6),
                "requests_per_second": round(requests_per_second, 2),
            },
            "concurrent": {
                "clients": CONCURRENT_CLIENTS,
                "rounds": CONCURRENT_ROUNDS,
                "requests": daemon["concurrent_requests"],
                "kernel_calls": daemon["concurrent_kernel_calls"],
                "batched_kernel_calls": daemon["batched_kernel_calls"],
                "coalescing_ratio": round(coalescing_ratio, 3),
                "p50_seconds": round(p50_concurrent, 6),
                "p99_seconds": round(p99_concurrent, 6),
                "bit_identical_to_serial": daemon["bit_identical"],
            },
            "profile": {
                "first_seconds": daemon["profile_first_seconds"],
                "cached_seconds": daemon["profile_cached_seconds"],
                "cold_cli_seconds": round(cold_profile, 4),
                "speedup_cold_over_cached": round(speedup_profile, 2),
            },
            "cold_cli_estimate_seconds": round(cold_estimate, 4),
            "speedup_cold_cli_over_warm_p50": round(speedup_estimate, 2),
            "session_counters": daemon["counters"],
        }
        OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT_PATH}")
        print(json.dumps(payload, indent=2))

        # Acceptance: the warm daemon answers the same query >= 5x faster
        # than a fresh CLI process (amortization, not parallelism).
        assert speedup_estimate >= 5.0, payload
        assert speedup_profile >= 5.0, payload
        # Micro-batching: N concurrent compatible requests take fewer
        # kernel calls than N sequential ones would (one call each), and
        # at least one call actually carried a coalesced batch.
        assert (
            daemon["concurrent_kernel_calls"] < daemon["concurrent_requests"]
        ), payload
        assert daemon["batched_kernel_calls"] >= 1, payload
        # Determinism: coalesced answers match the serial path bit for bit.
        assert daemon["bit_identical"], payload
        status = "ok"
    finally:
        run_ledger.finish_run(
            status=status,
            exit_code=0 if status == "ok" else 1,
            snapshot=telemetry.registry().snapshot()
            if telemetry.enabled()
            else None,
        )
        if not was_enabled and telemetry.enabled():
            telemetry.disable()
