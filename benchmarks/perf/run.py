#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

One workload, as a benchmark harness runs it::

    python3 benchmarks/perf/run.py --workload bound --seed 1 --seconds 12 --trace 0

prints each metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics of BENCHMARK.json, measured untraced; ``--trace
1`` gives its per-layer metrics from a traced run, next to an untraced
run whose latency quartile sets ``trace.overhead_frac``.

A full set, for people comparing commits::

    python3 benchmarks/perf/run.py --seed 1 --out a.json   # 3 rounds + traced
    python3 benchmarks/perf/run.py --seed 1 --smoke        # 1 short round

runs every workload in a fresh process, in interleaved rounds (bound,
stream, sweep, profile-mix, then again), then one traced round, and
writes each metric's value, spread and per-round values for compare.py.

Each run starts the daemon (or the sweep process) three times and
reports the median start-up as ``setup_s``; it measures the last one.
After timing, every answer is checked against an in-process recomputation
(oracles.py); a wrong answer counts as failed and makes the exit code 1.
Everything it writes goes under ``.perf_work/`` at the repository root
and is removed when it ends.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from attribution import UNITS, Trace, layer_metrics, percentile
from loadgen import exchange
from workloads import DAEMON_WORKLOADS, HOST, BenchError, Outcome, post, rid

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("bound", "stream", "sweep", "profile-mix")
SETUP_REPEATS = 3
STARTUP_TIMEOUT = 60.0
ROUNDS = 3

#: The gated statistics read a run's faster quartile: the lower quartile
#: of its latencies and the upper quartile of its block rates. The host
#: runs ~1.7x slower for stretches of a fraction of a second to minutes;
#: the median moves with the share of a run those stretches cover, the
#: faster quartile only once they cover most of it.
LATENCY_Q = 25
LATENCY_METRIC = f"latency_p{LATENCY_Q}_ms"
RATE_Q = 75
#: Shortest stretch of consecutive operations that gives one block rate.
BLOCK_SECONDS = 0.25


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Child:
    """A child process in its own session, read line by line."""

    def __init__(self, argv: list, log: Path) -> None:
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log, start_new_session=True,
        )
        self._buffer = b""
        self.log = log

    def read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError(f"no output within {timeout:.0f}s\n"
                                 f"{self.log_tail()}")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"child exited early\n{self.log_tail()}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def log_tail(self) -> str:
        """The end of the child's stderr (its log is removed with the
        work directory)."""
        return self.log.read_text(errors="replace")[-2000:]

    def send(self, text: str) -> None:
        self.proc.stdin.write(text.encode())
        self.proc.stdin.flush()

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except ProcessLookupError:
            pass

    def close(self, timeout: float = 60.0) -> int:
        """Wait up to ``timeout`` for the child to end, then stop its
        process group (SIGTERM lets the daemon release shared memory;
        SIGKILL follows), and kill anything it left behind."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self._signal(signal.SIGTERM)
            try:
                code = self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self._signal(signal.SIGKILL)
                code = self.proc.wait()
        self._signal(signal.SIGKILL)
        for stream in (self.proc.stdin, self.proc.stdout, self._log):
            stream.close()
        return code


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory under ``.perf_work/``, removed afterwards."""
    path = ROOT / ".perf_work" / name
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


# ---------------------------------------------------------------------------
# One measured run of a workload.
# ---------------------------------------------------------------------------


def start_daemon(workload, workdir: Path, tag: str, trace_out=None):
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(workload.workers)]
    else:
        argv = [sys.executable, str(PERF / "launcher.py"), "serve",
                "--workers", str(workload.workers),
                "--trace-out", str(trace_out)]
    started = time.perf_counter()
    child = Child(argv, workdir / f"{tag}.log")
    try:
        line = child.read_line(STARTUP_TIMEOUT)
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise BenchError(f"unexpected daemon output: {line!r}")
        port = int(match.group(1))
        asyncio.run(workload.warm(port))
    except BaseException:
        child.close(0)
        raise
    return child, port, time.perf_counter() - started


def stop_daemon(child: Child, port: int) -> None:
    try:
        asyncio.run(exchange(HOST, port, post("/shutdown", {}, rid(0, 0))))
    except OSError:
        pass
    if child.close() != 0:
        raise BenchError(f"daemon exited with an error\n{child.log_tail()}")


def run_daemon(name, seed, seconds, setups, workdir, trace_out=None):
    workload = DAEMON_WORKLOADS[name](seed, seconds)
    setup_times = []
    for index in range(setups):
        last = index == setups - 1
        child, port, took = start_daemon(
            workload, workdir, f"{name}-{index}", trace_out if last else None
        )
        setup_times.append(took)
        if not last:
            stop_daemon(child, port)
    try:
        asyncio.run(workload.drive(port))
    finally:
        stop_daemon(child, port)
    return workload.outcome(), setup_times


def run_sweep(seed, seconds, setups, workdir, trace_out=None):
    setup_times = []
    for index in range(setups):
        last = index == setups - 1
        argv = [sys.executable, str(PERF / "launcher.py"), "sweep",
                "--seed", str(seed),
                "--cache-dir", str(workdir / f"cache-{index}")]
        if trace_out is not None and last:
            argv += ["--trace-out", str(trace_out)]
        started = time.perf_counter()
        child = Child(argv, workdir / f"sweep-{index}.log")
        try:
            line = child.read_line(STARTUP_TIMEOUT)
            if line != "ready":
                raise BenchError(f"unexpected sweep output: {line!r}")
            setup_times.append(time.perf_counter() - started)
            if last:
                child.send(f"run {seconds}\n")
                result = json.loads(child.read_line(seconds + 90))
            else:
                child.send("exit\n")
        except BaseException:
            child.close(0)
            raise
        if child.close() != 0:
            raise BenchError(f"sweep child failed\n{child.log_tail()}")
    latencies = [end - start for start, end in result["spans"]]
    outcome = Outcome(
        latencies=latencies,
        work=[(start, end, 1) for start, end in result["spans"]],
        attempted=len(latencies),
        failed=result["oracle_failed"],
        window=tuple(result["phase"]),
        primary=[(None, latency) for latency in latencies],
    )
    return outcome, setup_times


def measure(name, seed, seconds, setups, workdir, trace_out=None):
    if name == "sweep":
        return run_sweep(seed, seconds, setups, workdir, trace_out)
    return run_daemon(name, seed, seconds, setups, workdir, trace_out)


def block_rates(work: list) -> list:
    """Work per second over consecutive stretches of operations.

    Operations are taken in the order they ended; a stretch closes once
    it spans ``BLOCK_SECONDS`` from its first start to its last end, and
    a last, shorter one is dropped.
    """
    rates, amount, first = [], 0.0, None
    for start, end, done in sorted(work, key=lambda op: op[1]):
        first = start if first is None else min(first, start)
        amount += done
        if end - first >= BLOCK_SECONDS:
            rates.append(amount / (end - first))
            amount, first = 0.0, None
    return rates


def ungated(latencies_ms: list) -> dict:
    """Latency statistics reported beside the gated metrics, not gated:
    how much of a run the host spends slowed moves them by 10-75%
    between runs of the same code."""
    return {
        "samples": len(latencies_ms),
        "latency_mean_ms": statistics.fmean(latencies_ms),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "latency_p99_ms": percentile(latencies_ms, 99),
    }


def end_to_end(outcome, setup_times) -> dict:
    return {
        LATENCY_METRIC: percentile(
            [latency * 1e3 for latency in outcome.latencies], LATENCY_Q
        ),
        "throughput_per_s": percentile(block_rates(outcome.work), RATE_Q),
        "setup_s": statistics.median(setup_times),
    }


def layers(name, outcome, trace_path: Path, untraced: float) -> dict:
    """Per-layer metrics of a traced run; ``untraced`` is the gated
    latency quantile of an untraced run, seconds."""
    with open(trace_path, encoding="utf-8") as handle:
        trace = Trace(json.load(handle))
    if name == "sweep":
        # Root hypercube spans: the set-up fill, the timed sweeps, then
        # the oracle re-runs. The timer's residual folds into the root.
        roots = [span for span in trace.layer("core.hypercube")
                 if span[4] is None][1:]
        decompositions = [
            trace.decompose(latency, "core.hypercube", roots=[root])
            for (_, latency), root in zip(outcome.primary, roots)
        ]
    else:
        decompositions = [
            trace.decompose(latency, "serve.http", rid=request)
            for request, latency in outcome.primary
        ]
    primary = ([latency for _, latency in outcome.primary], decompositions)
    secondary = None
    if outcome.secondary:
        secondary = (
            [latency for _, latency in outcome.secondary],
            [trace.decompose(latency, "serve.http", rid=request)
             for request, latency in outcome.secondary],
        )
    values = layer_metrics(trace, primary, secondary, outcome.window,
                           LATENCY_Q)
    values["loadgen.late_p99_ms"] = percentile(outcome.late, 99) * 1e3
    traced = percentile(outcome.latencies, LATENCY_Q)
    values["trace.overhead_frac"] = (
        traced / untraced - 1.0 if untraced else 0.0
    )
    return values


def run_one(args, spec: dict) -> int:
    """One workload, one run, one JSON result line."""
    with work_dir(str(os.getpid())) as workdir:
        if args.trace:
            attempted = failed = 0
            reference = args.untraced_latency_ms
            if reference is None:
                untraced, _ = measure(args.workload, args.seed,
                                      args.seconds, 1, workdir)
                reference = percentile(untraced.latencies, LATENCY_Q) * 1e3
                attempted, failed = untraced.attempted, untraced.failed
            trace_path = workdir / "spans.json"
            outcome, setup_times = measure(args.workload, args.seed,
                                           args.seconds, 1, workdir,
                                           trace_path)
            values = layers(args.workload, outcome, trace_path,
                            reference / 1e3)
            listed = spec["per_layer"]
            attempted += outcome.attempted
            failed += outcome.failed
        else:
            outcome, setup_times = measure(args.workload, args.seed,
                                           args.seconds, SETUP_REPEATS,
                                           workdir)
            values = end_to_end(outcome, setup_times)
            listed = spec["end_to_end"]
            attempted, failed = outcome.attempted, outcome.failed
    metrics = {name: {"value": values[name], "unit": entry["unit"]}
               for name, entry in listed.items()}
    if args.details:
        Path(args.details).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "latencies_ms": [latency * 1e3 for latency in outcome.latencies],
            "work": outcome.work, "setup_s": setup_times,
            "extra": outcome.extra,
        }))
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<32} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:<12} {'failed/attempted':<32} "
          f"{failed:>8}/{attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# A full set: interleaved rounds, then a traced round.
# ---------------------------------------------------------------------------


def run_child(workload, seed, seconds, details: Path, reference=None) -> dict:
    """One workload in a fresh process; traced when ``reference`` (the
    untraced gated latency quantile, ms) is given."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--details", str(details)]
    if reference is not None:
        argv += ["--trace", "1", "--untraced-latency-ms", repr(reference)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stdout.write(done.stdout)
    if not details.exists():
        raise BenchError(f"{workload} run failed:\n{done.stderr[-3000:]}")
    return json.loads(details.read_text())


def host_info() -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarize(spec: dict, runs: list[dict]) -> dict:
    """Values and spreads of one workload's untraced rounds.

    The latency quantile pools the samples of every round; throughput and
    ``setup_s`` are the median of the rounds. The spread of each metric
    is (max - min) / median over the rounds.
    """
    pooled = {LATENCY_METRIC: percentile(
        [value for run in runs for value in run["latencies_ms"]], LATENCY_Q
    )}
    out = {}
    for name, entry in spec["end_to_end"].items():
        rounds = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(rounds)
        out[name] = {
            "unit": entry["unit"], "better": entry["better"],
            "bound": entry["bound"], "value": pooled.get(name, middle),
            "spread": (max(rounds) - min(rounds)) / middle if middle else 0.0,
            "rounds": rounds,
        }
    return out


def run_set(args, spec: dict) -> int:
    rounds = 1 if args.smoke else ROUNDS
    seconds = 1 if args.smoke else args.seconds
    started = time.perf_counter()
    untraced: dict[str, list] = {name: [] for name in WORKLOADS}
    traced: dict[str, dict] = {}
    with work_dir(f"set-{os.getpid()}") as workdir:
        for round_index in range(rounds):
            for name in WORKLOADS:
                untraced[name].append(run_child(
                    name, args.seed + round_index, seconds,
                    workdir / f"{name}-{round_index}.json",
                ))
        for name in WORKLOADS:
            pooled = [value for run in untraced[name]
                      for value in run["latencies_ms"]]
            traced[name] = run_child(
                name, args.seed + rounds, seconds,
                workdir / f"{name}-traced.json",
                percentile(pooled, LATENCY_Q),
            )
    report = {
        **host_info(), "seed": args.seed, "seconds": seconds,
        "rounds": rounds, "smoke": args.smoke, "workloads": {},
    }
    failed = 0
    for name in WORKLOADS:
        runs = untraced[name] + [traced[name]]
        attempted = sum(run["attempted"] for run in runs)
        failures = sum(run["failed"] for run in runs)
        failed += failures
        report["workloads"][name] = {
            "attempted": attempted, "failed": failures,
            "failed_frac": failures / attempted if attempted else 1.0,
            "metrics": summarize(spec, untraced[name]),
            "ungated": ungated([value for run in untraced[name]
                                for value in run["latencies_ms"]]),
            "layers": traced[name]["metrics"],
            "per_round": [
                {"seed": run["seed"], "metrics": run["metrics"],
                 "setup_s": run["setup_s"], "extra": run["extra"]}
                for run in untraced[name]
            ],
        }
    report["elapsed_s"] = time.perf_counter() - started
    print()
    for name, entry in report["workloads"].items():
        for metric, value in entry["metrics"].items():
            print(f"{name:<12} {metric:<20} {value['value']:>12.5g} "
                  f"{value['unit']:<4} spread {value['spread']:.3f} "
                  f"(bound {value['bound']})")
        extra = entry["ungated"]
        print(f"{name:<12} {'not gated':<20} mean "
              f"{extra['latency_mean_ms']:.5g} ms, p50 "
              f"{extra['latency_p50_ms']:.5g} ms, p95 "
              f"{extra['latency_p95_ms']:.5g} ms, p99 "
              f"{extra['latency_p99_ms']:.5g} ms of {extra['samples']}")
        print(f"{name:<12} {'failed_frac':<20} {entry['failed_frac']:>12.5g} "
              f"({entry['failed']}/{entry['attempted']})")
    print(f"full set took {report['elapsed_s']:.0f}s")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if failed == 0 else 1


def load_spec() -> dict:
    """Metric names and units from BENCHMARK.json (the single definition),
    checked against the layers attribution.py computes."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if {e["name"]: e["unit"] for e in spec["per_layer"]} != UNITS:
        raise BenchError("BENCHMARK.json per_layer does not match "
                         "attribution.UNITS")
    return {
        "end_to_end": {e["name"]: e for e in spec["end_to_end"]},
        "per_layer": {e["name"]: e for e in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (omit for a full set)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", help="write raw samples here (JSON)")
    parser.add_argument("--untraced-latency-ms", type=float,
                        help="with --trace 1: the untraced latency "
                             "quantile that trace.overhead_frac compares "
                             "against, instead of measuring it first")
    parser.add_argument("--smoke", action="store_true",
                        help="full set with one round of ~1s phases")
    parser.add_argument("--out", help="full set: write the report here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload is None:
            return run_set(args, spec)
        return run_one(args, spec)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
