"""Tests for the serving daemon: micro-batching, admission, lifecycle.

The contracts under test:

- **Determinism**: answers served through a coalesced multi-row kernel
  call are bit-identical to the same queries issued serially, and the
  served values agree with the scalar :func:`estimate_query` path to the
  repo's 1e-9 numerical-equivalence policy.
- **Work conservation**: with the kernel held on an event, a lone
  request goes out at once in a 1-row call, and the requests queued
  behind it share the next call (split at ``max_batch``).
- **Admission control**: over-budget tenants get HTTP 429 plus a
  ``serve.rejected`` run-ledger event; everyone else is unaffected.
- **Concurrency**: a 10-client soak leaves no queued requests, no
  errors, and exact per-tenant accounting.
- **Lifecycle**: a daemon subprocess killed with SIGTERM drains, flushes
  its ledger record, exits 0, and leaves ``/dev/shm`` empty.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError, ReproError
from repro.estimators.dispatch import estimate_query, estimate_rows
from repro.estimators.streaming import WindowedMeanEstimator
from repro.experiments.workloads import load_dataset, model_for, shared_suite
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.system import shm, telemetry
from repro.system.executor import shutdown_pool
from repro.system.observe import ledger as run_ledger
from repro.system.observe import tracing
from repro.system.serve import (
    AdmissionError,
    MicroBatcher,
    QueryRequest,
    RequestError,
    ServeConfig,
    ServeDaemon,
    ServeSession,
    TokenBucket,
    post_json,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
DEV_SHM = Path("/dev/shm")

#: Reduced corpus for the in-process daemons; small enough that warmup
#: stays fast, large enough that fraction sampling is non-trivial.
FRAMES = 1200


def run_with_daemon(coro_factory, **config_overrides):
    """Run ``await coro_factory(daemon, port)`` against a live daemon."""
    settings = {
        "port": 0,
        "datasets": ("ua-detrac",),
        "frames": FRAMES,
    }
    settings.update(config_overrides)

    async def wrapped():
        daemon = ServeDaemon(ServeConfig(**settings))
        port = await daemon.start()
        try:
            return await coro_factory(daemon, port)
        finally:
            await daemon.stop()

    return asyncio.run(wrapped())


@pytest.fixture(autouse=True)
def clean_process_state():
    shutdown_pool()
    shm.release_all()
    yield
    shutdown_pool()
    shm.release_all()
    if telemetry.enabled():
        telemetry.disable()


class TestQueryRequest:
    CONFIG = ServeConfig(datasets=("ua-detrac",))

    def test_payload_round_trip(self):
        request = QueryRequest.from_payload(
            "estimate",
            {
                "dataset": "ua-detrac",
                "aggregate": "count",
                "fraction": 0.5,
                "resolution": 416,
                "remove": "person",
                "seed": 9,
                "tenant": "alice",
            },
            self.CONFIG,
        )
        assert request.aggregate == "count"
        assert request.fraction == 0.5
        assert request.resolution == 416
        assert request.remove == ("person",)
        assert request.tenant == "alice"

    def test_batch_key_ignores_seed_and_tenant(self):
        base = {"dataset": "ua-detrac", "fraction": 0.25}
        one = QueryRequest.from_payload(
            "estimate", {**base, "seed": 1, "tenant": "a"}, self.CONFIG
        )
        two = QueryRequest.from_payload(
            "bound", {**base, "seed": 2, "tenant": "b"}, self.CONFIG
        )
        assert one.batch_key() == two.batch_key()

    def test_batch_key_splits_on_plan(self):
        one = QueryRequest.from_payload(
            "estimate", {"fraction": 0.25}, self.CONFIG
        )
        two = QueryRequest.from_payload(
            "estimate", {"fraction": 0.5}, self.CONFIG
        )
        assert one.batch_key() != two.batch_key()

    @pytest.mark.parametrize(
        "payload",
        [
            {"dataset": "nope"},
            {"aggregate": "median"},
            {"fraction": 0.0},
            {"fraction": 1.5},
            {"delta": 1.0},
            {"remove": "unicorn"},
            {"axis": "diagonal"},
            {"fraction": "not-a-number"},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(RequestError):
            QueryRequest.from_payload("estimate", payload, self.CONFIG)

    def test_choose_requires_budget(self):
        with pytest.raises(RequestError):
            QueryRequest.from_payload("choose", {}, self.CONFIG)

    @pytest.mark.parametrize(
        "seed",
        [-1, 1.5, float("nan"), True, "3", [3]],
        ids=["negative", "fractional", "nan", "bool", "string", "list"],
    )
    def test_bad_seed_rejected_at_the_boundary(self, seed):
        # The seed is the only per-row field outside batch_key, so a bad
        # one must never reach a kernel call shared with other tenants.
        with pytest.raises(RequestError, match="seed"):
            QueryRequest.from_payload("bound", {"seed": seed}, self.CONFIG)

    def test_integral_float_seed_accepted(self):
        request = QueryRequest.from_payload(
            "bound", {"seed": 3.0}, self.CONFIG
        )
        assert request.seed == 3 and isinstance(request.seed, int)

    @pytest.mark.parametrize("field", ["trials", "resolution", "resolution_count"])
    @pytest.mark.parametrize(
        "value",
        [2.9, 416.7, -1, True, "3", [3]],
        ids=["fraction", "fraction-large", "negative", "bool", "string", "list"],
    )
    def test_integer_fields_refuse_non_integers(self, field, value):
        # int() would truncate 2.9 to 2 and answer a different request.
        with pytest.raises(RequestError, match=field):
            QueryRequest.from_payload("profile", {field: value}, self.CONFIG)

    @pytest.mark.parametrize("field", ["trials", "resolution", "resolution_count"])
    def test_integer_fields_accept_integral_floats(self, field):
        request = QueryRequest.from_payload(
            "profile", {field: 4.0}, self.CONFIG
        )
        value = getattr(request, field)
        assert value == 4 and isinstance(value, int)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        now = 100.0
        assert bucket.try_acquire(now)
        assert bucket.try_acquire(now)
        assert not bucket.try_acquire(now)
        # 0.15s at 10/s refills ~1.5 tokens: one acquire succeeds, the
        # immediate next finds only the 0.5 remainder and fails.
        assert bucket.try_acquire(now + 0.15)
        assert not bucket.try_acquire(now + 0.15)

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(1e9)


class TestEstimateRows:
    """The batch entry point the micro-batcher rests on."""

    @pytest.fixture(scope="class")
    def query(self):
        return AggregateQuery(
            load_dataset("ua-detrac", FRAMES),
            model_for("ua-detrac"),
            Aggregate.AVG,
        )

    def test_rows_bit_identical_to_single_row_calls(self, query):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(0.0, 4.0, size=(5, 200))
        batched = estimate_rows(query, matrix, 900, FRAMES)
        for row_index, estimate in enumerate(batched):
            alone = estimate_rows(
                query, matrix[row_index : row_index + 1], 900, FRAMES
            )[0]
            assert estimate.value == alone.value
            assert estimate.error_bound == alone.error_bound
            assert estimate.n == alone.n

    def test_matches_scalar_path_within_policy(self, query):
        processor = QueryProcessor(shared_suite())
        plan = InterventionPlan.from_knobs(f=0.25, suite=shared_suite())
        rng = np.random.default_rng(3)
        execution = processor.execute(query, plan, rng)
        scalar = estimate_query(query, execution)
        [rowwise] = estimate_rows(
            query,
            execution.values[None, :],
            execution.universe_size,
            execution.population_size,
        )
        assert rowwise.value == pytest.approx(scalar.value, abs=1e-9)
        assert rowwise.error_bound == pytest.approx(
            scalar.error_bound, abs=1e-9
        )
        assert rowwise.n == scalar.n

    def test_rejects_malformed_matrices(self, query):
        with pytest.raises(ConfigurationError):
            estimate_rows(query, np.zeros(5), 900, FRAMES)
        with pytest.raises(ConfigurationError):
            estimate_rows(query, np.zeros((2, 0)), 900, FRAMES)


class TestSessionBatching:
    """Session-level coalescing without the HTTP layer."""

    def test_group_bit_identical_to_singles(self):
        config = ServeConfig(datasets=("ua-detrac",), frames=FRAMES)
        session = ServeSession(config)
        session.warmup()
        try:
            requests = [
                QueryRequest.from_payload(
                    "estimate",
                    {"dataset": "ua-detrac", "fraction": 0.25, "seed": seed},
                    config,
                )
                for seed in range(6)
            ]
            grouped = session.estimate_group(requests)
            singles = [
                session.estimate_group([request])[0] for request in requests
            ]
            for merged, alone in zip(grouped, singles):
                assert merged["value"] == alone["value"]
                assert merged["error_bound"] == alone["error_bound"]
                assert merged["n"] == alone["n"]
            assert grouped[0]["batch_size"] == 6
            assert session.stats["batched_kernel_calls"] == 1
            assert session.stats["kernel_calls"] == 7
        finally:
            session.shutdown()

    def test_incompatible_requests_refused(self):
        config = ServeConfig(datasets=("ua-detrac",), frames=FRAMES)
        session = ServeSession(config)
        try:
            one = QueryRequest.from_payload(
                "estimate", {"fraction": 0.25}, config
            )
            two = QueryRequest.from_payload(
                "estimate", {"fraction": 0.5}, config
            )
            with pytest.raises(RequestError):
                session.estimate_group([one, two])
        finally:
            session.shutdown()


def _estimate_requests(config: ServeConfig, seeds) -> list[QueryRequest]:
    return [
        QueryRequest.from_payload(
            "estimate",
            {"dataset": "ua-detrac", "fraction": 0.25, "seed": seed},
            config,
        )
        for seed in seeds
    ]


class _HeldKernel:
    """Wraps ``session.estimate_group`` so its first call blocks until
    :attr:`release` is set, recording the size of every call."""

    def __init__(self, session: ServeSession) -> None:
        self.original = session.estimate_group
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes: list[int] = []
        session.estimate_group = self

    def __call__(self, requests, contexts=None):
        self.sizes.append(len(requests))
        if len(self.sizes) == 1:
            self.entered.set()
            self.release.wait(timeout=60)
        return self.original(requests, contexts)


class TestWorkConservingBatcher:
    """Coalescing shown by construction: the kernel is held on an event,
    so which requests share a call does not depend on timing."""

    MAX_BATCH = 4

    @pytest.fixture
    def session(self):
        config = ServeConfig(
            datasets=("ua-detrac",), frames=FRAMES, max_batch=self.MAX_BATCH
        )
        session = ServeSession(config)
        session.warmup()
        yield session
        session.shutdown()

    @staticmethod
    async def _until(predicate) -> None:
        while not predicate():
            await asyncio.sleep(0.001)

    def _serve(self, session, count, scenario) -> _HeldKernel:
        """Run ``scenario(batcher, submit, kernel)`` over a fresh batcher
        and check every answer against the same request served alone."""
        kernel = _HeldKernel(session)
        requests = _estimate_requests(session.config, range(count))

        async def wrapped():
            batcher = MicroBatcher(session)
            batcher.start()

            def submit(index: int) -> asyncio.Future:
                return asyncio.ensure_future(batcher.submit(requests[index]))

            try:
                futures = await scenario(batcher, submit, kernel)
            finally:
                kernel.release.set()
            answers = await asyncio.gather(*futures)
            await batcher.drain()
            assert batcher.depth == 0
            return answers

        answers = asyncio.run(wrapped())
        assert len(answers) == count
        for request, answer in zip(requests, answers):
            alone = kernel.original([request])[0]
            assert answer["value"] == alone["value"]
            assert answer["error_bound"] == alone["error_bound"]
            assert answer["n"] == alone["n"]
        return kernel

    def test_lone_request_priced_at_once_then_backlog_coalesced(
        self, session
    ):
        k = self.MAX_BATCH

        async def scenario(batcher, submit, kernel):
            first = submit(0)
            # Ten loop turns and no wall-clock time pass before the
            # companions are queued: a batcher that waited for companions
            # would take them into this first call.
            for _ in range(10):
                await asyncio.sleep(0)
            rest = [submit(i) for i in range(1, 1 + k)]
            await asyncio.to_thread(kernel.entered.wait, 60)
            await self._until(lambda: batcher.depth == 1 + k)
            assert kernel.sizes == [1]
            return [first, *rest]

        kernel = self._serve(session, 1 + k, scenario)
        assert kernel.sizes == [1, k]

    def test_backlog_split_at_max_batch(self, session):
        backlog = self.MAX_BATCH + 2

        async def scenario(batcher, submit, kernel):
            first = submit(0)
            await asyncio.to_thread(kernel.entered.wait, 60)
            rest = [submit(i) for i in range(1, 1 + backlog)]
            await self._until(lambda: batcher.depth == 1 + backlog)
            return [first, *rest]

        kernel = self._serve(session, 1 + backlog, scenario)
        assert kernel.sizes == [1, self.MAX_BATCH, 2]

    def test_drain_serves_requests_behind_the_sentinel(self, session):
        k = self.MAX_BATCH

        async def scenario(batcher, submit, kernel):
            first = submit(0)
            await asyncio.to_thread(kernel.entered.wait, 60)
            ahead = [submit(i) for i in range(1, 1 + k)]
            await self._until(lambda: batcher.depth == 1 + k)
            draining = asyncio.ensure_future(batcher.drain())
            await self._until(lambda: not batcher._accepting)
            behind = [submit(i) for i in range(1 + k, 3 + k)]
            await self._until(lambda: batcher.depth == 3 + k)
            kernel.release.set()
            await draining
            return [first, *ahead, *behind]

        kernel = self._serve(session, 3 + k, scenario)
        assert kernel.sizes == [1, k, 2]


async def _raw_post(
    port: int, path: str, length: str, body: bytes, eof: bool = False
):
    """POST with a caller-chosen ``Content-Length`` header value.

    ``eof`` half-closes the connection after the body is sent.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"POST {path} HTTP/1.1\r\nContent-Length: {length}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii")
            + body
        )
        await writer.drain()
        if eof:
            writer.write_eof()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()).strip():
            pass
        return status, json.loads(await reader.read())
    finally:
        writer.close()


class TestDaemonHTTP:
    def test_concurrent_answers_bit_identical_to_serial(self):
        async def scenario(daemon, port):
            payload = {"dataset": "ua-detrac", "fraction": 0.25}
            serial = {}
            for seed in range(8):
                status, body = await post_json(
                    "127.0.0.1", port, "/estimate", {**payload, "seed": seed}
                )
                assert status == 200, body
                assert body["batch_size"] == 1
                serial[seed] = body
            calls_before = daemon.session.stats["kernel_calls"]
            results = await asyncio.gather(
                *(
                    post_json(
                        "127.0.0.1",
                        port,
                        "/estimate",
                        {**payload, "seed": seed, "tenant": f"t{seed % 3}"},
                    )
                    for seed in range(8)
                )
            )
            concurrent_calls = (
                daemon.session.stats["kernel_calls"] - calls_before
            )
            for seed, (status, body) in enumerate(results):
                assert status == 200, body
                assert body["value"] == serial[seed]["value"]
                assert body["error_bound"] == serial[seed]["error_bound"]
            # 8 concurrent compatible requests -> fewer kernel calls than
            # the 8 the serial pass paid.
            assert concurrent_calls < 8
            assert daemon.session.stats["batched_kernel_calls"] >= 1
            return True

        assert run_with_daemon(scenario)

    def test_bad_seed_fails_alone_beside_good_requests(self):
        async def scenario(daemon, port):
            payload = {"dataset": "ua-detrac", "fraction": 0.25}
            serial = {}
            for seed in (3, 4):
                status, body = await post_json(
                    "127.0.0.1", port, "/estimate", {**payload, "seed": seed}
                )
                assert status == 200, body
                serial[seed] = body
            results = await asyncio.gather(
                *(
                    post_json(
                        "127.0.0.1", port, "/estimate",
                        {**payload, "seed": seed},
                    )
                    for seed in (3, -1, 4, 1.5)
                )
            )
            (s3, b3), (s_neg, b_neg), (s4, b4), (s_frac, b_frac) = results
            assert s_neg == 400 and "seed" in b_neg["error"], b_neg
            assert s_frac == 400 and "seed" in b_frac["error"], b_frac
            for seed, status, body in ((3, s3, b3), (4, s4, b4)):
                assert status == 200, body
                assert body["value"] == serial[seed]["value"]
                assert body["error_bound"] == serial[seed]["error_bound"]
            assert daemon.session.stats["errors"] == 0
            return True

        assert run_with_daemon(scenario)

    def test_unknown_method_is_400_before_admission(self):
        async def scenario(daemon, port):
            refused = [
                ({"method": "bogus"}, "hoeffding-serfling"),
                ({"aggregate": "max", "method": "hoeffding"}, "stein"),
            ]
            for payload, listed in refused:
                status, body = await post_json(
                    "127.0.0.1", port, "/bound",
                    {"dataset": "ua-detrac", "tenant": "picky", **payload},
                )
                assert status == 400, body
                assert body["error"].startswith("method must be one of")
                assert listed in body["error"], body
            stats = daemon.session.stats
            assert stats["errors"] == 0 and stats["requests"] == 0
            assert stats["kernel_calls"] == 0
            assert "picky" not in daemon.session.snapshot_stats()["tenants"]
            status, body = await post_json(
                "127.0.0.1", port, "/bound",
                {"dataset": "ua-detrac", "aggregate": "max", "method": "stein"},
            )
            assert status == 200 and body["method"] == "stein", body
            return True

        assert run_with_daemon(scenario)

    def test_non_object_stream_body_is_400(self):
        async def scenario(daemon, port):
            status, body = await post_json(
                "127.0.0.1", port, "/stream", [1, 2]
            )
            assert status == 400, body
            assert body["error"] == "request body must be a JSON object"
            return True

        assert run_with_daemon(scenario)

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
    def test_malformed_content_length_is_400(self, length):
        async def scenario(daemon, port):
            status, body = await _raw_post(port, "/bound", length, b"{}")
            assert status == 400, body
            assert "Content-Length" in body["error"]
            status, body = await post_json(
                "127.0.0.1", port, "/bound", {"dataset": "ua-detrac"}
            )
            assert status == 200, body
            return True

        assert run_with_daemon(scenario)

    @pytest.mark.parametrize("ending", ["closed", "stalled"])
    def test_short_body_is_400_without_a_dump(self, ending, monkeypatch):
        dumps = []
        monkeypatch.setattr(
            tracing, "dump_flight_record", lambda *a, **k: dumps.append(a)
        )
        monkeypatch.setattr(ServeDaemon, "_READ_TIMEOUT_S", 0.5)

        async def scenario(daemon, port):
            status, body = await _raw_post(
                port, "/bound", "100", b'{"dataset": "ua-detrac"}',
                eof=ending == "closed",
            )
            assert status == 400, body
            assert "short of its Content-Length 100" in body["error"]
            if ending == "closed":
                assert body["error"].startswith("request body is 24 bytes")
            status, body = await post_json(
                "127.0.0.1", port, "/bound", {"dataset": "ua-detrac"}
            )
            assert status == 200, body
            return True

        assert run_with_daemon(scenario)
        assert dumps == []

    def test_stalled_headers_are_408_without_a_dump(self, monkeypatch):
        dumps = []
        monkeypatch.setattr(
            tracing, "dump_flight_record", lambda *a, **k: dumps.append(a)
        )
        monkeypatch.setattr(ServeDaemon, "_READ_TIMEOUT_S", 0.5)

        async def scenario(daemon, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"POST /bound HTTP/1.1\r\n")
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                while (await reader.readline()).strip():
                    pass
                body = json.loads(await reader.read())
            finally:
                writer.close()
            assert status == 408, body
            assert "headers did not arrive" in body["error"]
            return True

        assert run_with_daemon(scenario)
        assert dumps == []

    def test_oversized_content_length_is_413_before_reading(self):
        async def scenario(daemon, port):
            limit = ServeDaemon._MAX_BODY_BYTES
            assert limit > 32 * daemon.session._MAX_STREAM_VALUES
            # No body follows: the daemon must answer from the header.
            status, body = await _raw_post(
                port, "/stream", str(limit + 1), b"", eof=True
            )
            assert status == 413, body
            assert str(limit) in body["error"]
            # At the limit the daemon reads, and finds the body short.
            status, body = await _raw_post(
                port, "/bound", str(limit), b"", eof=True
            )
            assert status == 400, body
            assert body["error"].startswith("request body is 0 bytes")
            return True

        assert run_with_daemon(scenario)

    def test_bound_omits_value(self):
        async def scenario(daemon, port):
            status, body = await post_json(
                "127.0.0.1", port, "/bound",
                {"dataset": "ua-detrac", "fraction": 0.5},
            )
            assert status == 200
            assert "value" not in body
            assert body["error_bound"] > 0
            return True

        assert run_with_daemon(scenario)

    def test_soak_ten_clients(self):
        async def scenario(daemon, port):
            async def client(index: int) -> list[dict]:
                bodies = []
                for round_index in range(5):
                    status, body = await post_json(
                        "127.0.0.1",
                        port,
                        "/bound",
                        {
                            "dataset": "ua-detrac",
                            "fraction": 0.25,
                            "seed": index * 100 + round_index,
                            "tenant": f"tenant-{index}",
                        },
                    )
                    assert status == 200, body
                    bodies.append(body)
                return bodies

            all_bodies = await asyncio.gather(*(client(i) for i in range(10)))
            assert sum(len(bodies) for bodies in all_bodies) == 50
            assert daemon.batcher.depth == 0
            stats = daemon.session.snapshot_stats()
            assert stats["counters"]["errors"] == 0
            assert stats["counters"]["requests"] == 50
            assert len(stats["tenants"]) == 10
            for record in stats["tenants"].values():
                assert record["requests"] == 5
                assert record["served"] == 5
                assert record["rejected"] == 0
            return True

        assert run_with_daemon(scenario)

    def test_over_budget_tenant_gets_429_and_ledger_event(self):
        run_ledger.begin_run("serve-test", {}, None)

        async def scenario(daemon, port):
            payload = {
                "dataset": "ua-detrac",
                "fraction": 0.25,
                "tenant": "greedy",
            }
            statuses = []
            for seed in range(3):
                status, body = await post_json(
                    "127.0.0.1", port, "/bound", {**payload, "seed": seed}
                )
                statuses.append(status)
            # Another tenant is not affected by greedy's exhaustion.
            other_status, _ = await post_json(
                "127.0.0.1", port, "/bound",
                {**payload, "tenant": "frugal"},
            )
            rejected = daemon.session.tenants["greedy"]["rejected"]
            return statuses, other_status, rejected

        try:
            statuses, other_status, rejected = run_with_daemon(
                scenario, tenant_rate=0.0, tenant_burst=1
            )
        finally:
            record = run_ledger.finish_run("ok", 0)
        assert statuses[0] == 200
        assert statuses[1:] == [429, 429]
        assert other_status == 200
        assert rejected == 2
        events = [
            event
            for event in record["events"]
            if event["event"] == "serve.rejected"
        ]
        assert len(events) == 2
        assert all(event["tenant"] == "greedy" for event in events)
        assert all(
            event["reason"] == "tenant_over_budget" for event in events
        )

    def test_queue_full_rejects(self):
        config = ServeConfig(datasets=("ua-detrac",), max_queue=1)
        daemon = ServeDaemon(config)
        daemon.batcher._depth = 1  # simulate a full queue
        daemon.batcher._accepting = True
        with pytest.raises(AdmissionError):
            daemon.batcher.admit("anyone")
        assert daemon.session.stats["rejected"] == 1

    def test_multiworker_daemon_prewarms_the_pool(self):
        """A multi-worker daemon forks its pool during startup, while
        the process is quiet — forking lazily under live traffic can
        deadlock the children (fork-with-threads). The pool must be warm
        before the listener accepts, and a parallel /profile must reuse
        it rather than respawn."""
        from repro.system.executor import pool_diagnostics, pool_generation

        async def scenario(daemon, port):
            assert pool_diagnostics() is not None
            generation = pool_generation()
            status, body = await post_json(
                "127.0.0.1",
                port,
                "/profile",
                {"dataset": "ua-detrac", "trials": 2,
                 "fraction_step": 0.5, "resolution_count": 2},
                timeout=600,
            )
            assert status == 200, body
            assert pool_generation() == generation
            return True

        assert run_with_daemon(scenario, workers=2)

    def test_metrics_and_introspection_endpoints(self):
        async def scenario(daemon, port):
            status, _ = await post_json(
                "127.0.0.1", port, "/bound",
                {"dataset": "ua-detrac", "fraction": 0.5},
            )
            assert status == 200
            status, body = await post_json("127.0.0.1", port, "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, text = await post_json("127.0.0.1", port, "/metrics")
            assert status == 200
            assert "repro_serve_requests_total" in text
            assert "repro_serve_kernel_calls_total" in text
            status, stats = await post_json("127.0.0.1", port, "/stats")
            assert status == 200
            assert stats["counters"]["requests"] == 1
            assert stats["datasets"] == ["ua-detrac"]
            assert "pool_generation" in stats
            status, body = await post_json(
                "127.0.0.1", port, "/nowhere", {}
            )
            assert status == 404
            status, body = await post_json(
                "127.0.0.1", port, "/estimate", {"dataset": "nope"}
            )
            assert status == 400
            return True

        assert run_with_daemon(scenario)

    def test_profile_is_cached_and_choose_rides_it(self):
        async def scenario(daemon, port):
            payload = {
                "dataset": "ua-detrac",
                "trials": 1,
                "fraction_step": 0.5,
                "resolution_count": 2,
            }
            status, first = await post_json(
                "127.0.0.1", port, "/profile", payload, timeout=600
            )
            assert status == 200 and first["cached"] is False
            status, second = await post_json(
                "127.0.0.1", port, "/profile", payload, timeout=600
            )
            assert status == 200 and second["cached"] is True
            assert second["slices"] == first["slices"]
            status, choice = await post_json(
                "127.0.0.1", port, "/choose",
                {**payload, "max_error": 0.9}, timeout=600,
            )
            assert status == 200
            assert choice["cached"] is True
            assert choice["error_bound"] <= 0.9
            return True

        assert run_with_daemon(scenario)

    def test_shutdown_endpoint_stops_the_daemon(self):
        async def scenario():
            daemon = ServeDaemon(
                ServeConfig(port=0, datasets=("ua-detrac",), frames=FRAMES)
            )
            port = await daemon.start()
            status, body = await post_json(
                "127.0.0.1", port, "/shutdown", {}
            )
            assert status == 200
            await asyncio.wait_for(daemon.wait_stopped(), timeout=30)
            return True

        assert asyncio.run(scenario())


class TestSubprocessLifecycle:
    """SIGTERM against a real daemon subprocess: drain, flush, unlink."""

    def _spawn(self, tmp_path: Path, extra: list[str] | None = None):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--frames", "800",
                "--run-ledger", str(tmp_path / "serve_runs.jsonl"),
                *(extra or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def _await_port(self, proc) -> int:
        deadline = time.time() + 120
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if match:
                return int(match.group(1))
        raise AssertionError("daemon never printed its bound address")

    def test_sigterm_drains_flushes_and_unlinks(self, tmp_path):
        proc = self._spawn(tmp_path)
        try:
            port = self._await_port(proc)

            async def one_request():
                return await post_json(
                    "127.0.0.1", port, "/estimate",
                    {"dataset": "ua-detrac", "fraction": 0.25, "seed": 4},
                )

            status, body = asyncio.run(one_request())
            assert status == 200, body
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, output
        assert "drained and stopped" in output
        # The PR-7 leak-check contract, extended to the daemon: no
        # published segment of this pid survives the graceful exit.
        if DEV_SHM.is_dir():
            prefix = f"{shm.SEGMENT_PREFIX}_{proc.pid}_"
            leaks = sorted(DEV_SHM.glob(f"{prefix}*"))
            assert leaks == [], leaks
        # The ledger record was flushed on the signal path, with the
        # session's accounting annotated.
        records = [
            json.loads(line)
            for line in (tmp_path / "serve_runs.jsonl").read_text().splitlines()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["command"] == "serve"
        assert record["status"] == "ok"
        assert record["facts"]["serve"]["requests"] == 1
        assert record["facts"]["serve"]["kernel_calls"] == 1


class TestBudgetValidation:
    """Regression: malformed tenant budgets must be rejected, not coerced.

    ``TokenBucket`` used to silently clamp ``burst`` up to 1.0 (hiding a
    misconfigured fractional burst behind a working-looking bucket) and
    accepted a NaN ``rate`` (every refill computed ``nan`` tokens, so the
    bucket admitted the burst and then starved every tenant forever).
    """

    def test_token_bucket_rejects_fractional_burst(self):
        with pytest.raises(RequestError):
            TokenBucket(rate=10.0, burst=0.5)

    def test_token_bucket_rejects_nan_rate(self):
        with pytest.raises(RequestError):
            TokenBucket(rate=float("nan"), burst=10)

    @pytest.mark.parametrize(
        "rate, burst",
        [(float("inf"), 10), (-1.0, 10), (10.0, float("nan")), (10.0, 0)],
    )
    def test_token_bucket_rejects_other_degenerates(self, rate, burst):
        with pytest.raises(RequestError):
            TokenBucket(rate=rate, burst=burst)

    def test_token_bucket_accepts_burst_only_budget(self):
        TokenBucket(rate=0.0, burst=1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tenant_burst": 0.5},
            {"tenant_rate": float("nan")},
            {"tenant_rate": -1.0},
            {"tenant_burst": float("inf")},
            {"delta": 2.0},
            {"delta": float("nan")},
            {"frames": -5},
            {"max_batch": 2.5},
            {"port": -1},
            {"workers": 0},
        ],
    )
    def test_serve_config_rejects_bad_budgets(self, overrides):
        [field] = overrides
        with pytest.raises(RequestError, match=field):
            ServeConfig(datasets=("ua-detrac",), **overrides)


class TestProfileCorrection:
    """``/profile`` always builds its correction set (Algorithm 3)."""

    def test_no_slice_below_the_corrected_bound(self):
        from repro.core.correction import determine_correction_set

        session = ServeSession(
            ServeConfig(datasets=("ua-detrac",), frames=FRAMES, workers=1)
        )
        try:
            request = QueryRequest.from_payload(
                "profile", {"trials": 2, "seed": 5}, session.config
            )
            body = session.profile_request(request)
        finally:
            session.shutdown()
        dataset = load_dataset("ua-detrac", FRAMES)
        query = AggregateQuery(
            dataset, model_for("ua-detrac"), Aggregate.AVG,
            delta=session.config.delta,
        )
        correction = determine_correction_set(QueryProcessor(), query, 5)
        # Equation 12 is (1 + err_v) * drift + err_v >= err_v, so every
        # non-random setting is bounded by at least the set's own bound.
        slices = body["slices"]
        native = dataset.native_resolution.side
        non_random = [
            bound
            for knob, bound in zip(
                slices["resolution"]["knobs"],
                slices["resolution"]["error_bounds"],
            )
            if float(knob) < native
        ] + [
            bound
            for knob, bound in zip(
                slices["removal"]["knobs"], slices["removal"]["error_bounds"]
            )
            if knob != "none"
        ]
        assert len(non_random) == 5
        assert min(non_random) >= correction.error_bound > 0.0


class TestHotStreams:
    """Session-level /stream semantics without the HTTP layer."""

    @pytest.fixture(scope="class")
    def session(self):
        config = ServeConfig(datasets=("ua-detrac",), frames=FRAMES)
        session = ServeSession(config)
        session.warmup()
        yield session
        session.shutdown()

    def test_open_returns_fresh_readout(self, session):
        body = session.stream_open({"tenant": "cam-7"})
        assert body["id"].startswith("s")
        assert body["tenant"] == "cam-7"
        assert body["count"] == 0
        assert body["ingests"] == 0
        assert body["profiled_bound"] > 0.0
        assert body["verdict"]["tripped"] is False

    def test_open_rejects_unloaded_dataset(self, session):
        with pytest.raises(RequestError):
            session.stream_open({"dataset": "night-street"})

    def test_open_rejects_oversized_window(self, session):
        with pytest.raises(RequestError):
            session.stream_open({"window": FRAMES + 1})

    def test_ingest_unknown_stream_rejected(self, session):
        with pytest.raises(RequestError, match="unknown stream"):
            session.stream_ingest({"id": "s9999", "values": [1.0]})

    @pytest.mark.parametrize(
        "values",
        [
            None, [], "not-a-list", [1.0, float("nan")], [1.0, "x"],
            [[1.0], [2.0]], [None], [{}],
        ],
    )
    def test_ingest_rejects_malformed_values(self, session, values):
        stream_id = session.stream_open({})["id"]
        with pytest.raises(RequestError):
            session.stream_ingest({"id": stream_id, "values": values})

    def test_ingest_body_is_json_native(self, session):
        stream_id = session.stream_open({"window": 100})["id"]
        body = session.stream_ingest(
            {"id": stream_id, "values": [1.0, 2.0, 3.0] * 40}
        )
        assert body["ingested"] == 120 and body["window_count"] == 100
        # json.dumps refuses numpy scalars (int64, bool_): a numpy value
        # leaking into the body would turn the answer into an HTTP 500.
        json.dumps(body)

    def test_open_seed_zero_is_not_the_default(self, session):
        default = session.stream_open({})
        zero = session.stream_open({"seed": 0})
        explicit = session.stream_open({"seed": 7})
        assert explicit["profiled_bound"] == default["profiled_bound"]
        assert zero["profiled_bound"] != default["profiled_bound"]

    @pytest.mark.parametrize(
        "knobs",
        [
            {"window": 0},
            {"min_count": 0},
            {"patience": 0},
            {"delta": 0},
            {"seed": -1},
            {"window": "abc"},
            {"min_count": [3]},
            {"delta": "x"},
            {"profiled_bound": "wide"},
            {"aggregate": "median-ish"},
            {"seed": 1.5},
            # Only avg is priced; these once came back as a windowed
            # mean under the requested label.
            {"aggregate": "sum"},
            {"aggregate": "max"},
            {"aggregate": "var"},
            {"aggregate": "count"},
        ],
    )
    def test_open_rejects_bad_knobs(self, session, knobs):
        # The daemon answers every ReproError with a 400; anything else
        # (a bare ValueError) would escape as a 500.
        with pytest.raises(ReproError):
            session.stream_open(knobs)

    def test_full_table_evicts_least_recently_ingested(
        self, session, monkeypatch
    ):
        monkeypatch.setattr(ServeSession, "_MAX_STREAMS", 3)
        session._streams.clear()
        first, second, third = (
            session.stream_open({})["id"] for _ in range(3)
        )
        # Ingesting into the oldest makes the second the least recent.
        session.stream_ingest({"id": first, "values": [1.0] * 40})
        fourth = session.stream_open({})["id"]
        assert list(session._streams) == [third, first, fourth]
        with pytest.raises(RequestError, match="unknown stream"):
            session.stream_ingest({"id": second, "values": [1.0]})
        with pytest.raises(RequestError, match="unknown stream"):
            session.stream_readout(second)
        # A stream that keeps ingesting outlives any number of opens.
        for _ in range(5):
            session.stream_ingest({"id": first, "values": [1.0] * 40})
            session.stream_open({})
        assert first in session._streams
        assert len(session._streams) == 3
        assert session.stream_readout(first)["ingests"] == 6

    def test_one_estimate_per_chunk_past_warm_up(self, session, monkeypatch):
        calls = []
        original = WindowedMeanEstimator.estimate

        def counted(self):
            calls.append(self.count)
            return original(self)

        monkeypatch.setattr(WindowedMeanEstimator, "estimate", counted)
        stream_id = session.stream_open({"min_count": 30})["id"]
        assert calls == []  # an empty stream has nothing to price
        session.stream_ingest({"id": stream_id, "values": [2.0] * 10})
        assert calls == [10]  # warm-up: no check, the readout prices it
        for chunk in range(3):
            session.stream_ingest({"id": stream_id, "values": [2.0] * 50})
        assert calls == [10, 60, 110, 160]
        session.stream_readout(stream_id)  # reuses the last check's
        assert calls == [10, 60, 110, 160]

    def test_rejected_open_burns_no_stream_id(self, session):
        before = session.stream_open({})["id"]
        with pytest.raises(EstimationError):  # the sentinel's own check
            session.stream_open({"profiled_bound": -1.0})
        after = session.stream_open({})["id"]
        assert int(after[1:]) == int(before[1:]) + 1

    def test_ingest_by_another_tenant_rejected(self, session):
        stream_id = session.stream_open({"tenant": "cam-owner"})["id"]
        with pytest.raises(RequestError, match="tenant"):
            session.stream_ingest(
                {"id": stream_id, "values": [1.0], "tenant": "cam-other"}
            )
        body = session.stream_ingest(
            {"id": stream_id, "values": [1.0], "tenant": "cam-owner"}
        )
        assert body["ingests"] == 1

    def test_ingest_rejects_oversized_batch(self, session):
        stream_id = session.stream_open({})["id"]
        with pytest.raises(RequestError, match="at most"):
            session.stream_ingest(
                {"id": stream_id, "values": [1.0] * 10_001}
            )

    def test_hostile_feed_trips_and_repairs(self, session):
        opened = session.stream_open(
            {
                "tenant": "cam-drift",
                "window": 100,
                "profiled_bound": 0.05,
                "min_count": 30,
                "patience": 2,
            }
        )
        stream_id = opened["id"]
        violations_before = session.stats["stream_violations"]
        # An all-zero feed is total drift (the clean reference mean is
        # positive): first breach at the first post-warm-up check, the
        # second confirms it past patience.
        first = session.stream_ingest(
            {"id": stream_id, "values": [0.0] * 50}
        )
        assert first["check"]["breached"]
        assert not first["verdict"]["tripped"]
        second = session.stream_ingest(
            {"id": stream_id, "values": [0.0] * 50}
        )
        assert second["newly_tripped"]
        assert second["verdict"]["tripped"]
        assert second["repaired_bound"] > 0.0
        assert session.stats["stream_violations"] >= violations_before + 2
        readout = session.stream_readout(stream_id)
        assert readout["verdict"]["tripped"]
        assert readout["count"] == 100
        assert readout["ingests"] == 2


class TestStreamHTTP:
    """The /stream endpoints over the wire."""

    def test_ingest_is_admitted_against_the_stream_owner(self):
        async def scenario(daemon, port):
            status, opened = await post_json(
                "127.0.0.1", port, "/stream", {"tenant": "owner"}
            )
            assert status == 200, opened
            chunk = {"id": opened["id"], "values": [1.0] * 10}
            # Renaming the tenant per chunk does not reach a fresh bucket.
            for other in ("mallory", "mallory-2"):
                status, body = await post_json(
                    "127.0.0.1", port, "/stream", {**chunk, "tenant": other}
                )
                assert status == 400 and "tenant" in body["error"], body
            status, body = await post_json("127.0.0.1", port, "/stream", chunk)
            assert status == 200, body
            status, body = await post_json(
                "127.0.0.1", port, "/stream", {**chunk, "tenant": "owner"}
            )
            assert status == 429, body
            tenants = daemon.session.tenants
            assert tenants["owner"] == {
                "requests": 3, "rejected": 1, "served": 2
            }
            assert "mallory" not in tenants and "mallory-2" not in tenants
            return True

        assert run_with_daemon(scenario, tenant_rate=0.0, tenant_burst=2)

    def test_open_ingest_readout_round_trip(self):
        async def scenario(daemon, port):
            status, opened = await post_json(
                "127.0.0.1", port, "/stream",
                {"tenant": "cam-http", "window": 100,
                 "profiled_bound": 0.05},
            )
            assert status == 200, opened
            stream_id = opened["id"]
            status, ingested = await post_json(
                "127.0.0.1", port, "/stream",
                {"id": stream_id, "values": [0.0] * 50,
                 "tenant": "cam-http"},
            )
            assert status == 200, ingested
            assert ingested["ingested"] == 50
            status, readout = await post_json(
                "127.0.0.1", port, f"/stream/{stream_id}"
            )
            assert status == 200, readout
            assert readout["count"] == 50
            status, missing = await post_json(
                "127.0.0.1", port, "/stream/s9999"
            )
            assert status == 400, missing
            status, stats = await post_json("127.0.0.1", port, "/stats")
            assert stats["streams"] == 1
            assert stats["counters"]["stream_requests"] == 2
            assert stats["counters"]["stream_opens"] == 1
            return True

        assert run_with_daemon(scenario)
