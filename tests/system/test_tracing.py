"""Tests for distributed trace propagation and the trace ring.

The contracts under test:

- **Context minting**: inbound ``X-Repro-Trace-Id`` values are honoured
  when well-formed and replaced when hostile; contexts chain
  parent→child through nested spans on one task.
- **Clock anchoring** (regression): spans recorded inside pool worker
  processes carry real epoch-aligned wall-clock starts that land inside
  the parent's map interval — before anchoring they deserialized with
  ``start == 0.0`` and rendered as a bogus 1970 timeline.
- **Ring semantics**: bounded capacity, id-or-prefix lookup, newest-
  first summaries.
- **Bounded span memory** (regression): a collecting registry keeps at
  most ``RING_CAPACITY`` records however many requests are traced.
- **Flight recorder**: dumps annotate the active run and append a
  standalone schema-valid ledger record immediately.
- **End-to-end continuity**: one trace id spans the HTTP handler, the
  coalesced micro-batch kernel span and the ``/traces`` readout, and
  concurrent requests nest within their own trace (regression: a
  span's parent is the innermost span open on its own task, never one
  opened by another request).
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from repro.system import shm, telemetry
from repro.system.observe import trace
from repro.system.executor import (
    ExecutorConfig,
    ParallelExecutor,
    shutdown_pool,
)
from repro.system.observe import ledger as run_ledger
from repro.system.observe import tracing
from repro.system.serve import ServeConfig, ServeDaemon, post_json
from repro.system.telemetry import MetricsSnapshot, SpanRecord

FRAMES = 1200


def _triple(value: int) -> int:
    """Picklable unit for pool dispatch tests."""
    return value * 3


@pytest.fixture(autouse=True)
def clean_process_state():
    shutdown_pool()
    shm.release_all()
    tracing.ring().clear()
    yield
    shutdown_pool()
    shm.release_all()
    tracing.ring().clear()
    if telemetry.enabled():
        telemetry.disable()


class TestTraceContext:
    def test_mint_generates_distinct_ids(self):
        a, b = tracing.mint(), tracing.mint()
        assert a.trace_id != b.trace_id
        assert a.parent_span_id is None

    def test_mint_honours_wellformed_inbound_id(self):
        ctx = tracing.mint(trace_id="FEEDFACE00112233")
        assert ctx.trace_id == "feedface00112233"

    @pytest.mark.parametrize(
        "hostile",
        [
            "not hex at all!",
            "a" * 65,
            "",
            "   ",
            'abc"def',
            "abc\ndef",
        ],
    )
    def test_mint_discards_hostile_inbound_id(self, hostile):
        ctx = tracing.mint(trace_id=hostile)
        assert ctx.trace_id != hostile
        assert tracing.TRACE_ID_PATTERN.match(ctx.trace_id)

    def test_child_keeps_trace_and_tenant(self):
        root = tracing.mint(tenant="acme")
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.tenant == "acme"
        assert child.span_id != root.span_id

    def test_nested_spans_chain_parent_child(self):
        with tracing.use(tracing.mint()):
            with tracing.span("outer") as outer:
                with tracing.span("inner") as inner:
                    assert inner.trace_id == outer.trace_id
                    assert inner.parent_span_id == outer.span_id
        events = {e.name: e for e in tracing.ring().events()}
        assert events["inner"].parent_span_id == events["outer"].span_id

    def test_context_restored_after_span(self):
        assert tracing.current_context() is None
        with tracing.span("solo"):
            assert tracing.current_context() is not None
        assert tracing.current_context() is None

    def test_run_with_installs_context(self):
        ctx = tracing.mint(tenant="t1")
        seen = tracing.run_with(ctx, tracing.current_context)
        assert seen is ctx
        assert tracing.current_context() is None


class TestTraceRing:
    def test_capacity_bounded(self):
        ring = tracing.TraceRing(capacity=4)
        for index in range(10):
            ring.record(
                SpanRecord(
                    trace_id=f"t{index}",
                    span_id=f"s{index}",
                    parent_span_id=None,
                    name="unit",
                    tenant=None,
                    start=float(index + 1),
                    duration=0.001,
                    pid=1,
                )
            )
        assert len(ring) == 4
        assert [e.trace_id for e in ring.events()] == ["t6", "t7", "t8", "t9"]

    def test_trace_lookup_exact_and_prefix(self):
        ring = tracing.TraceRing()
        for trace_id in ("abcd1234", "abff0000"):
            ring.record(
                SpanRecord(
                    trace_id=trace_id,
                    span_id="s",
                    parent_span_id=None,
                    name="unit",
                    tenant=None,
                    start=1.0,
                    duration=0.0,
                    pid=1,
                )
            )
        assert [e.trace_id for e in ring.trace("abcd1234")] == ["abcd1234"]
        assert [e.trace_id for e in ring.trace("abff")] == ["abff0000"]
        assert ring.trace("zzz") == []

    def test_summaries_newest_first_with_roots(self):
        ring = tracing.TraceRing()
        for offset, trace_id in enumerate(("old", "new")):
            base = 100.0 + offset * 10
            ring.record(
                SpanRecord(
                    trace_id=trace_id,
                    span_id="root",
                    parent_span_id=None,
                    name="serve.request",
                    tenant="acme",
                    start=base,
                    duration=0.5,
                    pid=1,
                )
            )
            ring.record(
                SpanRecord(
                    trace_id=trace_id,
                    span_id="kid",
                    parent_span_id="root",
                    name="serve.estimate_rows",
                    tenant="acme",
                    start=base + 0.1,
                    duration=0.2,
                    pid=2,
                )
            )
        summaries = ring.traces()
        assert [s["trace_id"] for s in summaries] == ["new", "old"]
        top = summaries[0]
        assert top["root"] == "serve.request"
        assert top["spans"] == 2
        assert top["tenants"] == ["acme"]
        assert top["pids"] == [1, 2]
        assert top["duration_s"] == pytest.approx(0.5)

    def test_chrome_payload_round_trips_dict_events(self):
        with tracing.span("outer", flavour="x"):
            with tracing.span("inner"):
                pass
        dicts = [e.to_dict() for e in tracing.ring().events()]
        payload = trace.chrome_payload(SpanRecord.from_dict(d) for d in dicts)
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"outer", "inner"}
        inner = next(e for e in slices if e["name"] == "inner")
        outer = next(e for e in slices if e["name"] == "outer")
        assert inner["ts"] >= outer["ts"]
        assert inner["args"]["trace_id"] == outer["args"]["trace_id"]
        assert outer["args"]["flavour"] == "x"
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metadata and metadata[0]["args"]["name"].startswith("repro pid")


class TestSpanMemory:
    def test_registry_keeps_at_most_ring_capacity_records(self):
        """A daemon traces every request: its registry must stay bounded,
        also when the daemon runs inside a collecting CLI span."""
        registry = telemetry.enable()
        with telemetry.span("cli.serve"):
            for _ in range(tracing.RING_CAPACITY + 10):
                with tracing.use(tracing.mint()):
                    with tracing.span("serve.request"):
                        pass
        snapshot = registry.snapshot()
        records = list(telemetry.iter_spans(snapshot))
        assert len(records) <= tracing.RING_CAPACITY
        assert snapshot.counters["telemetry.spans_dropped"] == 11
        assert len(tracing.ring()) == tracing.RING_CAPACITY


class TestWorkerSpanAnchoring:
    """Worker spans must sit on the parent's wall-clock timeline."""

    def test_worker_unit_spans_epoch_aligned(self):
        registry = telemetry.enable()
        before = time.time()
        results = ParallelExecutor(ExecutorConfig(workers=2)).map(
            _triple, list(range(8))
        )
        after = time.time()
        assert results == [value * 3 for value in range(8)]
        units = [
            record
            for record in telemetry.iter_spans(registry.snapshot())
            if record.name == "executor.unit"
        ]
        # The first unit is the in-process probe; the rest cross the pool.
        assert len(units) == 7
        for record in units:
            # Pre-anchoring these deserialized with start == 0.0 and the
            # Chrome exporter drew worker spans at the 1970 epoch.
            assert before - 1.0 <= record.start <= after + 1.0

    def test_worker_spans_ingested_into_ring_with_worker_pids(self):
        telemetry.enable()
        ParallelExecutor(ExecutorConfig(workers=2)).map(
            _triple, list(range(8))
        )
        events = tracing.ring().events()
        unit_events = [e for e in events if e.name == "executor.unit"]
        map_events = [e for e in events if e.name == "executor.map"]
        assert len(unit_events) == 7
        assert len(map_events) == 1
        map_event = map_events[0]
        for event in unit_events:
            assert event.trace_id == map_event.trace_id
            assert event.parent_span_id is not None
            assert event.pid != 0
        assert any(e.pid != os.getpid() for e in unit_events)

    def test_ingest_skips_untagged_spans(self):
        snapshot = MetricsSnapshot(
            spans=(
                SpanRecord(name="plain.kernel", duration=0.0, start=1.0),
                SpanRecord(
                    name="tagged",
                    duration=0.0,
                    start=1.0,
                    trace_id="cafe",
                    span_id="01",
                    pid=42,
                ),
            )
        )
        count = tracing.ingest_snapshot_spans(snapshot)
        assert count == 1
        events = tracing.ring().events()
        assert [e.name for e in events] == ["tagged"]
        assert events[0].pid == 42


class TestFlightRecorder:
    def test_dump_appends_standalone_ledger_record(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        with tracing.span("serve.request", endpoint="estimate"):
            pass
        run_ledger.begin_run("serve", {}, str(ledger))
        try:
            record = tracing.dump_flight_record(
                "unhandled_error", error="boom"
            )
        finally:
            run_ledger.finish_run(status="ok", exit_code=0)
        assert record["reason"] == "unhandled_error"
        assert record["error"] == "boom"
        assert [s["name"] for s in record["spans"]] == ["serve.request"]
        records = run_ledger.read_runs(ledger)
        flights = [r for r in records if r["command"] == "flight-recorder"]
        assert len(flights) == 1
        flight = flights[0]["facts"]["flight_record"]
        assert flight["reason"] == "unhandled_error"
        assert flight["spans"][0]["name"] == "serve.request"
        # The ordinary finish_run record carries the annotation too.
        finished = [r for r in records if r["command"] == "serve"]
        assert finished[0]["facts"]["flight_record"]["spans"] == 1

    def test_flight_record_has_the_finish_run_schema(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        run_ledger.begin_run("serve", {"port": 0}, str(ledger))
        try:
            tracing.dump_flight_record("sigquit")
        finally:
            run_ledger.finish_run(status="ok", exit_code=0)
        flight, finished = run_ledger.read_runs(ledger)
        assert flight["command"] == "flight-recorder"
        assert finished["command"] == "serve"
        assert set(flight) == set(finished)

    def test_dump_without_active_run_still_returns_record(self):
        with tracing.span("lonely"):
            pass
        record = tracing.dump_flight_record("sigquit")
        assert record["reason"] == "sigquit"
        assert record["error"] is None
        assert len(record["spans"]) == 1


class TestServeTraceContinuity:
    """One trace id spans HTTP handler → batcher → kernel span."""

    def _run(self, coro_factory):
        async def wrapped():
            daemon = ServeDaemon(
                ServeConfig(
                    port=0,
                    datasets=("ua-detrac",),
                    frames=FRAMES,
                )
            )
            port = await daemon.start()
            try:
                return await coro_factory(daemon, port)
            finally:
                await daemon.stop()

        return asyncio.run(wrapped())

    def test_inbound_header_threads_through_kernel(self):
        inbound = "feedface00112233"

        async def scenario(daemon, port):
            status, body = await post_json(
                "127.0.0.1",
                port,
                "/estimate",
                {"dataset": "ua-detrac", "fraction": 0.25, "seed": 3,
                 "tenant": "acme"},
                headers={"X-Repro-Trace-Id": inbound},
            )
            assert status == 200, body
            status, listing = await post_json("127.0.0.1", port, "/traces")
            assert status == 200
            ids = [t["trace_id"] for t in listing["traces"]]
            assert inbound in ids
            status, detail = await post_json(
                "127.0.0.1", port, f"/traces/{inbound}"
            )
            assert status == 200
            names = [span["name"] for span in detail["spans"]]
            assert "serve.request" in names
            assert "serve.estimate_rows" in names
            request_span = next(
                s for s in detail["spans"] if s["name"] == "serve.request"
            )
            kernel_span = next(
                s
                for s in detail["spans"]
                if s["name"] == "serve.estimate_rows"
            )
            assert request_span["tenant"] == "acme"
            assert request_span["attributes"]["endpoint"] == "estimate"
            assert kernel_span["trace_id"] == inbound
            # Prefix lookup works over the wire too.
            status, by_prefix = await post_json(
                "127.0.0.1", port, f"/traces/{inbound[:8]}"
            )
            assert status == 200
            assert by_prefix["trace_id"] == inbound
            return True

        assert self._run(scenario)

    def test_coalesced_batch_links_all_requests(self):
        async def scenario(daemon, port):
            payload = {"dataset": "ua-detrac", "fraction": 0.25}
            results = await asyncio.gather(
                *(
                    post_json(
                        "127.0.0.1",
                        port,
                        "/estimate",
                        {**payload, "seed": seed},
                        headers={
                            "X-Repro-Trace-Id": f"aaaa000000000{seed:03d}"
                        },
                    )
                    for seed in range(6)
                )
            )
            assert all(status == 200 for status, _ in results)
            kernel_events = [
                e
                for e in tracing.ring().events()
                if e.name == "serve.estimate_rows"
            ]
            assert kernel_events
            linked = set()
            for event in kernel_events:
                attrs = dict(event.attributes)
                linked.update(attrs.get("link_trace_ids", ()))
            assert linked == {f"aaaa000000000{seed:03d}" for seed in range(6)}
            return True

        assert self._run(scenario)

    def test_concurrent_requests_nest_within_their_own_trace(self):
        async def scenario(daemon, port):
            results = await asyncio.gather(
                *(
                    post_json(
                        "127.0.0.1",
                        port,
                        "/estimate",
                        # Distinct fractions: eight separate kernel calls
                        # instead of one batch linking every request.
                        {"dataset": "ua-detrac",
                         "fraction": 0.2 + 0.05 * seed, "seed": seed},
                        headers={
                            "X-Repro-Trace-Id": f"bbbb000000000{seed:03d}"
                        },
                    )
                    for seed in range(8)
                )
            )
            assert all(status == 200 for status, _ in results)
            return telemetry.registry().snapshot()

        snapshot = self._run(scenario)
        children = 0
        for parent in telemetry.iter_spans(snapshot):
            for child in parent.children:
                # A coalesced batch span continues its first request's
                # trace and links the others.
                links = dict(child.attributes).get("link_trace_ids", ())
                assert (
                    child.trace_id == parent.trace_id
                    or parent.trace_id in links
                ), (parent.name, parent.trace_id, child.name, child.trace_id)
                children += 1
        assert children == 8

    def test_scrape_endpoints_do_not_pollute_the_ring(self):
        async def scenario(daemon, port):
            for _ in range(3):
                status, _ = await post_json("127.0.0.1", port, "/stats")
                assert status == 200
                status, _ = await post_json("127.0.0.1", port, "/healthz")
                assert status == 200
            assert all(
                e.name != "serve.request" for e in tracing.ring().events()
            )
            return True

        assert self._run(scenario)

    def test_stats_exposes_slo_window(self):
        async def scenario(daemon, port):
            for seed in range(4):
                status, _ = await post_json(
                    "127.0.0.1",
                    port,
                    "/estimate",
                    {"dataset": "ua-detrac", "fraction": 0.25, "seed": seed},
                )
                assert status == 200
            status, stats = await post_json("127.0.0.1", port, "/stats")
            assert status == 200
            slo = stats["slo"]
            assert "estimate" in slo
            window = slo["estimate"]
            assert window["count"] == 4
            assert 0 < window["p50_seconds"] <= window["p99_seconds"]
            return True

        assert self._run(scenario)
