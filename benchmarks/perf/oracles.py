"""Offline correctness oracles, run after timing so they cost it nothing.

Each recomputes the daemon's answers in this process through the same
public entry points and compares them bit for bit (as canonical JSON).
Every function returns the number of answers that differ.

- ``/bound``: :meth:`ServeSession.estimate_group` on the same payloads.
  Compatible requests are priced together, as the daemon batches them;
  ``batch_size`` is left out because batching may group them otherwise.
- ``/stream``: a replay of every session through ``stream_open`` and
  ``stream_ingest`` in the daemon's order.
- ``/profile``: ``profile_request`` with ``workers=1``; the fields that
  report timing or cache state are left out.

The sweep oracle re-runs its first roots inside the sweep child.
"""

from __future__ import annotations

import json


def _canonical(body: dict, drop=()) -> str:
    return json.dumps(
        {key: value for key, value in body.items() if key not in drop},
        sort_keys=True,
    )


def _session():
    from repro.system.serve import ServeConfig, ServeSession

    return ServeSession(ServeConfig(workers=1))


def check_bound(samples) -> int:
    """Compare ``/bound`` responses; ``sample.tag`` is the payload."""
    from repro.system.serve import QueryRequest

    session = _session()
    config = session.config
    groups: dict[tuple, list] = {}
    for sample in samples:
        request = QueryRequest.from_payload("bound", sample.tag, config)
        groups.setdefault(request.batch_key(), []).append((request, sample))
    mismatched = 0
    for members in groups.values():
        for start in range(0, len(members), config.max_batch):
            chunk = members[start : start + config.max_batch]
            expected = session.estimate_group([request for request, _ in chunk])
            for body, (_, sample) in zip(expected, chunk):
                got = json.loads(sample.body)
                drop = ("batch_size",)
                mismatched += _canonical(body, drop) != _canonical(got, drop)
    return mismatched


def check_stream(samples, skipped_opens: int) -> int:
    """Replay stream traffic in order and compare every readout.

    Args:
        samples: Responses in send order; ``sample.tag`` is the payload,
            and an ingest payload carries the stream id the daemon gave.
        skipped_opens: Streams the daemon opened before these samples
            (set-up traffic), so the replay's ids line up.
    """
    session = _session()
    for _ in range(skipped_opens):
        session.stream_open({})
    mismatched = 0
    for sample in samples:
        if "id" in sample.tag:
            body = session.stream_ingest(sample.tag)
        else:
            body = session.stream_open(sample.tag)
        mismatched += _canonical(body) != _canonical(json.loads(sample.body))
    return mismatched


def check_profile(samples) -> int:
    """Compare ``/profile`` responses; ``sample.tag`` is the payload."""
    from repro.system.serve import QueryRequest

    session = _session()
    drop = ("cached", "profile_seconds")
    mismatched = 0
    for sample in samples:
        request = QueryRequest.from_payload("profile", sample.tag, session.config)
        body = session.profile_request(request)
        mismatched += (
            _canonical(body, drop) != _canonical(json.loads(sample.body), drop)
        )
    return mismatched
