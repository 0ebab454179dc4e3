"""A small asyncio HTTP client and the open- and closed-loop generators.

Every request body is encoded before its phase starts, so the timed
region holds only connect, write, read and close. The daemon answers
each request on its own connection (``Connection: close``), so a
request "in flight" is one open connection. One process runs one event
loop and no threads.

Each request carries ``X-Repro-Trace-Id``: the daemon adopts it as the
request's trace id, which is how traced daemon spans are matched back to
the client's latency sample.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


def encode(path: str, body: bytes, rid: str) -> bytes:
    """One complete POST request, ready to write."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: perf\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"X-Repro-Trace-Id: {rid}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


@dataclass
class Sample:
    """One finished request, timed on ``time.perf_counter``.

    Attributes:
        rid: Request id (the trace id sent to the daemon).
        due: When the request was due (open loop) or sent (closed loop).
        end: When the whole response had been read.
        status: HTTP status, or 0 when the exchange failed.
        body: Raw response body.
        tag: The caller's label for the request (its payload).
    """

    rid: str
    due: float
    end: float
    status: int
    body: bytes
    tag: object = None

    @property
    def latency(self) -> float:
        """Seconds from due time to the last response byte."""
        return self.end - self.due


async def exchange(host: str, port: int, raw: bytes) -> tuple[int, bytes]:
    """Send one pre-encoded request; return (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        data = await reader.read()
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, body


async def timed(host, port, raw, rid, due, tag=None) -> Sample:
    """One exchange as a :class:`Sample`; transport errors become status 0."""
    try:
        status, body = await exchange(host, port, raw)
    except (OSError, asyncio.IncompleteReadError) as error:
        status, body = 0, str(error).encode()
    return Sample(rid, due, time.perf_counter(), status, body, tag)


async def open_loop(host, port, schedule, slots, samples, late):
    """Send ``schedule`` on time, with at most ``slots`` in flight.

    Args:
        schedule: ``(offset_seconds, raw, rid, tag)`` tuples, ascending.
        slots: Connections allowed in flight; a request whose turn comes
            while all are busy waits, and that wait counts in its
            latency, which runs from the due time.
        samples: List the finished samples are appended to.
        late: List receiving, for each request the generator slept
            for, how late it woke (the generator's own lag).
    """
    gate = asyncio.Semaphore(slots)
    tasks = []
    start = time.perf_counter()

    async def send(raw, rid, due, tag):
        try:
            samples.append(await timed(host, port, raw, rid, due, tag))
        finally:
            gate.release()

    for offset, raw, rid, tag in schedule:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
            late.append(time.perf_counter() - due)
        await gate.acquire()
        tasks.append(asyncio.create_task(send(raw, rid, due, tag)))
    await asyncio.gather(*tasks)


async def closed_loop(host, port, requests, deadline, samples):
    """Send ``requests`` back to back until ``deadline``.

    Args:
        requests: Iterator of ``(raw, rid, tag)``; may be a generator
            that reads earlier samples (stream sessions do).
        deadline: ``perf_counter`` time after which no request starts.
        samples: List the finished samples are appended to.
    """
    for raw, rid, tag in requests:
        now = time.perf_counter()
        if now >= deadline:
            break
        samples.append(await timed(host, port, raw, rid, now, tag))
