"""Open-loop HTTP load generator.

Each request has a due time fixed before the run starts; the generator
sends it then, whether or not earlier requests have been answered, so a
server stall makes later requests wait instead of slowing the offered
load.  Requests are pipelined over a few keep-alive connections (HTTP/1.1
answers them in order on each connection).  Latency is timed from the due
time; the generator's own lateness (send time minus due time) is reported
separately.  Times are ``time.monotonic()``, which every process on the
host shares, so they compare with the server process's write stamps.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    """One scheduled request: ``status`` is 0 when no answer arrived."""

    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    epoch: int | None = None


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip() or 0)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _run(host: str, port: int, schedule, connections: int, drain_s: float):
    outcomes = [Outcome(kind, due) for due, _, kind in schedule]
    finished = asyncio.Event()
    if not outcomes:
        return outcomes
    remaining = [len(outcomes)]

    def settle():
        remaining[0] -= 1
        if remaining[0] == 0:
            finished.set()

    streams = []
    for _ in range(connections):
        try:
            streams.append(await asyncio.open_connection(host, port))
        except OSError:
            streams.append(None)
    inflight = [collections.deque() for _ in streams]

    async def read_loop(index: int) -> None:
        reader = streams[index][0]
        queue = inflight[index]
        while True:
            try:
                status, body = await _read_response(reader)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                while queue:
                    queue.popleft()
                    settle()
                return
            if not queue:
                return
            outcome = outcomes[queue.popleft()]
            outcome.done = time.monotonic()
            outcome.status = status
            if status == 200:
                outcome.epoch = json.loads(body).get("epoch")
            settle()

    readers = [
        asyncio.create_task(read_loop(i)) for i, s in enumerate(streams) if s is not None
    ]
    try:
        for index, (due, path, _) in enumerate(schedule):
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            stream = streams[index % len(streams)]
            outcome = outcomes[index]
            outcome.sent = time.monotonic()
            if stream is None or stream[1].is_closing():
                settle()
                continue
            inflight[index % len(streams)].append(index)
            stream[1].write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin1"))
        try:
            await asyncio.wait_for(finished.wait(), timeout=drain_s)
        except asyncio.TimeoutError:
            pass
    finally:
        for stream in streams:
            if stream is not None:
                stream[1].close()
        for task in readers:
            task.cancel()
        for task in readers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for stream in streams:
            if stream is not None:
                try:
                    await stream[1].wait_closed()
                except (ConnectionError, OSError):
                    pass
    return outcomes


def run_schedule(
    host: str, port: int, schedule, connections: int = 2, drain_s: float = 15.0
) -> list[Outcome]:
    """Send ``schedule`` — ``(due, path, kind)`` triples in due order — and
    return one :class:`Outcome` per request.  Requests still unanswered
    ``drain_s`` seconds after the last one was sent count as failed."""
    return asyncio.run(_run(host, port, list(schedule), connections, drain_s))
