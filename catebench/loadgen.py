"""Closed-loop HTTP/1.1 load generator.

Benchmark-owned on purpose: a change to the program's own client code
cannot change the load.  Each of ``connections`` keep-alive connections
sends its next pre-encoded request only after the previous response has
been read in full; connection ``c`` replays script entries ``c``,
``c + connections``, ... and wraps around at the end of the script.

A request is timed from its first byte written to the last byte of its
response read.  A non-200 answer, a connection error or a timeout is a
failed request: its latency is ``+inf``, and the connection is re-dialed
before the next request.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, NamedTuple, Sequence, Tuple

from catebench.measure import INF

#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 10.0


class Exchange(NamedTuple):
    index: int  # position in the request script
    start: float  # time.perf_counter() at the first byte sent
    end: float  # time.perf_counter() after the last byte received
    status: int  # HTTP status, 0 when the exchange failed below HTTP
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.end - self.start if self.ok else INF


def encode_post(body: bytes, path: str = "/predict") -> bytes:
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n")
    return head.encode() + body


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {status_line!r}")
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return int(parts[1]), await reader.readexactly(length)


async def _connection(host: str, port: int, payloads: Sequence[bytes],
                      first: int, stride: int, stop_at: float,
                      out: List[Exchange]) -> None:
    reader = writer = None
    index = first
    try:
        while time.perf_counter() < stop_at:
            position = index % len(payloads)
            index += stride
            start = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port), REQUEST_TIMEOUT)
                writer.write(payloads[position])
                status, body = await asyncio.wait_for(
                    _drain_and_read(writer, reader), REQUEST_TIMEOUT)
            except (OSError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                out.append(Exchange(position, start, time.perf_counter(),
                                    0, b""))
                if writer is not None:
                    writer.close()
                    reader = writer = None
                continue
            out.append(Exchange(position, start, time.perf_counter(),
                                status, body))
    finally:
        if writer is not None:
            writer.close()


async def _drain_and_read(writer: asyncio.StreamWriter,
                          reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    await writer.drain()
    return await _read_response(reader)


def closed_loop(host: str, port: int, payloads: Sequence[bytes],
                connections: int, seconds: float) -> List[Exchange]:
    """Drive the server for ``seconds``; in-flight requests then finish."""

    async def main() -> List[Exchange]:
        out: List[Exchange] = []
        stop_at = time.perf_counter() + seconds
        await asyncio.gather(*(
            _connection(host, port, payloads, c, connections, stop_at, out)
            for c in range(connections)))
        return out

    return asyncio.run(main())

