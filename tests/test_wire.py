"""The shared HTTP/1.1 codec (``repro.wire``) and the two front ends on it.

One table of badly framed requests goes over raw sockets to a replica
(``BackgroundAsyncServer``) and to the fleet router in front of it
(``BackgroundRouter``).  Each must get exactly one response — the same
status line and JSON body from both — and then a close, with no
"Unhandled exception" in either event loop's log.  A Hypothesis
property feeds arbitrary bytes to the codec's readers.
"""

import asyncio
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import BackgroundRouter, FleetRouter
from repro.serve import BackgroundAsyncServer, LRUCache
from repro.wire import (Request, ServiceError, ServiceLimits, read_request,
                        read_response)


class _Engine:
    """The engine surface a replica needs to answer framing errors."""

    num_papers = 8
    freeze_seconds = 0.0

    def __init__(self) -> None:
        self.cache = LRUCache(8)

    def info(self) -> dict:
        return {"num_papers": self.num_papers}

    def predict(self, paper_ids):
        return np.asarray(paper_ids, dtype=np.float64)

    def rank(self, node_type, k=10, cluster=None):
        return []

    def score_title(self, title) -> float:
        return 0.0


def _head(*headers: str) -> bytes:
    lines = ["POST /predict HTTP/1.1", "Host: t", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


#: name -> (request bytes, expected status).  The client half-closes
#: after sending, so a short body ends in end of stream, not a stall.
FRAMING = {
    "content-length-abc": (_head("Content-Length: abc"), 400),
    "content-length-negative": (_head("Content-Length: -5"), 400),
    "content-length-conflict": (
        _head("Content-Length: 2", "Content-Length: 3") + b"{}", 400),
    "transfer-encoding": (_head("Transfer-Encoding: chunked"), 400),
    "headers-over-16k": (_head("X-Pad: " + "a" * (16 * 1024)), 431),
    "malformed-request-line": (b"NONSENSE\r\n\r\n", 400),
    "body-shorter-than-length": (
        _head("Content-Length: 512") + b'{"paper_ids": [1]}', 400),
    "body-over-1mib": (_head("Content-Length: 2000000"), 413),
}


@pytest.fixture(scope="module")
def front_ends():
    """{"replica": (host, port), "router": (host, port)}."""
    replica = BackgroundAsyncServer(_Engine())
    host, port = replica.start()
    router = FleetRouter()
    router.set_member("r0", host, port)
    front = BackgroundRouter(router)
    yield {"replica": (host, port), "router": front.start()}
    front.shutdown()
    replica.shutdown()


def _exchange(address, payload: bytes) -> bytes:
    """Send ``payload``, half-close, and read until the server closes."""
    chunks = []
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _parse_one(raw: bytes):
    """(status line, headers, body) of the only response in ``raw``."""
    head, sep, rest = raw.partition(b"\r\n\r\n")
    assert sep, f"no complete response head in {raw[:200]!r}"
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    assert len(rest) == length, "bytes after the one response"
    return status_line, headers, rest


@pytest.mark.parametrize("name", sorted(FRAMING))
def test_bad_framing_same_answer_from_router_and_replica(front_ends, name,
                                                         caplog):
    payload, status = FRAMING[name]
    answers = {}
    for side, address in front_ends.items():
        status_line, headers, body = _parse_one(_exchange(address, payload))
        assert status_line.split()[1] == str(status), (side, status_line)
        assert headers["connection"] == "close", side
        answers[side] = (status_line, body)
    assert answers["router"] == answers["replica"]
    assert not [r for r in caplog.records
                if "Unhandled exception" in r.getMessage()]


# ---------------------------------------------------------------------------
# Readers on arbitrary bytes
# ---------------------------------------------------------------------------
_START_LINES = [b"GET /healthz HTTP/1.1\r\n", b"POST /predict HTTP/1.1\r\n",
                b"HTTP/1.1 200 OK\r\n", b"HTTP/1.1 2x0 OK\r\n",
                b"NONSENSE\r\n", b""]
_HEADER_LINES = [b"Content-Length: 3\r\n", b"Content-Length: 70\r\n",
                 b"Content-Length: -5\r\n", b"Content-Length: x\r\n",
                 "Content-Length: \u00b2\r\n".encode("latin-1"),
                 b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
                 b"X: y\r\n", b"no colon\r\n"]

#: Raw bytes, plus messages assembled from plausible pieces so the
#: readers get past the start line and into header and body framing.
_STREAMS = st.one_of(
    st.binary(max_size=512),
    st.builds(
        lambda start, headers, end, body: start + b"".join(headers) + end
        + body,
        st.sampled_from(_START_LINES),
        st.lists(st.one_of(st.sampled_from(_HEADER_LINES),
                           st.binary(max_size=12)), max_size=6),
        st.sampled_from([b"\r\n", b"\n", b""]),
        st.binary(max_size=80)),
)

_LIMITS = ServiceLimits(max_body_bytes=64)


def _reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _outcome(coro_fn, data: bytes):
    async def run():
        try:
            return await coro_fn(_reader(data))
        except Exception as exc:  # noqa: BLE001 — classified by the caller
            return exc

    return asyncio.run(run())


@settings(max_examples=200, deadline=None)
@given(_STREAMS)
def test_request_reader_parses_ends_or_raises_service_error(data):
    out = _outcome(lambda r: read_request(r, _LIMITS), data)
    if isinstance(out, ServiceError):
        assert out.status in (400, 413, 431)
    elif out is not None:
        assert isinstance(out, Request)
        assert len(out.body) == int(out.headers.get("content-length", 0))
        assert len(out.body) <= _LIMITS.max_body_bytes


@settings(max_examples=200, deadline=None)
@given(_STREAMS)
def test_response_reader_parses_or_fails_like_a_dead_connection(data):
    out = _outcome(read_response, data)
    if isinstance(out, ServiceError):
        assert out.status == 502
    elif isinstance(out, BaseException):
        # The router fails over on exactly these.
        assert isinstance(out, (ConnectionResetError,
                                asyncio.IncompleteReadError)), repr(out)
    else:
        status, headers, body = out
        assert 100 <= status <= 999
        assert len(body) == int(headers.get("content-length", 0))


def test_request_reader_idle_deadline_closes_quietly():
    async def run():
        reader = asyncio.StreamReader()  # a client that never sends
        return await read_request(reader, ServiceLimits(read_timeout=0.05))

    assert asyncio.run(run()) is None


def test_request_reader_body_deadline_is_a_400():
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(_head("Content-Length: 10") + b"{")
        await read_request(reader, ServiceLimits(read_timeout=0.05))

    with pytest.raises(ServiceError) as info:
        asyncio.run(run())
    assert info.value.status == 400 and "truncated" in info.value.message
    assert info.value.path == "/predict"

