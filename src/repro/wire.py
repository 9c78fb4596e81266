"""Stdlib-only HTTP/1.1 codec shared by every front end (DESIGN §16).

The asyncio prediction server (:mod:`repro.serve.aio.server`) and the
fleet router (:mod:`repro.fleet.router`) read and write HTTP only
through this module, so both answer bad framing with the same bytes.
It is a leaf: it imports nothing from ``repro``, which keeps the
router's process free of the serving stack.

Framing rules
-------------
- Bodies are framed by ``Content-Length`` alone.  A non-numeric,
  negative or conflicting length, or any ``Transfer-Encoding`` header,
  is a ``400``; a length over ``max_body_bytes`` is a ``413`` before a
  single payload byte is read.
- The request line and headers together may not exceed
  :data:`MAX_HEADER_BYTES` (``431``).
- One deadline, ``read_timeout``, covers the read of a whole request.
  Expiry before the head is complete closes the connection without an
  answer (an idle keep-alive client); expiry inside the body is a
  ``400``.

:func:`read_request` raises :class:`ServiceError` for every framing
error; the caller answers it once, with ``close=True``, because the
rest of the stream can no longer be trusted.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from http import HTTPStatus
from typing import Dict, NamedTuple, Optional, Tuple

__all__ = ["MAX_HEADER_BYTES", "Request", "ServiceError", "ServiceLimits",
           "encode_request", "encode_response", "read_request",
           "read_response"]

#: Hard cap on request-line + header bytes (not payload, which has its
#: own ``max_body_bytes`` limit).
MAX_HEADER_BYTES = 16 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}


class ServiceError(Exception):
    """An HTTP-visible request error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        #: Set by :func:`read_request` to the path of the request line
        #: when it was parsed, so a server can count a framing error
        #: against the endpoint it was aimed at.
        self.path = ""


@dataclass
class ServiceLimits:
    """Operational guard-rails of an HTTP front end."""

    #: Reject request bodies whose Content-Length exceeds this (bytes).
    max_body_bytes: int = 1 << 20
    #: Seconds the client should wait before retrying after a shed.
    retry_after_seconds: int = 1
    #: Deadline (seconds) for reading one whole request, head and body.
    read_timeout: float = 5.0


class Request(NamedTuple):
    """One request as read off the wire."""

    method: str
    target: str
    headers: Dict[str, str]  # lower-cased names
    body: bytes

    @property
    def path(self) -> str:
        return self.target.partition("?")[0]

    @property
    def query(self) -> str:
        return self.target.partition("?")[2]

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class _Progress:
    """How far a request read got, for reporting a deadline expiry."""

    __slots__ = ("path", "length")

    def __init__(self) -> None:
        self.path = ""
        self.length: Optional[int] = None  # set once the head is parsed


async def read_request(reader: asyncio.StreamReader,
                       limits: ServiceLimits) -> Optional[Request]:
    """Read one request; ``None`` on a clean end of stream or idle expiry.

    Raises :class:`ServiceError` for bad framing, an oversized head or
    body, and a body cut short by end of stream or by the deadline.
    """
    progress = _Progress()
    try:
        return await asyncio.wait_for(
            _read_request(reader, limits, progress), limits.read_timeout)
    except asyncio.TimeoutError:
        if progress.length is None:
            return None
        error = ServiceError(
            400, f"request body truncated: Content-Length "
                 f"{progress.length} not received within "
                 f"{limits.read_timeout}s")
    except ServiceError as exc:
        error = exc
    error.path = progress.path
    raise error


async def _read_request(reader: asyncio.StreamReader, limits: ServiceLimits,
                        progress: _Progress) -> Optional[Request]:
    line = await _read_line(reader, 0)
    if not line.strip():
        return None  # the client closed (or sent a bare CRLF) between requests
    if not line.endswith(b"\n"):
        raise ServiceError(400, "request head truncated")
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServiceError(400, "malformed request line")
    method, target, _version = parts
    progress.path = target.partition("?")[0]
    headers = await _read_headers(reader, len(line))
    length = _content_length(headers)
    if length > limits.max_body_bytes:
        # Never read the oversized payload; the caller closes so unread
        # bytes cannot be misparsed as a follow-up request.
        raise ServiceError(
            413, f"request body of {length} bytes exceeds the "
                 f"{limits.max_body_bytes}-byte limit")
    progress.length = length
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ServiceError(
                400, f"request body truncated: Content-Length {length} but "
                     f"only {len(exc.partial)} bytes received") from None
    return Request(method, target, headers, body)


async def _read_line(reader: asyncio.StreamReader, used: int) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:  # one line longer than the stream's buffer limit
        raise ServiceError(431, "headers too large") from None
    if used + len(line) > MAX_HEADER_BYTES:
        raise ServiceError(431, "headers too large")
    return line


async def _read_headers(reader: asyncio.StreamReader,
                        used: int) -> Dict[str, str]:
    """Header lines up to the blank line, names lower-cased."""
    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader, used)
        used += len(raw)
        if raw in (b"\r\n", b"\n"):
            return headers
        if not raw.endswith(b"\n"):
            raise ServiceError(400, "message head truncated")
        name, sep, value = raw.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if not sep or not name:
            raise ServiceError(400, "malformed header line")
        if name == "content-length" and headers.get(name, value) != value:
            raise ServiceError(400, "conflicting Content-Length headers")
        headers[name] = value


def _content_length(headers: Dict[str, str]) -> int:
    if "transfer-encoding" in headers:
        raise ServiceError(400, "Transfer-Encoding is not supported; "
                                "frame the body with Content-Length")
    raw = headers.get("content-length", "0")
    if not _is_digits(raw):
        raise ServiceError(400, f"invalid Content-Length {raw!r}")
    return int(raw)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()  # "²".isdigit() is True


async def read_response(
        reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response from an upstream server: ``(status, headers, body)``.

    A connection the peer closed raises :class:`ConnectionResetError`;
    an answer that cannot be parsed raises :class:`ServiceError` (502).
    Either way the connection is unusable.  No deadline is applied here;
    the caller bounds the whole exchange.
    """
    try:
        line = await _read_line(reader, 0)
        if not line:
            raise ConnectionResetError("upstream closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
                or len(parts[1]) != 3 or not _is_digits(parts[1])):
            raise ServiceError(400, "malformed status line")
        headers = await _read_headers(reader, len(line))
        length = _content_length(headers)
    except ServiceError as exc:
        raise ServiceError(502, f"unparsable upstream response: "
                                f"{exc.message}") from None
    body = await reader.readexactly(length) if length else b""
    return int(parts[1]), headers, body


def encode_request(method: str, target: str, body: bytes,
                   host: str) -> bytes:
    """A keep-alive JSON request, as the router forwards it upstream."""
    head = (f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def encode_response(status: int, body: bytes, *, server: str,
                    close: bool = False,
                    headers: Optional[Dict[str, str]] = None) -> bytes:
    """A JSON response; ``close`` announces the connection's end."""
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Server: {server}",
            f"Connection: {'close' if close else 'keep-alive'}"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
