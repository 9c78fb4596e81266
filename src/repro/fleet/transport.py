"""Fault-hardened TCP message transport for the fleet (DESIGN §18).

Everything the fleet does across a machine boundary — gradient exchange,
membership mirroring, router failover — rides this stdlib-only layer.
Its design rules, in order of importance:

1. **Every wait is bounded.**  Sockets are created with ``settimeout``
   (analyzer rule A007), every RPC carries a per-call deadline, and the
   only two terminal outcomes a caller can see are explicit:
   :class:`CallTimeout` (the peer exists but did not answer in time) and
   :class:`PeerDead` (no connection could be established within the
   deadline).  There is no code path that blocks forever on a dead peer.
2. **Corruption is loud.**  Frames are length-prefixed with a magic
   marker, a format version, a per-connection sequence number, and a
   CRC-32 of the payload.  Truncated, bit-flipped, replayed, or garbage
   bytes raise :class:`CodecError` — never a silent mis-parse, never an
   unbounded read hunting for a resync point.  A connection that errors
   is torn down; the client reconnects with capped, jittered backoff and
   re-sends (all fleet RPCs are idempotent or server-side deduplicated).
3. **Zombies are fenced.**  Membership and work assignment carry
   monotonic *fencing generations* (:class:`FenceRegistry`): when a
   member is declared dead and replaced, its generation is advanced, and
   any message its not-actually-dead predecessor later delivers fails
   the fence check instead of corrupting state.  Liveness itself is
   lease-based (:class:`LeaseTable`): a member that stops renewing is
   drained *before* anything it might still write is trusted.

Wire format (one frame)::

    offset  size  field
    0       2     magic  b"RF"
    2       1     version (1)
    3       1     flags (reserved, must be 0)
    4       4     sequence number, big-endian (per connection, from 0)
    8       4     payload length, big-endian
    12      4     CRC-32 of the payload, big-endian
    16      n     payload (one packed message)

Messages are JSON metadata plus zero-copy ``ndarray`` blobs: the packer
walks the object tree, swaps each array for a placeholder, and appends
``(dtype, shape, bytes)`` blobs after the JSON — so a float64 gradient
crosses the wire bit-exactly, which is what lets the TCP all-reduce
reproduce the shared-memory trajectory *bitwise*.

:class:`FaultyTransport` is a frame-aware TCP proxy for drills: it
decodes the stream, fires the ``fleet.transport.frame`` fault site per
frame, and honours drop / delay / duplicate / partition decisions made
by an armed :class:`~repro.resilience.faults.FaultInjector` — so every
failure mode this module defends against is a repeatable, seeded test.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..resilience import faults

__all__ = [
    "CodecError",
    "CallTimeout",
    "PeerDead",
    "Codec",
    "FrameDecoder",
    "FenceRegistry",
    "LeaseTable",
    "RpcClient",
    "RpcError",
    "RpcServer",
    "FaultyTransport",
    "FrameEvent",
    "backoff_delays",
    "pack_message",
    "unpack_message",
]

MAGIC = b"RF"
VERSION = 1
HEADER = struct.Struct(">2sBBIII")  # magic, version, flags, seq, len, crc
#: Frames larger than this are rejected outright — a corrupt length
#: field must not turn into an attempted multi-gigabyte read.
MAX_FRAME = 256 * 1024 * 1024
#: Default per-call deadline when the caller does not pass one.
DEFAULT_DEADLINE = 10.0
#: Reconnect backoff shape (first delay / cap), jittered per client.
RECONNECT_INITIAL = 0.05
RECONNECT_CAP = 1.0


class CodecError(Exception):
    """The byte stream is not a valid frame sequence (torn/garbage/replay)."""


class CallTimeout(Exception):
    """The peer accepted the connection but no response arrived in time."""


class PeerDead(Exception):
    """No connection could be established within the caller's deadline."""


# ----------------------------------------------------------------------
# Backoff with jitter
# ----------------------------------------------------------------------
def backoff_delays(initial: float, cap: float, *, factor: float = 2.0,
                   jitter: float = 0.5,
                   seed: Optional[int] = None) -> Iterator[float]:
    """Yield capped exponential backoff delays with seeded jitter.

    The n-th base delay is ``min(cap, initial * factor**n)``; the yielded
    delay is drawn uniformly from ``[base * (1 - jitter), base]``.  A
    fixed ``seed`` makes the sequence deterministic (timing tests pin
    it); distinct seeds de-correlate peers so N replicas restarting
    together do not re-probe in thundering-herd lockstep.
    """
    if initial <= 0 or cap <= 0:
        raise ValueError("backoff initial and cap must be positive")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = 0
    while True:
        base = min(cap, initial * (factor ** n))
        yield float(base * (1.0 - jitter * rng.random()))
        n += 1


# ----------------------------------------------------------------------
# Message packing: JSON metadata + raw ndarray blobs
# ----------------------------------------------------------------------
_ND_KEY = "__nd__"


def _strip_arrays(obj: Any, blobs: List[np.ndarray]) -> Any:
    """Replace every ndarray in ``obj`` with a blob-index placeholder."""
    if isinstance(obj, np.ndarray):
        blobs.append(np.ascontiguousarray(obj))
        return {_ND_KEY: len(blobs) - 1}
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CodecError(f"message dict keys must be str, "
                                 f"got {type(key).__name__}")
            if key == _ND_KEY:
                raise CodecError(f"key {_ND_KEY!r} is reserved")
            out[key] = _strip_arrays(value, blobs)
        return out
    if isinstance(obj, (list, tuple)):
        return [_strip_arrays(v, blobs) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise CodecError(f"unsupported message type: {type(obj).__name__}")


def _restore_arrays(obj: Any, blobs: List[np.ndarray]) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {_ND_KEY}:
            idx = obj[_ND_KEY]
            if not isinstance(idx, int) or not 0 <= idx < len(blobs):
                raise CodecError(f"array placeholder {idx!r} out of range")
            return blobs[idx]
        return {k: _restore_arrays(v, blobs) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_restore_arrays(v, blobs) for v in obj]
    return obj


def pack_message(obj: Any) -> bytes:
    """Serialize a JSON-able tree with embedded ndarrays into one payload."""
    blobs: List[np.ndarray] = []
    meta_obj = _strip_arrays(obj, blobs)
    meta = {
        "body": meta_obj,
        "arrays": [{"dtype": blob.dtype.str, "shape": list(blob.shape)}
                   for blob in blobs],
    }
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack(">I", len(meta_bytes)), meta_bytes]
    parts.extend(blob.tobytes() for blob in blobs)
    return b"".join(parts)


def unpack_message(payload: bytes) -> Any:
    """Inverse of :func:`pack_message`; raises :class:`CodecError` on rot."""
    if len(payload) < 4:
        raise CodecError("payload shorter than its metadata length prefix")
    (meta_len,) = struct.unpack_from(">I", payload, 0)
    if 4 + meta_len > len(payload):
        raise CodecError("metadata length prefix exceeds payload")
    try:
        meta = json.loads(payload[4:4 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or "body" not in meta:
        raise CodecError("metadata missing message body")
    specs = meta.get("arrays", [])
    if not isinstance(specs, list):
        raise CodecError("array table is not a list")
    blobs: List[np.ndarray] = []
    offset = 4 + meta_len
    for spec in specs:
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(s) for s in spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CodecError(f"bad array spec {spec!r}") from exc
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        if offset + nbytes > len(payload):
            raise CodecError("array blob extends past the payload")
        blobs.append(np.frombuffer(
            payload[offset:offset + nbytes], dtype=dtype).reshape(shape))
        offset += nbytes
    if offset != len(payload):
        raise CodecError(f"{len(payload) - offset} trailing bytes after "
                         "the last array blob")
    return _restore_arrays(meta["body"], blobs)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class Codec:
    """Stateless frame encoder: header + checksum around one payload."""

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = int(max_frame)

    def encode_frame(self, payload: bytes, seq: int) -> bytes:
        if len(payload) > self.max_frame:
            raise CodecError(f"payload of {len(payload)} bytes exceeds the "
                             f"{self.max_frame}-byte frame cap")
        return HEADER.pack(MAGIC, VERSION, 0, seq & 0xFFFFFFFF,
                           len(payload), zlib.crc32(payload)) + payload

    def encode_message(self, obj: Any, seq: int) -> bytes:
        return self.encode_frame(pack_message(obj), seq)


class FrameDecoder:
    """Incremental frame parser over a byte stream.

    ``feed(data)`` returns every frame payload completed by ``data``;
    partial frames wait for more bytes.  Any protocol violation — bad
    magic, unknown version, nonzero flags, oversized length, checksum
    mismatch, or an out-of-order/replayed sequence number — raises
    :class:`CodecError` and poisons the decoder (the stream has no
    trustworthy resync point once framing is lost).
    """

    def __init__(self, max_frame: int = MAX_FRAME,
                 check_seq: bool = True) -> None:
        self.max_frame = int(max_frame)
        self.check_seq = bool(check_seq)
        self._buf = bytearray()
        self._expected_seq = 0
        self._poisoned: Optional[str] = None

    def _fail(self, message: str) -> CodecError:
        self._poisoned = message
        return CodecError(message)

    def feed(self, data: bytes) -> List[bytes]:
        if self._poisoned is not None:
            raise CodecError(f"decoder poisoned: {self._poisoned}")
        self._buf.extend(data)
        frames: List[bytes] = []
        while True:
            if len(self._buf) < HEADER.size:
                # Even a partial header can already be provably garbage.
                if self._buf and not MAGIC.startswith(
                        bytes(self._buf[:len(MAGIC)])):
                    raise self._fail("bad frame magic")
                return frames
            magic, version, flags, seq, length, crc = HEADER.unpack_from(
                self._buf, 0)
            if magic != MAGIC:
                raise self._fail("bad frame magic")
            if version != VERSION:
                raise self._fail(f"unsupported frame version {version}")
            if flags != 0:
                raise self._fail(f"nonzero reserved flags {flags:#x}")
            if length > self.max_frame:
                raise self._fail(f"frame length {length} exceeds the "
                                 f"{self.max_frame}-byte cap")
            if len(self._buf) < HEADER.size + length:
                return frames
            payload = bytes(self._buf[HEADER.size:HEADER.size + length])
            del self._buf[:HEADER.size + length]
            if zlib.crc32(payload) != crc:
                raise self._fail("frame checksum mismatch")
            if self.check_seq:
                if seq != self._expected_seq & 0xFFFFFFFF:
                    raise self._fail(
                        f"frame sequence {seq} != expected "
                        f"{self._expected_seq & 0xFFFFFFFF} "
                        "(duplicated or reordered frame)")
                self._expected_seq += 1
            frames.append(payload)


# ----------------------------------------------------------------------
# Fencing + leases
# ----------------------------------------------------------------------
class FenceRegistry:
    """Monotonic per-member fencing generations.

    ``advance(name)`` declares the current holder dead and returns the
    successor's generation; ``check(name, gen)`` is True only for the
    *latest* generation.  A zombie predecessor presenting a stale
    generation is rejected — the write it was about to make is the state
    corruption this class exists to prevent.
    """

    def __init__(self) -> None:
        self._gens: Dict[str, int] = {}  # guarded-by: _lock
        self._rejections: List[Dict[str, Any]] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    def current(self, name: str) -> int:
        with self._lock:
            return self._gens.setdefault(name, 0)

    def advance(self, name: str) -> int:
        with self._lock:
            self._gens[name] = self._gens.get(name, 0) + 1
            return self._gens[name]

    def check(self, name: str, gen: int, context: str = "") -> bool:
        """True iff ``gen`` is current; stale generations are logged."""
        with self._lock:
            current = self._gens.setdefault(name, 0)
            if gen == current:
                return True
            self._rejections.append({"member": name, "stale_gen": int(gen),
                                     "current_gen": int(current),
                                     "context": context})
            return False

    @property
    def rejections(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._rejections)


class LeaseTable:
    """Heartbeat leases: liveness = "renewed recently", nothing else.

    A member holds a lease while it keeps renewing within ``ttl``
    seconds.  ``expired()`` returns members whose lease lapsed *and
    drains them from the table* in the same step — callers must treat a
    drained member's pending writes as untrusted until it re-registers
    (pair with :class:`FenceRegistry` to enforce that).
    """

    def __init__(self, ttl: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.ttl = float(ttl)
        self._clock = clock
        self._deadlines: Dict[str, float] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def grant(self, name: str) -> None:
        with self._lock:
            self._deadlines[name] = self._clock() + self.ttl

    renew = grant

    def drop(self, name: str) -> None:
        with self._lock:
            self._deadlines.pop(name, None)

    def members(self) -> List[str]:
        with self._lock:
            return sorted(self._deadlines)

    def remaining(self, name: str) -> Optional[float]:
        with self._lock:
            deadline = self._deadlines.get(name)
        if deadline is None:
            return None
        return deadline - self._clock()

    def held(self, name: str) -> bool:
        remaining = self.remaining(name)
        return remaining is not None and remaining > 0

    def expired(self) -> List[str]:
        """Members whose lease lapsed; each is drained as it is reported."""
        now = self._clock()
        with self._lock:
            lapsed = sorted(n for n, d in self._deadlines.items() if d <= now)
            for name in lapsed:
                del self._deadlines[name]
        return lapsed


# ----------------------------------------------------------------------
# RPC server
# ----------------------------------------------------------------------
#: Accept-loop poll granularity; bounds how long stop() can lag.
_ACCEPT_POLL = 0.2
#: Per-connection idle read timeout slice (loop re-checks the stop flag).
_READ_POLL = 0.5


class RpcServer:
    """Threaded request/response server over the frame codec.

    ``handlers`` maps method names to ``fn(payload: dict) -> dict``.
    Each connection gets a thread; each request frame carries
    ``{"id", "method", "payload"}`` and is answered with
    ``{"id", "ok", "payload" | "error"}`` on the same connection.  A
    handler exception becomes an error response (the connection
    survives); a codec violation tears the connection down (the stream
    is untrustworthy) and is counted, never propagated.
    """

    def __init__(self, handlers: Dict[str, Callable[[dict], dict]], *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = MAX_FRAME) -> None:
        self.handlers = dict(handlers)
        self._host = host
        self._port = port
        self.codec = Codec(max_frame)
        self.max_frame = max_frame
        self._sock: Optional[socket.socket] = None  # not-guarded: start/stop only, one control thread
        self._accept_thread: Optional[threading.Thread] = None  # not-guarded: start/stop only, one control thread
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conn_threads: List[threading.Thread] = []  # guarded-by: _lock
        self.counters = {"connections": 0, "requests": 0, "errors": 0,
                         "codec_errors": 0}  # guarded-by: _lock

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.settimeout(_ACCEPT_POLL)
        sock.bind((self._host, self._port))
        sock.listen(128)
        self._sock = sock
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-rpc-accept")
        self._accept_thread.start()
        return sock.getsockname()[:2]

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
            self._accept_thread = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        with self._lock:
            threads = list(self._conn_threads)
        for thread in threads:
            thread.join(timeout=timeout)

    @property
    def address(self) -> Tuple[str, int]:
        if self._sock is None:
            raise RuntimeError("server not started")
        return self._sock.getsockname()[:2]

    # -- internals ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed under us during stop()
            conn.settimeout(_READ_POLL)
            with self._lock:
                self.counters["connections"] += 1
                self._conn_threads = [t for t in self._conn_threads
                                      if t.is_alive()]
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    daemon=True, name="repro-rpc-conn")
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        decoder = FrameDecoder(self.max_frame)
        seq_out = 0
        try:
            while not self._stop.is_set():
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not data:
                    return
                try:
                    payloads = decoder.feed(data)
                except CodecError:
                    with self._lock:
                        self.counters["codec_errors"] += 1
                    return
                for payload in payloads:
                    response = self._dispatch(payload)
                    frame = self.codec.encode_message(response, seq_out)
                    seq_out += 1
                    try:
                        conn.sendall(frame)
                    except OSError:
                        return
        finally:
            conn.close()

    def _dispatch(self, payload: bytes) -> dict:
        with self._lock:
            self.counters["requests"] += 1
        try:
            message = unpack_message(payload)
        except CodecError as exc:
            with self._lock:
                self.counters["codec_errors"] += 1
            return {"id": None, "ok": False, "error": f"bad message: {exc}"}
        call_id = message.get("id") if isinstance(message, dict) else None
        method = message.get("method") if isinstance(message, dict) else None
        handler = self.handlers.get(method)
        if handler is None:
            with self._lock:
                self.counters["errors"] += 1
            return {"id": call_id, "ok": False,
                    "error": f"unknown method {method!r}"}
        try:
            result = handler(message.get("payload") or {})
        except Exception as exc:  # noqa: BLE001 — handler faults become error responses
            with self._lock:
                self.counters["errors"] += 1
            return {"id": call_id, "ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}
        return {"id": call_id, "ok": True, "payload": result}


class RpcError(Exception):
    """The peer answered, but the handler reported an error."""


# ----------------------------------------------------------------------
# RPC client
# ----------------------------------------------------------------------
class RpcClient:
    """One connection to an :class:`RpcServer`, with bounded everything.

    Not thread-safe: each worker/standby owns its own client.  ``call``
    either returns the response payload or raises one of exactly three
    exceptions: :class:`PeerDead` (could not connect within the
    deadline), :class:`CallTimeout` (connected, no answer in time), or
    :class:`RpcError` (the peer answered with a handler error).
    Reconnects use capped exponential backoff with seeded jitter;
    responses with stale call ids (duplicates of timed-out calls) are
    discarded, counted, and never mis-delivered.
    """

    def __init__(self, host: str, port: int, *,
                 max_frame: int = MAX_FRAME,
                 backoff_initial: float = RECONNECT_INITIAL,
                 backoff_cap: float = RECONNECT_CAP,
                 jitter_seed: Optional[int] = None) -> None:
        self.host = host
        self.port = port
        self.codec = Codec(max_frame)
        self.max_frame = max_frame
        self._backoff_initial = backoff_initial
        self._backoff_cap = backoff_cap
        self._jitter_seed = jitter_seed
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder(max_frame)
        self._seq = 0
        self._call_id = 0
        self.stats = {"calls": 0, "reconnects": 0, "timeouts": 0,
                      "stale_responses": 0, "codec_errors": 0}

    # -- connection management -----------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _drop_connection(self) -> None:
        self.close()
        self._decoder = FrameDecoder(self.max_frame)
        self._seq = 0

    def _connect(self, deadline: float) -> None:
        """(Re)connect before ``deadline`` or raise :class:`PeerDead`."""
        delays = backoff_delays(self._backoff_initial, self._backoff_cap,
                                seed=self._jitter_seed)
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PeerDead(
                    f"{self.host}:{self.port} unreachable after "
                    f"{attempt} connection attempts")
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.settimeout(max(0.01, min(remaining, 5.0)))
            try:
                sock.connect((self.host, self.port))
            except OSError:
                sock.close()
                attempt += 1
                if attempt > 1:
                    self.stats["reconnects"] += 1
                pause = min(next(delays), max(0.0, deadline - time.monotonic()))
                if pause > 0:
                    time.sleep(pause)
                continue
            self._sock = sock
            self._decoder = FrameDecoder(self.max_frame)
            self._seq = 0
            return

    # -- calls ----------------------------------------------------------
    def call(self, method: str, payload: Optional[dict] = None, *,
             deadline: float = DEFAULT_DEADLINE) -> dict:
        self.stats["calls"] += 1
        self._call_id += 1
        call_id = self._call_id
        limit = time.monotonic() + deadline
        request = {"id": call_id, "method": method,
                   "payload": payload or {}}
        while True:
            if self._sock is None:
                self._connect(limit)
            try:
                frame = self.codec.encode_message(request, self._seq)
                self._seq += 1
                self._sock.sendall(frame)
                return self._await_response(call_id, limit)
            except (OSError, CodecError) as exc:
                if isinstance(exc, CodecError):
                    self.stats["codec_errors"] += 1
                self._drop_connection()
                if time.monotonic() >= limit:
                    raise PeerDead(
                        f"{self.host}:{self.port} dropped the connection "
                        f"and the deadline passed: {exc}") from exc
                # Loop: reconnect and re-send (idempotent / deduplicated).

    def _await_response(self, call_id: int, limit: float) -> dict:
        while True:
            remaining = limit - time.monotonic()
            if remaining <= 0:
                self.stats["timeouts"] += 1
                raise CallTimeout(
                    f"no response to call {call_id} from "
                    f"{self.host}:{self.port} within the deadline")
            self._sock.settimeout(min(remaining, _READ_POLL))
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                continue
            if not data:
                raise ConnectionResetError("server closed the connection")
            for payload in self._decoder.feed(data):
                message = unpack_message(payload)
                if message.get("id") != call_id:
                    # A duplicate answer to an earlier, timed-out call.
                    self.stats["stale_responses"] += 1
                    continue
                if not message.get("ok"):
                    raise RpcError(str(message.get("error")))
                return message.get("payload") or {}


# ----------------------------------------------------------------------
# Fault-injection proxy
# ----------------------------------------------------------------------
@dataclass
class FrameEvent:
    """One frame crossing a :class:`FaultyTransport`, open to mutation.

    Armed faults (site ``fleet.transport.frame``) mutate the decision
    fields; the proxy then honours them.  ``partition`` additionally
    flips the whole link into black-hole mode until healed.
    """

    link: str
    direction: str  # "up" (client->server) or "down"
    seq: int
    method: Optional[str] = None
    step: Optional[int] = None
    drop: bool = False
    delay_s: float = 0.0
    duplicate: bool = False
    partition: bool = False


class FaultyTransport:
    """Frame-aware TCP proxy: drop / delay / duplicate / partition.

    Sits between an :class:`RpcClient` and an :class:`RpcServer`,
    re-framing the stream so faults operate on whole frames (a dropped
    frame is a cleanly missing message, not a torn one — tearing is the
    codec suite's job).  Forwarded frames are re-encoded with the
    proxy's own per-direction sequence numbers, so dropping a frame
    does not spuriously poison the receiver's decoder; a *duplicated*
    frame is forwarded with its sequence number repeated, which the
    receiving decoder rejects exactly as a real replay.

    While partitioned, the proxy accepts connections but forwards
    nothing in either direction — the realistic netsplit: peers block
    until their own deadlines fire, which is precisely what this layer's
    deadlines exist for.
    """

    def __init__(self, upstream: Tuple[str, int], *, link: str = "link",
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = MAX_FRAME) -> None:
        self.upstream = upstream
        self.link = link
        self._host = host
        self._port = port
        self.codec = Codec(max_frame)
        self.max_frame = max_frame
        self._sock: Optional[socket.socket] = None  # not-guarded: start/stop only, one control thread
        self._accept_thread: Optional[threading.Thread] = None  # not-guarded: start/stop only, one control thread
        self._stop = threading.Event()
        self._partitioned = threading.Event()
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []  # guarded-by: _lock
        self.counters = {"forwarded": 0, "dropped": 0, "duplicated": 0,
                         "delayed": 0}  # guarded-by: _lock

    # -- drill controls -------------------------------------------------
    def set_partitioned(self, value: bool) -> None:
        if value:
            self._partitioned.set()
        else:
            self._partitioned.clear()

    @property
    def partitioned(self) -> bool:
        return self._partitioned.is_set()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.settimeout(_ACCEPT_POLL)
        sock.bind((self._host, self._port))
        sock.listen(64)
        self._sock = sock
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-faulty-proxy")
        self._accept_thread.start()
        return sock.getsockname()[:2]

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
            self._accept_thread = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)

    @property
    def address(self) -> Tuple[str, int]:
        if self._sock is None:
            raise RuntimeError("proxy not started")
        return self._sock.getsockname()[:2]

    # -- internals ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            upstream = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            upstream.settimeout(5.0)
            try:
                upstream.connect(self.upstream)
            except OSError:
                client.close()
                upstream.close()
                continue
            for sock, dst, direction in ((client, upstream, "up"),
                                         (upstream, client, "down")):
                sock.settimeout(_READ_POLL)
                with self._lock:
                    self._threads = [t for t in self._threads if t.is_alive()]
                    thread = threading.Thread(
                        target=self._pump, args=(sock, dst, direction),
                        daemon=True, name=f"repro-faulty-{direction}")
                    self._threads.append(thread)
                thread.start()

    def _pump(self, src: socket.socket, dst: socket.socket,
              direction: str) -> None:
        decoder = FrameDecoder(self.max_frame, check_seq=False)
        in_seq = 0
        # Forwarded frames get the proxy's own consecutive numbering, so a
        # *dropped* frame leaves no sequence gap to spuriously poison the
        # receiver; a *duplicated* frame repeats its number, which the
        # receiving decoder rejects exactly as it would a real replay.
        out_seq = 0
        try:
            while not self._stop.is_set():
                try:
                    data = src.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not data:
                    return
                try:
                    payloads = decoder.feed(data)
                except CodecError:
                    return  # unframeable stream: sever the link
                for payload in payloads:
                    event = self._frame_event(payload, direction, in_seq)
                    in_seq += 1
                    if event.partition:
                        self._partitioned.set()
                    if self._partitioned.is_set() or event.drop:
                        with self._lock:
                            self.counters["dropped"] += 1
                        continue
                    if event.delay_s > 0:
                        with self._lock:
                            self.counters["delayed"] += 1
                        time.sleep(event.delay_s)
                    frame = self.codec.encode_frame(payload, out_seq)
                    out_seq += 1
                    # Count before sending: once the bytes are out, the
                    # peer may answer and the caller may read the
                    # counters before this thread runs again.
                    with self._lock:
                        self.counters["forwarded"] += 1
                        if event.duplicate:
                            self.counters["duplicated"] += 1
                    try:
                        for _ in range(2 if event.duplicate else 1):
                            dst.sendall(frame)
                    except OSError:
                        return
        finally:
            src.close()
            dst.close()

    def _frame_event(self, payload: bytes, direction: str,
                     seq: int) -> FrameEvent:
        method = step = None
        try:
            message = unpack_message(payload)
            if isinstance(message, dict):
                method = message.get("method")
                inner = message.get("payload")
                if isinstance(inner, dict):
                    step = inner.get("step")
        except CodecError:  # noqa: R005 — opaque payloads still forward
            pass
        event = FrameEvent(link=self.link, direction=direction, seq=seq,
                           method=method, step=step)
        faults.fire("fleet.transport.frame", event=event, link=self.link,
                    direction=direction, method=method, step=step)
        return event
