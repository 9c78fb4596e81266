"""Fleet front door: asyncio proxy with consistent-hash affinity (DESIGN §17).

The router owns no model state.  It reads each client request, computes
an affinity key from the method/target/body (so identical ``/predict``
bodies always hash to the same replica and hit its warm LRU cache),
forwards the request to that replica over a pooled keep-alive
connection, and relays the response — stamped with ``X-Fleet-Replica``
so tests and drills can observe placement.

Requests and responses are read and written only through the shared
codec in :mod:`repro.wire`, so the router enforces a replica's 413/431
caps and one read deadline per request, and answers bad framing with the
same status line and body a replica would.

Failover: connection-refused / reset / timeout errors, and replica
answers the codec cannot parse, walk the ring's successor list with
exponential backoff.  Predictions are idempotent reads, so replaying a
request against the next replica preserves exactly-once *responses*
(each client request yields exactly one response) even while a replica
is being killed and restarted under it.
A client only ever sees 503 when every member of the ring failed.

Locally answered endpoints:

- ``GET  /fleet/status`` — supervisor snapshot (members, restarts, ...)
- ``GET  /healthz``      — 200 while the ring has members
- ``GET  /metrics``      — router counters + per-replica metrics
- ``POST /admin/reload`` — delegates to the supervisor's rolling reload

Membership is mutated by the supervisor thread through
:meth:`FleetRouter.set_member` / :meth:`drop_member`; the ring and pools
are lock-guarded because those calls race the event loop's lookups.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..wire import (ServiceError, ServiceLimits, encode_request,
                    encode_response, read_request, read_response)
from .heartbeat import http_json
from .ring import HashRing

__all__ = ["FleetRouter", "BackgroundRouter"]

#: Seconds allowed for one TCP connect to a replica.
CONNECT_TIMEOUT = 3.0
#: Seconds allowed for a replica to answer one forwarded request.
RESPONSE_TIMEOUT = 60.0
#: First failover backoff; doubles per additional attempt.
FAILOVER_BACKOFF = 0.02
#: Extra full ring passes after the first (a just-restarted replica may
#: need one more probe round before it accepts connections).
RING_PASSES = 3
#: ``Server`` header of the router's responses.
SERVER_NAME = "repro-fleet-router/1.0"


class FleetRouter:
    """Consistent-hash HTTP proxy over the replica set."""

    def __init__(self, *, ring_seed: int = 0, vnodes: int = 64,
                 status_provider: Optional[Callable[[], dict]] = None,
                 reload_handler: Optional[Callable[[str], dict]] = None,
                 verbose: bool = False) -> None:
        self.ring = HashRing(vnodes=vnodes, seed=ring_seed)  # guarded-by: _lock
        self._addrs: Dict[str, Tuple[str, int]] = {}  # guarded-by: _lock
        self._pools: Dict[str, List[Tuple[asyncio.StreamReader,
                                          asyncio.StreamWriter]]] = {}
        self._lock = threading.Lock()
        self._status_provider = status_provider
        self._reload_handler = reload_handler
        self.verbose = verbose
        #: Client-side caps: the replica's defaults, so the router
        #: rejects exactly what a replica would.
        self.limits = ServiceLimits()
        self._server: Optional[asyncio.base_events.Server] = None
        self._counters = {"requests": 0, "forwarded": 0, "failovers": 0,
                          "unroutable": 0}  # guarded-by: _lock
        # Sequence-numbered membership op log: the warm standby mirrors
        # the ring by replaying ops it has not seen (DESIGN §18).
        self._member_seq = 0  # guarded-by: _lock
        self._member_log: List[dict] = []  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Membership (called from the supervisor thread)
    # ------------------------------------------------------------------
    def set_member(self, name: str, host: str, port: int) -> None:
        with self._lock:
            self._addrs[name] = (host, port)
            self.ring.add(name)
            self._member_seq += 1
            self._member_log.append({"seq": self._member_seq, "op": "set",
                                     "name": name, "host": host,
                                     "port": int(port)})

    def drop_member(self, name: str) -> None:
        """Drain: stop routing *new* requests at ``name``.

        In-flight forwards already own their pooled connection and
        finish normally; the pool itself is emptied so nothing re-uses a
        socket to a replica that may be about to die.
        """
        with self._lock:
            self.ring.remove(name)
            stale = self._pools.pop(name, [])
            self._member_seq += 1
            self._member_log.append({"seq": self._member_seq, "op": "drop",
                                     "name": name})
        for _, writer in stale:
            writer.close()

    def members(self) -> Dict[str, Tuple[str, int]]:
        with self._lock:
            return {n: self._addrs[n] for n in self.ring.nodes}

    def membership_since(self, since: int) -> Tuple[int, List[dict]]:
        """Ops later than sequence ``since``, for standby mirroring."""
        with self._lock:
            return (self._member_seq,
                    [op for op in self._member_log if op["seq"] > since])

    def apply_membership(self, ops: List[dict]) -> None:
        """Replay a peer's op log into this (mirror) router."""
        for op in ops:
            if op.get("op") == "set":
                self.set_member(op["name"], op["host"], int(op["port"]))
            elif op.get("op") == "drop":
                self.drop_member(op["name"])

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_client, host, port, backlog=2048)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            for _, writer in pool:
                writer.close()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (BrokenPipeError, ConnectionResetError):  # noqa: R005 — client hung up mid-exchange
            pass
        finally:
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), 5.0)
            except (OSError, asyncio.TimeoutError):  # noqa: R005 — client already gone
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        try:
            request = await read_request(reader, self.limits)
        except ServiceError as exc:
            await self._respond(writer, exc.status, {"error": exc.message},
                                close=True)
            return False
        if request is None:
            return False
        close = not request.keep_alive
        with self._lock:
            self._counters["requests"] += 1
        if self.verbose:
            print(f"fleet {request.method} {request.target}")

        local = await self._handle_local(request.method, request.path,
                                         request.body)
        if local is not None:
            payload, status = local
            await self._respond(writer, status, payload, close=close)
            return not close

        replica, status, resp_headers, resp_body = await self._forward(
            request.method, request.target, request.body)
        if replica is None:
            await self._respond(
                writer, 503,
                {"error": "no fleet replica reachable", "retry_after": 1},
                extra={"Retry-After": "1"}, close=close)
            return not close
        out_headers = {"X-Fleet-Replica": replica}
        if "retry-after" in resp_headers:
            out_headers["Retry-After"] = resp_headers["retry-after"]
        await self._respond_raw(writer, status, resp_body, out_headers,
                                close=close)
        return not close

    # ------------------------------------------------------------------
    # Local endpoints
    # ------------------------------------------------------------------
    async def _handle_local(self, method: str, path: str,
                            body: bytes) -> Optional[Tuple[dict, int]]:
        if path == "/fleet/status" and method == "GET":
            status = (self._status_provider()
                      if self._status_provider else {})
            with self._lock:
                status = dict(status)
                status["router"] = dict(self._counters)
                status["ring"] = list(self.ring.nodes)
            return status, 200
        if path == "/healthz" and method == "GET":
            with self._lock:
                members = len(self.ring)
            return {"status": "ok" if members else "unroutable",
                    "members": members}, (200 if members else 503)
        if path == "/metrics" and method == "GET":
            return await self._aggregate_metrics(), 200
        if path == "/admin/reload" and method == "POST":
            if self._reload_handler is None:
                return {"error": "fleet has no reload handler"}, 404
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError:
                return {"error": "invalid JSON body"}, 400
            ckpt = payload.get("path")
            if not isinstance(ckpt, str) or not ckpt:
                return {"error": "body must contain a checkpoint path"}, 400
            loop = asyncio.get_running_loop()
            # Rolling reload shadow-validates + swaps replica by replica:
            # seconds of blocking HTTP; keep it off the event loop.
            report = await loop.run_in_executor(
                None, self._reload_handler, ckpt)
            return report, (200 if report.get("reloaded") else 409)
        return None

    async def _aggregate_metrics(self) -> dict:
        members = self.members()
        loop = asyncio.get_running_loop()

        def _fetch(addr: Tuple[str, int]) -> dict:
            try:
                status, payload = http_json(addr[0], addr[1], "GET",
                                            "/metrics", timeout=5.0)
            except OSError as exc:
                return {"error": str(exc)}
            return payload if status == 200 else {"error": f"HTTP {status}"}

        per_replica = {}
        for name, addr in members.items():
            per_replica[name] = await loop.run_in_executor(None, _fetch, addr)
        with self._lock:
            counters = dict(self._counters)
        return {"fleet": counters, "replicas": per_replica}

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _route(self, method: str, target: str, body: bytes) -> List[str]:
        key = f"{method}|{target}|{body.decode('latin-1')}"
        with self._lock:
            if not len(self.ring):
                return []
            return self.ring.successors(key)

    async def _forward(self, method: str, target: str, body: bytes):
        """Try the affinity owner, then ring successors, with backoff.

        Returns ``(replica, status, resp_headers, resp_body)`` or
        ``(None, ...)`` when every attempt failed at the connection
        level or with an unparsable answer.  Membership is re-read
        between passes so a replica the supervisor restarts mid-request
        becomes routable again.
        """
        attempt = 0
        for _pass in range(1 + RING_PASSES):
            for name in self._route(method, target, body):
                with self._lock:
                    addr = self._addrs.get(name)
                    in_ring = name in self.ring
                if addr is None or not in_ring:
                    continue
                if attempt > 0:
                    with self._lock:
                        self._counters["failovers"] += 1
                    await asyncio.sleep(
                        min(1.0, FAILOVER_BACKOFF * (2 ** min(attempt, 6))))
                attempt += 1
                try:
                    result = await self._forward_once(
                        name, addr, method, target, body)
                except (OSError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError, ServiceError):
                    continue
                with self._lock:
                    self._counters["forwarded"] += 1
                return (name, *result)
        with self._lock:
            self._counters["unroutable"] += 1
        return None, 503, {}, b""

    async def _forward_once(self, name: str, addr: Tuple[str, int],
                            method: str, target: str, body: bytes):
        conn = self._checkout(name)
        if conn is None:
            conn = await asyncio.wait_for(
                asyncio.open_connection(addr[0], addr[1]), CONNECT_TIMEOUT)
        reader, writer = conn
        try:
            writer.write(encode_request(method, target, body,
                                        f"{addr[0]}:{addr[1]}"))
            await asyncio.wait_for(writer.drain(), RESPONSE_TIMEOUT)
            status, resp_headers, resp_body = await asyncio.wait_for(
                read_response(reader), RESPONSE_TIMEOUT)
        except BaseException:
            writer.close()
            raise
        self._checkin(name, reader, writer)
        return status, resp_headers, resp_body

    def _checkout(self, name: str):
        with self._lock:
            pool = self._pools.get(name)
            if pool:
                return pool.pop()
        return None

    def _checkin(self, name: str, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        with self._lock:
            if name in self.ring:
                self._pools.setdefault(name, []).append((reader, writer))
                return
        writer.close()

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, extra: Optional[Dict[str, str]] = None,
                       close: bool = False) -> None:
        await self._respond_raw(writer, status, json.dumps(payload).encode(),
                                extra or {}, close=close)

    async def _respond_raw(self, writer: asyncio.StreamWriter, status: int,
                           body: bytes, extra: Dict[str, str],
                           close: bool = False) -> None:
        writer.write(encode_response(status, body, server=SERVER_NAME,
                                     close=close, headers=extra))
        try:
            await asyncio.wait_for(writer.drain(), RESPONSE_TIMEOUT)
        except (OSError, asyncio.TimeoutError):  # noqa: R005 — client already gone
            pass


class BackgroundRouter:
    """The router on its own thread + event loop (mirrors the aio server)."""

    def __init__(self, router: FleetRouter, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.router = router
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True,
                                        name="repro-fleet-router")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("fleet router did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("fleet router failed to start") \
                from self._startup_error
        if self._bound is None:
            raise RuntimeError("fleet router reported ready without binding")
        return self._bound

    def shutdown(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None \
                and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # noqa: R005 — loop closed between check and call: already down
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _thread_main(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            try:
                self._bound = await self.router.start(self._host, self._port)
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop_event.wait()
            await self.router.stop()
            # Drain in-flight connection handlers ourselves: cancelling
            # and *gathering* them retrieves their CancelledErrors, so a
            # router killed mid-forward never spills "exception was
            # never retrieved" tracebacks into drill/test output.  The
            # handler filter covers CPython 3.11's StreamReaderProtocol
            # done-callback, which calls task.exception() on the
            # cancelled task and re-raises the CancelledError into the
            # loop's exception handler.
            def _quiet_cancelled(loop: asyncio.AbstractEventLoop,
                                 context: dict) -> None:
                if isinstance(context.get("exception"),
                              asyncio.CancelledError):
                    return  # expected: handlers axed mid-shutdown
                loop.default_exception_handler(context)

            self._loop.set_exception_handler(_quiet_cancelled)
            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        asyncio.run(_main())
