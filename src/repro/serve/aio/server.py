"""Asyncio HTTP server with cross-request dynamic batching (DESIGN §16).

The one HTTP front end of a serving process: ``/predict`` (GET and
POST), ``/rank``, ``/healthz``, ``/metrics`` and ``/admin/reload`` over
JSON, with 503 + ``Retry-After`` when the admission queue is full, and
probes that bypass admission so a saturated server still answers them.
One thread runs one event loop, and every ``/predict`` (ids or a
cold-start title) and ``/rank`` is admitted into and funneled through
the :class:`~repro.serve.aio.batcher.DynamicBatcher`, so overlapping
requests share a single tape-free engine forward.

stdlib-only: ``asyncio.start_server`` plus the shared HTTP/1.1 codec in
:mod:`repro.wire` (keep-alive, body framing, 413/431 caps, one read
deadline per request), which the fleet router uses too.
Predictions flow through the
:class:`~repro.serve.degrade.ServingRuntime`, so breaker trips fall
back model → cache → prior and still answer 200.

Entry points: :func:`serve_forever_aio` (blocking, used by
``repro-serve``) and :class:`BackgroundAsyncServer` (own thread + event
loop, used by tests, drills, examples and the ``benchmarks/perf
loadtest`` harness).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from ...wire import (ServiceError, ServiceLimits, encode_response,
                     linger_close, read_request)
from ..degrade import ReloadRejected, ServingRuntime
from ..metrics import ServiceMetrics
from .admission import AdmissionFull
from .batcher import BatchSettings, DynamicBatcher

#: Endpoints that bypass admission: operability probes must keep
#: answering while the server is saturated.
CONTROL_ENDPOINTS = frozenset({"/healthz", "/metrics"})

#: ``Server`` header of every response.
SERVER_NAME = "repro-serve-aio/1.0"


class AsyncPredictionServer:
    """Routes HTTP requests into the batcher; JSON in, JSON out."""

    def __init__(self, engine, runtime: Optional[ServingRuntime] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 limits: Optional[ServiceLimits] = None,
                 settings: Optional[BatchSettings] = None,
                 verbose: bool = False) -> None:
        self.runtime = runtime or ServingRuntime(engine)
        self.metrics = metrics or ServiceMetrics()
        self.limits = limits or ServiceLimits()
        self.batcher = DynamicBatcher(self.runtime, settings)
        self.verbose = verbose
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def engine(self):
        """The live engine, read through the runtime (hot-reload aware)."""
        return self.runtime.engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    backlog: int = 2048) -> Tuple[str, int]:
        self.batcher.start()
        # Deep listen backlog: a 1k-client load test opens all its
        # connections at once; asyncio's default backlog of 100 would
        # reset the overflow before the loop ever sees it.
        self._server = await asyncio.start_server(
            self._handle_client, host, port, backlog=backlog)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (BrokenPipeError, ConnectionResetError):
            self.metrics.record_disconnect("<connection>")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (BrokenPipeError, ConnectionResetError, OSError):  # noqa: R005 — connection already gone
                pass
            except asyncio.CancelledError:  # noqa: R005 — server shutdown cancelled the drain
                # stop() closing the loop cancels handlers mid-drain;
                # the transport is torn down either way, and re-raising
                # from a finally would just spam the loop's exception
                # handler for every lingering keep-alive connection.
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Read and answer one request; returns keep-alive."""
        try:
            request = await read_request(reader, self.limits)
        except ServiceError as exc:
            # Bad framing: answer once and close, since the rest of the
            # stream can no longer be trusted; linger so a client still
            # sending reads the answer rather than a reset.
            endpoint = exc.path or "<parse>"
            self.metrics.observe(endpoint, 0.0, error=True)
            if await self._respond(writer, endpoint, {"error": exc.message},
                                   exc.status, close=True):
                await linger_close(reader, writer)
            return False
        if request is None:
            return False  # end of stream or idle keep-alive connection
        if self.verbose:
            print(f"aio {request.method} {request.target}")
        endpoint = request.path
        payload, status, extra = await self._dispatch(
            request.method, endpoint, request.query, request.body)
        close = not request.keep_alive
        sent = await self._respond(writer, endpoint, payload, status,
                                   headers=extra, close=close)
        return sent and not close

    async def _respond(self, writer: asyncio.StreamWriter, endpoint: str,
                       payload: dict, status: int,
                       headers: Optional[Dict[str, str]] = None,
                       close: bool = False) -> bool:
        try:
            writer.write(encode_response(
                status, json.dumps(payload).encode(), server=SERVER_NAME,
                close=close, headers=headers))
            await writer.drain()
        except (BrokenPipeError, ConnectionResetError):
            self.metrics.record_disconnect(endpoint)
            return False
        return True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, endpoint: str, query: str,
                        body: bytes) -> Tuple[dict, int, Dict[str, str]]:
        loop = asyncio.get_running_loop()
        start = loop.time()
        error = False
        extra: Dict[str, str] = {}
        try:
            if endpoint in CONTROL_ENDPOINTS:
                # Probes bypass admission entirely: a saturated server
                # still answers them.
                payload, status = self._handle_control(endpoint)
            elif endpoint == "/predict" and method == "GET":
                payload, status = await self._handle_predict_query(query)
            elif endpoint == "/predict" and method == "POST":
                payload, status = await self._handle_predict_post(body)
            elif endpoint == "/rank" and method == "POST":
                payload, status = await self._handle_rank(body)
            elif endpoint == "/admin/reload" and method == "POST":
                payload, status = await self._handle_reload(body)
            else:
                raise ServiceError(404, f"no such endpoint: {endpoint}")
        except AdmissionFull as exc:
            self.metrics.record_shed(endpoint)
            payload = {"error": str(exc)}
            status, error = 503, True
            extra["Retry-After"] = str(self.limits.retry_after_seconds)
        except ServiceError as exc:
            payload, status, error = {"error": exc.message}, exc.status, True
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            payload, status, error = {"error": str(exc)}, 400, True
        except Exception as exc:  # noqa: BLE001 — surface as a 500
            payload, status, error = {"error": str(exc)}, 500, True
        self.metrics.observe(endpoint, loop.time() - start, error=error)
        return payload, status, extra

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_control(self, endpoint: str) -> Tuple[dict, int]:
        if endpoint == "/healthz":
            queue = self.batcher.queue
            breaker_state = self.runtime.breaker.state
            status = ("degraded"
                      if queue.saturated or breaker_state != "closed"
                      else "ok")
            return {
                "status": status,
                "queue_depth": queue.depth,
                "queue_capacity": queue.capacity,
                "breaker": breaker_state,
                **self.engine.info(),
            }, 200
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.engine.cache.stats()
        snapshot["batching"] = self.batcher.snapshot()
        snapshot.update(self.runtime.snapshot())
        return snapshot, 200

    async def _handle_predict_query(self, query: str) -> Tuple[dict, int]:
        params = parse_qs(query)
        raw = ",".join(params.get("ids", []))
        if not raw:
            raise ServiceError(400, "missing ids query parameter")
        try:
            ids = [int(x) for x in raw.split(",") if x != ""]
        except ValueError as exc:
            raise ServiceError(400, f"bad ids: {exc}") from exc
        return await self.batcher.submit_predict(ids), 200

    async def _handle_predict_post(self, body: bytes) -> Tuple[dict, int]:
        payload = _parse_json(body)
        if "title" in payload:
            if not isinstance(payload["title"], str) or not payload["title"]:
                raise ServiceError(400, "title must be a non-empty string")
            # Admitted (and shed) like /predict; its ValueError is a 400.
            return await self.batcher.submit_title(payload["title"]), 200
        if "paper_ids" in payload:
            ids = payload["paper_ids"]
            if not isinstance(ids, list):
                raise ServiceError(400, "paper_ids must be a list of ints")
            return await self.batcher.submit_predict(ids), 200
        raise ServiceError(400, "body must contain paper_ids or title")

    async def _handle_rank(self, body: bytes) -> Tuple[dict, int]:
        payload = _parse_json(body)
        node_type = payload.get("node_type", "paper")
        k = payload.get("k", 10)
        cluster = payload.get("cluster")
        ranking = await self.batcher.submit_rank(node_type, int(k), cluster)
        return {"node_type": node_type, "ranking": ranking}, 200

    async def _handle_reload(self, body: bytes) -> Tuple[dict, int]:
        payload = _parse_json(body)
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError(400, "body must contain a checkpoint path")
        loop = asyncio.get_running_loop()
        try:
            # The shadow-validation load is seconds of blocking I/O +
            # compute; it shares the batcher's worker thread so the
            # event loop never stalls (and the swap happens between
            # batches, never inside one).
            result = await loop.run_in_executor(
                self.batcher._executor, self.runtime.reload, path)
        except ReloadRejected as exc:
            out: Dict[str, Any] = {"reloaded": False, "error": exc.reason}
            if exc.report is not None:
                out["report"] = exc.report
            return out, 409
        return result, 200


def _parse_json(body: bytes) -> dict:
    try:
        return json.loads(body or b"{}")
    except json.JSONDecodeError as exc:
        raise ServiceError(400, f"invalid JSON body: {exc}") from exc


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def serve_forever_aio(engine, host: str = "127.0.0.1", port: int = 8099,
                      verbose: bool = True,
                      limits: Optional[ServiceLimits] = None,
                      settings: Optional[BatchSettings] = None) -> None:
    """Blocking entry point used by ``repro-serve``."""

    async def _main() -> None:
        app = AsyncPredictionServer(engine, limits=limits,
                                    settings=settings, verbose=verbose)
        bound_host, bound_port = await app.start(host, port)
        cfg = app.batcher.settings
        print(f"repro-serve (asyncio) listening on "
              f"http://{bound_host}:{bound_port} "
              f"({engine.num_papers} papers frozen, batching "
              f"max_batch_size={cfg.max_batch_size} "
              f"max_wait_ms={cfg.max_wait_ms})")
        try:
            await asyncio.Event().wait()  # run until cancelled (^C)
        finally:
            await app.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # noqa: R005 — ^C is the documented shutdown
        pass


class BackgroundAsyncServer:
    """The asyncio service on its own thread + event loop.

    Lets synchronous callers (tests, the ``batching`` drill, the
    load-test harness) boot the server, read its bound address, poke it
    over real sockets, and tear it down deterministically::

        bg = BackgroundAsyncServer(engine, settings=BatchSettings(...))
        host, port = bg.start()
        ...
        bg.shutdown()
    """

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0,
                 runtime: Optional[ServingRuntime] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 limits: Optional[ServiceLimits] = None,
                 settings: Optional[BatchSettings] = None) -> None:
        self.app = AsyncPredictionServer(engine, runtime=runtime,
                                         metrics=metrics, limits=limits,
                                         settings=settings)
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True,
                                        name="repro-aio-server")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("async server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("async server failed to start") \
                from self._startup_error
        return self.address

    def shutdown(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — reported to starter
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.address = await self.app.start(self._host, self._port)
        self._ready.set()
        await self._stop_event.wait()
        await self.app.stop()
