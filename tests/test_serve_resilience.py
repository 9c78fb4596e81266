"""Hardened-serving behaviour: overload shedding, bad clients, exact counters.

These tests run the real asyncio server (``BackgroundAsyncServer``)
against a stub engine (no training, no checkpoint) so each failure mode
is exercised deterministically:

- a full admission queue -> 503 + ``Retry-After`` + shed counters +
  degraded ``/healthz`` (which bypasses admission);
- body larger than the cap -> 413 before a byte of payload is read;
- a client that promises more body than it sends -> 400, bounded by the
  read deadline, connection closed;
- a client that slams the connection mid-response -> counted as a
  disconnect, server keeps serving;
- a fast request under the runtime's model deadline -> unaffected;
- concurrent hammering -> exact request counters (no lost/duplicated
  increments).
"""

import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (BackgroundAsyncServer, BatchSettings, LRUCache,
                         ServiceLimits, ServiceMetrics, ServingRuntime)


# ----------------------------------------------------------------------
# Stub engine: the handler's full surface, none of the model weight
# ----------------------------------------------------------------------
class StubEngine:
    """Duck-typed InferenceEngine: instant predictions, optional gating."""

    def __init__(self, num_papers: int = 32, cache_size: int = 64) -> None:
        self.num_papers = num_papers
        self.freeze_seconds = 0.0
        self.cache = LRUCache(cache_size)
        self.gate = threading.Event()  # when cleared, predict blocks
        self.gate.set()
        self.entered = threading.Event()  # set once predict has been called

    def info(self) -> dict:
        return {"num_papers": self.num_papers, "stub": True}

    def predict(self, paper_ids):
        ids = np.asarray(paper_ids, dtype=np.intp).reshape(-1)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.num_papers):
            raise IndexError(f"paper id out of range [0, {self.num_papers})")
        self.entered.set()
        self.gate.wait(timeout=30)
        for pid in ids:
            found, _ = self.cache.get(int(pid))
            if not found:
                self.cache.put(int(pid), float(pid))
        return ids.astype(np.float64)

    def rank(self, node_type, k=10, cluster=None):
        if node_type != "paper":
            raise KeyError(f"unknown node type {node_type!r}")
        return [{"id": i, "name": str(i), "score": float(-i)}
                for i in range(min(int(k), self.num_papers))]

    def score_title(self, title) -> float:
        if title == "bad":
            raise ValueError("scripted bad title")
        return 1.0


#: One request per flush, flushed at once: a request the engine holds
#: keeps every later one in the admission queue.
SERIAL = dict(max_batch_size=1, max_wait_ms=0.0)


@pytest.fixture()
def server_factory():
    """Boot the asyncio server around a StubEngine; auto-teardown."""
    servers = []

    def boot(limits: ServiceLimits, engine: StubEngine = None,
             queue_depth: int = 1024, runtime: ServingRuntime = None):
        engine = engine or StubEngine()
        server = BackgroundAsyncServer(
            engine, limits=limits, metrics=ServiceMetrics(), runtime=runtime,
            settings=BatchSettings(max_queue_depth=queue_depth, **SERIAL))
        host, port = server.start()
        servers.append(server)
        return server, engine, f"http://{host}:{port}"

    yield boot
    for server in servers:
        server.shutdown()


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), \
            json.loads(response.read())


def _post(url, body, timeout=10):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), \
            json.loads(response.read())


def _metrics(base):
    return _get(base + "/metrics")[2]


def _port(server):
    return server.address[1]


def _wait_for(condition, timeout=5.0):
    deadline = time.time() + timeout
    while not condition() and time.time() < deadline:
        time.sleep(0.01)
    return condition()


# ----------------------------------------------------------------------
# Overload shedding
# ----------------------------------------------------------------------
class TestOverload:
    def test_shed_503_with_retry_after_and_degraded_healthz(
            self, server_factory):
        limits = ServiceLimits(retry_after_seconds=7)
        server, engine, base = server_factory(limits, queue_depth=1)
        queue = server.app.batcher.queue
        engine.gate.clear()  # park the first flush inside the engine

        results = []

        def hit(pid):
            try:
                results.append(("ok", _get(f"{base}/predict?ids={pid}")[0]))
            except urllib.error.HTTPError as err:
                retry = err.headers.get("Retry-After")
                results.append(("http", err.code, retry))

        # One request computing (held by the gate), one queued behind it.
        first = threading.Thread(target=hit, args=(1,))
        first.start()
        assert engine.entered.wait(5)
        second = threading.Thread(target=hit, args=(2,))
        second.start()
        assert _wait_for(lambda: queue.depth == 1)

        # Health checks bypass admission and report saturation.
        status, _headers, health = _get(base + "/healthz")
        assert status == 200
        assert health["status"] == "degraded"
        assert health["queue_depth"] == 1 and health["queue_capacity"] == 1

        # A third work request is shed immediately: 503 + Retry-After.
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/predict?ids=3", timeout=5)
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] == "7"

        # A cold-start title goes through the same admission bound.
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base + "/predict", {"title": "graph mining"}, timeout=5)
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] == "7"

        engine.gate.set()  # release the parked flush
        for worker in (first, second):
            worker.join(timeout=10)
        assert results.count(("ok", 200)) == 2

        body = _metrics(base)
        assert body["total_shed"] == 2
        assert body["endpoints"]["/predict"]["shed"] == 2
        assert queue.depth == 0  # every admitted request was served

        # Back to healthy once drained.
        assert _get(base + "/healthz")[2]["status"] == "ok"

    def test_title_client_error_is_a_400(self, server_factory):
        server, _engine, base = server_factory(ServiceLimits())
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base + "/predict", {"title": "bad"})
        assert err.value.code == 400
        assert json.loads(err.value.read()) == {
            "error": "scripted bad title"}
        assert _post(base + "/predict", {"title": "good"})[2] == {
            "prediction": 1.0, "cold_start": True}
        assert server.app.batcher.queue.depth == 0

    def test_limiter_releases_on_handler_error(self, server_factory):
        server, _engine, base = server_factory(ServiceLimits(),
                                               queue_depth=1)
        with pytest.raises(urllib.error.HTTPError):
            _get(base + "/predict?ids=10000")  # 400 out-of-range
        assert server.app.batcher.queue.depth == 0
        assert _get(base + "/predict?ids=1")[0] == 200  # slot reusable


# ----------------------------------------------------------------------
# Bad clients
# ----------------------------------------------------------------------
class TestBadClients:
    def test_oversized_body_413(self, server_factory):
        _server, _engine, base = server_factory(
            ServiceLimits(max_body_bytes=256))
        payload = json.dumps({"paper_ids": list(range(2000))}).encode()
        request = urllib.request.Request(
            base + "/predict", data=payload,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 413
        body = _metrics(base)
        assert body["endpoints"]["/predict"]["errors"] == 1

    def test_truncated_body_400_within_read_timeout(self, server_factory):
        """Promise 512 body bytes, send 5, stall: 400, not a hung reader."""
        server, _engine, base = server_factory(
            ServiceLimits(read_timeout=0.5))
        start = time.time()
        with socket.create_connection(("127.0.0.1", _port(server)),
                                      timeout=10) as s:
            s.sendall(b"POST /predict HTTP/1.1\r\n"
                      b"Host: x\r\nContent-Type: application/json\r\n"
                      b"Content-Length: 512\r\n\r\n{\"pa")
            s.settimeout(10)
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = s.recv(4096)
                if not chunk:
                    break
                response += chunk
        elapsed = time.time() - start
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"Content-Length" in response
        assert elapsed < 5.0, "read timeout did not bound the stall"
        # The connection was released and the server still works.
        assert _get(base + "/predict?ids=1")[0] == 200

    def test_half_closed_body_400(self, server_factory):
        """Client sends a short body then FINs: 400 immediately."""
        server, _engine, base = server_factory(
            ServiceLimits(read_timeout=5.0))
        s = socket.create_connection(("127.0.0.1", _port(server)),
                                     timeout=10)
        s.sendall(b"POST /predict HTTP/1.1\r\n"
                  b"Host: x\r\nContent-Length: 512\r\n\r\nshort")
        s.shutdown(socket.SHUT_WR)
        s.settimeout(10)
        response = b""
        try:
            while True:
                chunk = s.recv(4096)
                if not chunk:
                    break
                response += chunk
        finally:
            s.close()
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_client_disconnect_counted_not_fatal(self, server_factory):
        server, engine, base = server_factory(ServiceLimits())
        engine.gate.clear()  # hold the response until the client is gone
        s = socket.create_connection(("127.0.0.1", _port(server)),
                                     timeout=10)
        s.sendall(b"GET /predict?ids=3 HTTP/1.1\r\nHost: x\r\n\r\n")
        # Wait for the engine to pick the request up, then RST the socket
        # (SO_LINGER 0 => hard reset, not a graceful FIN).
        assert engine.entered.wait(5)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                     struct.pack("ii", 1, 0))
        s.close()
        engine.gate.set()

        deadline = time.time() + 5
        total = 0
        while time.time() < deadline:
            total = _metrics(base)["total_disconnects"]
            if total >= 1:
                break
            time.sleep(0.05)
        assert total >= 1, "client disconnect was not recorded"
        # And the server shrugged it off.
        assert server.app.batcher.queue.depth == 0
        assert _get(base + "/predict?ids=1")[0] == 200


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_fast_request_unaffected(self, server_factory):
        engine = StubEngine()
        runtime = ServingRuntime(engine, deadline_seconds=10.0)
        _server, _engine, base = server_factory(ServiceLimits(), engine,
                                                runtime=runtime)
        status, _headers, body = _get(base + "/predict?ids=1")
        assert status == 200 and body["source"] == "model"
        assert runtime.breaker.snapshot()["failures"] == 0


# ----------------------------------------------------------------------
# Concurrency: exact counters under load
# ----------------------------------------------------------------------
class TestConcurrentCounters:
    THREADS = 8
    PER_THREAD = 25

    def test_metrics_and_cache_exact_under_load(self, server_factory,
                                                run_threads):
        server, engine, base = server_factory(ServiceLimits())

        def worker(tid):
            for i in range(self.PER_THREAD):
                pid = (tid * self.PER_THREAD + i) % engine.num_papers
                status, _h, body = _get(f"{base}/predict?ids={pid}")
                assert status == 200
                assert body["predictions"] == [float(pid)]

        run_threads(worker, count=self.THREADS)

        total = self.THREADS * self.PER_THREAD
        body = _metrics(base)
        predict = body["endpoints"]["/predict"]
        assert predict["requests"] == total  # exact, no lost increments
        assert predict["errors"] == 0
        assert body["total_shed"] == 0 and body["total_disconnects"] == 0
        cache = body["cache"]
        assert cache["hits"] + cache["misses"] == total
        assert cache["misses"] == engine.num_papers  # first touch per id
        assert server.app.batcher.queue.depth == 0

    def test_lru_cache_exact_counters_under_threads(self, run_threads):
        cache = LRUCache(capacity=16)
        lookups_per_thread = 500

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(lookups_per_thread):
                key = int(rng.integers(0, 32))
                found, _ = cache.get(key)
                if not found:
                    cache.put(key, key)

        run_threads(worker, count=self.THREADS)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == (
            self.THREADS * lookups_per_thread
        )
        assert stats["size"] <= 16
        assert len(cache) == stats["size"]

    def test_service_metrics_thread_safe_observe(self, run_threads):
        metrics = ServiceMetrics()

        def worker(tid):
            for _ in range(1000):
                metrics.observe("/x", 0.001)
                metrics.record_shed("/x")

        run_threads(worker, count=6)
        snap = metrics.snapshot()
        assert snap["total_requests"] == 6000
        assert snap["total_shed"] == 6000


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def test_cli_limit_flags():
    from repro.serve.__main__ import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["model.npz", "--max-body-bytes", "1024", "--read-timeout", "2.5",
         "--aio"]
    )
    assert args.max_body_bytes == 1024
    assert args.read_timeout == 2.5
    # The threaded server's limits went with it.
    for gone in ("--max-inflight", "--deadline"):
        with pytest.raises(SystemExit):
            parser.parse_args(["model.npz", gone, "1"])
