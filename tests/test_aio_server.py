"""HTTP tests for the asyncio serving runtime (DESIGN §16).

Covers the endpoint surface (response bodies pinned bitwise against
JSON built from ``ServingRuntime.predict`` and ``engine.rank`` on an
unbatched reference engine), the admission-queue backpressure
semantics (503 + Retry-After, probes bypass admission), request-framing
edge cases over raw sockets, and an 8-thread client stress run under
the tsan-lite race detector.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import CATEHGN
from repro.eval.runner import default_cate_config
from repro.serve import (
    BackgroundAsyncServer,
    BatchSettings,
    InferenceEngine,
    ServiceLimits,
    ServingRuntime,
)


@pytest.fixture(scope="module")
def served(tiny_dataset, tmp_path_factory):
    """(estimator, engine, base URL, reference runtime)."""
    config = default_cate_config(dim=16, seed=0, outer_iters=1, mini_iters=1)
    est = CATEHGN(config).fit(tiny_dataset)
    path = est.save_checkpoint(tmp_path_factory.mktemp("ckpt") / "model")

    aio_engine = InferenceEngine.from_checkpoint(path, cache_size=0)
    bg = BackgroundAsyncServer(aio_engine,
                               settings=BatchSettings(max_wait_ms=1.0))
    host, port = bg.start()
    # A second engine on the same checkpoint, called directly: the
    # unbatched answer every wire response must reproduce byte for byte.
    reference = ServingRuntime(
        InferenceEngine.from_checkpoint(path, cache_size=0))

    yield est, aio_engine, f"http://{host}:{port}", reference
    bg.shutdown()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.status, resp.read()


def _post(base, path, body):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, resp.read()


def _err(fn, *args):
    with pytest.raises(urllib.error.HTTPError) as info:
        fn(*args)
    return info.value


def _predict_json(runtime, ids):
    """The /predict body for ``ids``, built from one unbatched call."""
    out = runtime.predict(ids)
    return json.dumps({
        "paper_ids": [int(i) for i in ids],
        "predictions": [float(p) for p in out["predictions"]],
        "source": out["source"],
        "degraded": out["degraded"],
    }).encode()


# ---------------------------------------------------------------------------
# Endpoint surface + bitwise parity with unbatched engine calls
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, served):
        _est, engine, base, _reference = served
        status, body = _get(base, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["breaker"] == "closed"
        assert health["num_papers"] == engine.num_papers
        assert health["queue_depth"] == 0

    def test_predict_post_bitwise_matches_runtime(self, served):
        _est, engine, base, reference = served
        ids = [0, 3, 7, engine.num_papers - 1]
        _, body = _post(base, "/predict", {"paper_ids": ids})
        # Byte-identical JSON: same values, same key order, no float
        # drift between the batched and the unbatched path.
        assert body == _predict_json(reference, ids)

    def test_predict_get_bitwise_matches_runtime(self, served):
        _est, _engine, base, reference = served
        _, body = _get(base, "/predict?ids=1,2,5")
        assert body == _predict_json(reference, [1, 2, 5])

    def test_predict_matches_estimator(self, served):
        est, _engine, base, _reference = served
        _, body = _post(base, "/predict", {"paper_ids": [4, 9]})
        out = json.loads(body)
        expected = est.predict()[[4, 9]]
        assert out["predictions"] == [float(x) for x in expected]
        assert out["source"] == "model"
        assert out["degraded"] is False

    def test_rank_bitwise_matches_engine(self, served):
        _est, _engine, base, reference = served
        _, body = _post(base, "/rank", {"node_type": "paper", "k": 5})
        assert body == json.dumps({
            "node_type": "paper",
            "ranking": reference.engine.rank("paper", k=5),
        }).encode()

    def test_title_cold_start(self, served):
        _est, engine, base, _reference = served
        _, body = _post(base, "/predict", {"title": "graph neural nets"})
        out = json.loads(body)
        assert out["cold_start"] is True
        assert out["prediction"] == float(
            engine.score_title("graph neural nets"))

    def test_metrics_exposes_batching(self, served):
        _est, _engine, base, _reference = served
        _, body = _get(base, "/metrics")
        metrics = json.loads(body)
        batching = metrics["batching"]
        for key in ("batches", "batched_requests", "mean_batch_size",
                    "coalesce_ratio", "batch_size_histogram",
                    "queue_wait_ms_p50", "queue_wait_ms_p99",
                    "compute_ms_p50", "compute_ms_p99", "queue_depth",
                    "queue_capacity", "settings"):
            assert key in batching, key
        assert metrics["breaker"]["state"] == "closed"
        assert "cache" in metrics


class TestErrors:
    def test_unknown_endpoint_404(self, served):
        assert _err(_get, served[2], "/nope").code == 404

    def test_out_of_range_id_400(self, served):
        _est, engine, base, _reference = served
        exc = _err(_post, base, "/predict",
                   {"paper_ids": [engine.num_papers + 5]})
        assert exc.code == 400

    def test_bad_ids_type_400(self, served):
        assert _err(_post, served[2], "/predict",
                    {"paper_ids": "zero"}).code == 400

    def test_missing_ids_400(self, served):
        assert _err(_get, served[2], "/predict").code == 400

    def test_invalid_json_400(self, served):
        req = urllib.request.Request(
            served[2] + "/predict", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400

    def test_oversized_body_413(self, served):
        # The server answers 413 from the Content-Length alone, before
        # (and without) reading the payload, then closes — so it must
        # be poked over a raw socket: urllib would die on EPIPE while
        # still uploading.
        req = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: 2000000\r\n\r\n")
        raw = _raw(served[2], req)
        assert raw.startswith(b"HTTP/1.1 413")
        assert b"exceeds" in raw


# ---------------------------------------------------------------------------
# Raw-socket framing edge cases
# ---------------------------------------------------------------------------
def _raw(base, payload, timeout=10.0):
    host, port = base[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sk:
        sk.sendall(payload)
        sk.settimeout(timeout)
        chunks = []
        try:
            while True:
                chunk = sk.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except TimeoutError:
            pass
    return b"".join(chunks)


def test_truncated_body_400(served):
    body = b'{"paper_ids": [0]}'
    req = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
           b"Content-Length: " + str(len(body) + 50).encode()
           + b"\r\n\r\n" + body)
    # The server's readexactly waits out limits.read_timeout (5s
    # default) before answering, so give the raw reader headroom.
    raw = _raw(served[2], req, timeout=30.0)
    assert raw.startswith(b"HTTP/1.1 400")
    assert b"truncated" in raw


def test_malformed_request_line_400(served):
    raw = _raw(served[2], b"NONSENSE\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 400")


def test_keep_alive_two_requests_one_connection(served):
    body = json.dumps({"paper_ids": [1]}).encode()
    one = (b"POST /predict HTTP/1.1\r\nHost: t\r\n"
           b"Content-Type: application/json\r\n"
           b"Content-Length: " + str(len(body)).encode()
           + b"\r\nConnection: keep-alive\r\n\r\n" + body)
    two = one.replace(b"keep-alive", b"close")
    raw = _raw(served[2], one + two)
    assert raw.count(b"HTTP/1.1 200") == 2


# ---------------------------------------------------------------------------
# Backpressure: bounded admission, control-endpoint bypass
# ---------------------------------------------------------------------------
class _SlowRuntime(ServingRuntime):
    """Holds the executor long enough for the queue to fill."""

    def predict(self, paper_ids):
        time.sleep(0.25)
        return super().predict(paper_ids)


@pytest.fixture()
def saturated(tiny_dataset, tmp_path_factory):
    config = default_cate_config(dim=16, seed=0, outer_iters=1, mini_iters=1)
    est = CATEHGN(config).fit(tiny_dataset)
    path = est.save_checkpoint(tmp_path_factory.mktemp("sat") / "model")
    engine = InferenceEngine.from_checkpoint(path, cache_size=0)
    bg = BackgroundAsyncServer(
        engine, runtime=_SlowRuntime(engine),
        settings=BatchSettings(max_batch_size=1, max_wait_ms=0.0,
                               max_queue_depth=2),
        limits=ServiceLimits(retry_after_seconds=3))
    host, port = bg.start()
    yield bg, f"http://{host}:{port}"
    bg.shutdown()


def test_backpressure_sheds_with_503_and_retry_after(saturated):
    bg, base = saturated
    outcomes = []
    lock = threading.Lock()

    def fire():
        try:
            status, _ = _post(base, "/predict", {"paper_ids": [0]})
            headers = {}
        except urllib.error.HTTPError as exc:
            status, headers = exc.code, dict(exc.headers)
        with lock:
            outcomes.append((status, headers))

    threads = [threading.Thread(target=fire) for _ in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    statuses = sorted(s for s, _ in outcomes)
    assert len(outcomes) == 10
    assert set(statuses) <= {200, 503}
    shed = [(s, h) for s, h in outcomes if s == 503]
    # max_batch_size=1 over a 0.25s engine with queue depth 2: ten
    # near-simultaneous requests cannot all fit.
    assert shed, f"nothing shed: {statuses}"
    assert all(h.get("Retry-After") == "3" for _, h in shed)
    snap = bg.app.batcher.queue
    assert snap.total_shed == len(shed)
    assert snap.total_admitted == 10 - len(shed)


def test_probes_bypass_admission_while_saturated(saturated):
    _bg, base = saturated
    # Fill the pipeline: one computing + two queued + spares shed.
    blockers = [threading.Thread(
        target=lambda: _post_quietly(base, {"paper_ids": [1]}))
        for _ in range(6)]
    for t in blockers:
        t.start()
    time.sleep(0.05)  # let them hit the queue
    try:
        status, body = _get(base, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "degraded"  # saturated queue reported
        status, _ = _get(base, "/metrics")
        assert status == 200
    finally:
        for t in blockers:
            t.join(timeout=60)


def _post_quietly(base, body):
    try:
        _post(base, "/predict", body)
    except urllib.error.HTTPError:
        pass  # shed blockers are expected here


# ---------------------------------------------------------------------------
# 8-thread client stress under the race detector
# ---------------------------------------------------------------------------
def test_concurrent_clients_stress(served, run_threads):
    """8 client threads, race-detector window, exact answers."""
    est, engine, base, _reference = served
    expected = est.predict()
    per_thread = 12
    # The module-scoped server already served this file's deliberate
    # 4xx probes; assert on the stress run's delta, not the totals.
    before = json.loads(_get(base, "/metrics")[1])

    def worker(tid):
        for i in range(per_thread):
            pid = (tid * per_thread + i) % engine.num_papers
            status, body = _post(base, "/predict", {"paper_ids": [pid]})
            assert status == 200
            out = json.loads(body)
            assert out["predictions"] == [float(expected[pid])]

    run_threads(worker, count=8, timeout=120)

    after = json.loads(_get(base, "/metrics")[1])
    assert after["batching"]["failed_batches"] == 0
    assert after["total_errors"] == before["total_errors"]
    delta = (after["batching"]["batched_requests"]
             - before["batching"]["batched_requests"])
    assert delta == 8 * per_thread
