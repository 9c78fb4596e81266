"""Load-test harness for the asyncio serving runtime (DESIGN §16).

``python -m benchmarks.perf loadtest`` replays a ``/predict`` workload
from ~1k concurrent keep-alive clients against the asyncio server with
cross-request dynamic batching, and commits QPS, client-side p50/p99,
and the measured batching behaviour (mean batch size, batch histogram,
queue-wait vs compute split) into the ``"serving_async"`` section of
``BENCH_perf.json``.

The harness is its own asyncio program: each simulated client owns one
persistent connection and replays requests back-to-back, so the number
of in-flight requests equals the client count.  The workload is seeded
(same id lists, same client count on every run); the engine runs with
``cache_size=0`` so every request pays a real head application — with
the LRU on, cache hits would make batching look free.  Client latencies
are measured from first request byte to last response byte, which
charges queueing, batching, and compute to the request exactly as a
caller would experience it.

Batching metrics are reset between the warmup and measured phases (the
harness is quiescent at that point — every warmup response has been
read), so the committed batch-size histogram weighted-sums to exactly
the measured request count; the BENCH schema test pins that identity.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import CATEHGN
from repro.fleet.replica import REPLICA_BATCH

from ..common import bench_config, bench_datasets

#: Coalesced-cost watermark used for the benchmark run: high enough
#: that a 1k-client burst (4 ids each) is split into a handful of
#: flushes, low enough that a flush never exceeds one engine
#: micro-batch by much.
LOADTEST_BATCH = dict(max_batch_size=1024, max_wait_ms=2.0,
                      max_queue_depth=4096)
IDS_PER_REQUEST = 4


# ---------------------------------------------------------------------------
# Minimal asyncio HTTP/1.1 client (keep-alive, Content-Length framed)
# ---------------------------------------------------------------------------

async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, dict, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed connection")
    parts = status_line.decode("latin-1").split(None, 2)
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length") or 0)
    if length:
        body = await reader.readexactly(length)
    return status, headers, body


#: Reconnect-and-retry attempts per request: a keep-alive connection the
#: server idled out (or a reset under extreme accept pressure) is
#: re-dialed like any real HTTP client would, not counted as an error.
CLIENT_RETRIES = 3


async def _client(host: str, port: int, requests: List[bytes],
                  latencies: List[float], statuses: List[int]) -> None:
    """One simulated client: a persistent connection replaying requests."""
    loop = asyncio.get_running_loop()
    reader = writer = None
    try:
        for payload in requests:
            start = loop.time()
            for attempt in range(CLIENT_RETRIES):
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            host, port)
                    writer.write(payload)
                    await writer.drain()
                    status, headers, _body = await _read_response(reader)
                except (ConnectionResetError, ConnectionRefusedError,
                        BrokenPipeError, asyncio.IncompleteReadError):
                    if writer is not None:
                        writer.close()
                        writer = None
                    if attempt == CLIENT_RETRIES - 1:
                        raise
                    continue
                break
            # Latency spans the whole request including any re-dial —
            # that is what a caller would experience.
            latencies.append(loop.time() - start)
            statuses.append(status)
            if headers.get("connection", "").lower() == "close":
                writer.close()
                writer = None
    finally:
        if writer is not None:
            writer.close()


def _encode_request(paper_ids: List[int]) -> bytes:
    body = json.dumps({"paper_ids": paper_ids}).encode()
    head = (f"POST /predict HTTP/1.1\r\n"
            f"Host: loadtest\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n")
    return head.encode() + body


def _workload(concurrency: int, per_client: int,
              num_papers: int, seed: int) -> List[List[bytes]]:
    """Deterministic per-client request scripts."""
    rng = np.random.default_rng(seed)
    scripts = []
    for _ in range(concurrency):
        script = []
        for _ in range(per_client):
            ids = rng.integers(0, num_papers, size=IDS_PER_REQUEST)
            script.append(_encode_request([int(x) for x in ids]))
        scripts.append(script)
    return scripts


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    arr = np.sort(np.asarray(latencies, dtype=np.float64))
    if arr.size == 0:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
    }


def _replay(host: str, port: int, scripts: List[List[bytes]],
            warmup_scripts: List[List[bytes]],
            between_phases: Optional[Callable[[], None]] = None) -> dict:
    """Warmup, optional metric reset, then the measured phase."""

    async def _phase(phase_scripts: List[List[bytes]]) -> Tuple[dict, float]:
        latencies: List[float] = []
        statuses: List[int] = []
        start = time.perf_counter()
        await asyncio.gather(*(
            _client(host, port, script, latencies, statuses)
            for script in phase_scripts))
        wall = time.perf_counter() - start
        total = len(statuses)
        errors = sum(1 for s in statuses if s != 200)
        out = {"requests": total, "errors": errors,
               "wall_s": wall,
               "qps": float(total / max(wall, 1e-12))}
        out.update(_percentiles(latencies))
        return out, wall

    async def _main() -> dict:
        await _phase(warmup_scripts)
        if between_phases is not None:
            # Quiescent point: every warmup response has been read and
            # no measured request has been sent yet.
            between_phases()
        measured, _wall = await _phase(scripts)
        return measured

    return asyncio.run(_main())


# ---------------------------------------------------------------------------
# Benchmark entry point
# ---------------------------------------------------------------------------

def bench_serving_async(concurrency: int = 1000, per_client: int = 5,
                        warmup_per_client: int = 2,
                        seed: int = 7) -> Dict[str, object]:
    """QPS / latency / batching of the asyncio server under many clients.

    Boots the server over a frozen ``cache_size=0`` engine and replays
    the seeded multi-client workload against it.
    """
    import tempfile
    from pathlib import Path

    from repro.serve import BackgroundAsyncServer, BatchSettings, InferenceEngine

    dataset = bench_datasets()["full"]
    est = CATEHGN(bench_config(outer_iters=2)).fit(dataset)
    with tempfile.TemporaryDirectory() as tmp:
        path = est.save_checkpoint(Path(tmp) / "model")
        engine = InferenceEngine.from_checkpoint(path, cache_size=0)

    num_papers = int(engine.num_papers)
    scripts = _workload(concurrency, per_client, num_papers, seed)
    warmup = _workload(concurrency, warmup_per_client, num_papers, seed + 1)

    bg = BackgroundAsyncServer(engine,
                               settings=BatchSettings(**LOADTEST_BATCH))
    host, port = bg.start()
    try:
        result = _replay(host, port, scripts, warmup,
                         between_phases=bg.app.batcher.metrics.reset)
        batching = bg.app.batcher.snapshot()
    finally:
        bg.shutdown()

    for key in ("queue_depth", "queue_capacity", "settings"):
        batching.pop(key, None)

    return {
        "concurrency": int(concurrency),
        "requests_per_client": int(per_client),
        "total_requests": int(concurrency * per_client),
        "ids_per_request": IDS_PER_REQUEST,
        "num_papers": num_papers,
        "batch_settings": dict(LOADTEST_BATCH),
        "async": {**result, "batching": batching},
    }


#: Batch settings of the replica subprocesses — the inline
#: single-replica baseline runs with the *same* settings so the fleet
#: comparison isolates routing + process count.
FLEET_BATCH = REPLICA_BATCH


def bench_serving_fleet(num_replicas: int = 2, concurrency: int = 1000,
                        per_client: int = 5, warmup_per_client: int = 2,
                        seed: int = 7) -> Dict[str, object]:
    """Fleet QPS / latency vs a single inline async replica + failover blip.

    Three measured phases over the identical workload:

    1. ``single_async`` — one in-process :class:`BackgroundAsyncServer`
       (the DESIGN §16 runtime) with the replica subprocesses' batch
       settings: the no-router, no-subprocess baseline.
    2. ``fleet`` — ``num_replicas`` replica subprocesses behind the
       consistent-hash router, steady state.
    3. ``failover`` — the same fleet workload with one replica
       SIGKILLed partway through the phase; errors must stay 0 (the
       router retries ring successors) and the committed QPS fraction
       quantifies the blip.

    All engines run ``cache_size=0`` so every request pays a real head
    application on both sides of the comparison.
    """
    import tempfile
    import threading
    from pathlib import Path

    from repro.fleet import ServingFleet
    from repro.serve import BackgroundAsyncServer, BatchSettings, InferenceEngine

    dataset = bench_datasets()["full"]
    est = CATEHGN(bench_config(outer_iters=2)).fit(dataset)
    # The temp dir must outlive the fleet: replica subprocesses open the
    # checkpoint from disk on every (re)start, unlike the inline engines.
    with tempfile.TemporaryDirectory() as tmp:
        path = est.save_checkpoint(Path(tmp) / "model")
        engine = InferenceEngine.from_checkpoint(path, cache_size=0)
        num_papers = int(engine.num_papers)
        scripts = _workload(concurrency, per_client, num_papers, seed)
        warmup = _workload(concurrency, warmup_per_client, num_papers,
                           seed + 1)

        # -- single inline async replica (baseline) ----------------------
        bg = BackgroundAsyncServer(engine,
                                   settings=BatchSettings(**FLEET_BATCH))
        host, port = bg.start()
        try:
            single = _replay(host, port, scripts, warmup)
        finally:
            bg.shutdown()

        # -- fleet: steady state, then failover ---------------------------
        fleet = ServingFleet(str(path), num_replicas, cache_size=0)
        host, port = fleet.start()
        try:
            steady = _replay(host, port, scripts, warmup)

            kill_after = max(0.2, 0.4 * steady["wall_s"])
            victim = fleet.supervisor.replica_names()[0]
            timer = threading.Timer(
                kill_after, fleet.supervisor.kill_replica, args=(victim,))
            timer.start()
            try:
                failover = _replay(host, port, scripts, warmup_scripts=[])
            finally:
                timer.cancel()
            restarts = fleet.supervisor.status()["replicas"][victim][
                "restarts"]
        finally:
            fleet.shutdown()

    return {
        "num_replicas": int(num_replicas),
        "concurrency": int(concurrency),
        "requests_per_client": int(per_client),
        "total_requests": int(concurrency * per_client),
        "ids_per_request": IDS_PER_REQUEST,
        "num_papers": num_papers,
        "batch_settings": dict(FLEET_BATCH),
        "single_async": single,
        "fleet": steady,
        "failover": {**failover, "killed_replica": victim,
                     "kill_after_s": float(kill_after),
                     "victim_restarts": int(restarts)},
        "fleet_qps_vs_single_async": float(
            steady["qps"] / max(single["qps"], 1e-12)),
        "failover_qps_fraction": float(
            failover["qps"] / max(steady["qps"], 1e-12)),
    }
