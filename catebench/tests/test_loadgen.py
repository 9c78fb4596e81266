"""The closed-loop generator: failed requests are +inf, never dropped."""

from __future__ import annotations

import http.server
import json
import math
import threading

from catebench import loadgen, measure


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as the servers under test

    def do_POST(self):  # noqa: N802 — http.server's naming
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if body.get("drop"):
            self.close_connection = True  # hang up without an answer
            return
        status = 500 if body.get("fail") else 200
        payload = json.dumps({"echo": body}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _serve():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def test_failed_requests_count_as_infinite_latency():
    script = [{"paper_ids": [1]}, {"fail": True}, {"drop": True},
              {"paper_ids": [2]}]
    payloads = [loadgen.encode_post(json.dumps(body).encode())
                for body in script]
    server, thread = _serve()
    try:
        exchanges = loadgen.closed_loop(*server.server_address, payloads,
                                        connections=2, seconds=0.3)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()

    by_index = {}
    for exchange in exchanges:
        by_index.setdefault(exchange.index, []).append(exchange)
    # Connection 0 replays entries 0, 2; connection 1 replays 1, 3.
    assert set(by_index) == {0, 1, 2, 3}
    for exchange in by_index[0] + by_index[3]:
        assert exchange.status == 200 and math.isfinite(exchange.latency)
        assert json.loads(exchange.body)["echo"] == script[exchange.index]
    assert all(e.status == 500 and e.latency == math.inf for e in by_index[1])
    # A dropped connection fails the request, and the next one re-dials.
    assert all(e.status == 0 and e.latency == math.inf for e in by_index[2])
    assert len(by_index[0]) >= 2

    latencies = [e.latency for e in exchanges]
    assert measure.percentile(latencies, 99) == math.inf
    assert math.isfinite(min(latencies))


