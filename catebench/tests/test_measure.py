"""The benchmark's own measurement code: statistics, /proc accounting,
readiness polling and process-tree teardown."""

from __future__ import annotations

import http.server
import math
import subprocess
import sys
import threading
import time

import pytest

from catebench import measure
from catebench.harness import stop_tree

MIB = 1024


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 100) == 4.0
    assert measure.percentile(values, 50) == 2.5
    assert measure.percentile(values, 25) == pytest.approx(1.75)
    assert measure.median([5.0]) == 5.0


def test_percentile_lets_failures_count_as_infinite():
    latencies = [1.0, 2.0, 3.0, math.inf]
    assert measure.percentile(latencies, 50) == 2.5
    assert measure.percentile(latencies, 99) == math.inf
    # Half the requests failed: the median itself is unbounded.
    assert measure.median([1.0, math.inf]) == math.inf
    assert measure.median([math.inf, math.inf]) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


# ---------------------------------------------------------------------------
# /proc accounting over a process tree
# ---------------------------------------------------------------------------

#: Touches ``MB`` MiB, burns CPU for ``BURN`` seconds of its own CPU time,
#: prints its pid and CPU time, then waits to be stopped.
WORKER = """
import os, sys, time
block = bytearray({mb} << 20)
for i in range(0, len(block), 4096):
    block[i] = 1
start = time.process_time()
while time.process_time() - start < {burn}:
    pass
{spawn}
print(os.getpid(), time.process_time(), flush=True)
time.sleep(120)
"""

SPAWN_REPLICA = """
import atexit, subprocess
replica = subprocess.Popen([sys.executable, "-c", {code!r}],
                           stdout=subprocess.PIPE, text=True)
atexit.register(lambda: (replica.terminate(), replica.wait()))
print(replica.stdout.readline().strip(), flush=True)
"""


def _tree(router_mb=20, replica_mb=40, burn=0.3):
    replica = WORKER.format(mb=replica_mb, burn=burn, spawn="")
    router = WORKER.format(mb=router_mb, burn=burn,
                           spawn=SPAWN_REPLICA.format(code=replica))
    proc = subprocess.Popen([sys.executable, "-c", router],
                            stdout=subprocess.PIPE, text=True)
    replica_pid, replica_cpu = proc.stdout.readline().split()
    router_pid, router_cpu = proc.stdout.readline().split()
    assert int(router_pid) == proc.pid
    return proc, int(replica_pid), float(router_cpu) + float(replica_cpu)


def test_tree_cpu_and_peak_rss_cover_router_and_replica():
    proc, replica_pid, reported_cpu = _tree()
    try:
        pids = measure.process_tree(proc.pid)
        assert pids == [proc.pid, replica_pid]
        cpu = measure.tree_cpu_seconds(pids)
        assert set(cpu) == set(pids)
        # /proc counts in clock ticks: allow one tick per process.
        slack = 2 * len(pids) / measure.CLK_TCK
        assert sum(cpu.values()) >= reported_cpu - slack
        assert sum(cpu.values()) <= reported_cpu + 1.0
        assert measure.tree_peak_rss_kib(pids) >= 60 * MIB
    finally:
        stop_tree(proc)
    assert proc.poll() is not None
    assert not measure.running(replica_pid)


def test_peak_rss_reset_forgets_memory_freed_before_the_phase():
    code = """
import sys
block = bytearray(120 << 20)
for i in range(0, len(block), 4096):
    block[i] = 1
del block
print("freed", flush=True)
sys.stdin.readline()
"""
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stdin=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline().strip() == "freed"
        assert measure.peak_rss_kib(proc.pid) >= 120 * MIB
        measure.reset_peak_rss(proc.pid)
        assert measure.peak_rss_kib(proc.pid) < 60 * MIB
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)


def test_steal_share_uses_only_the_first_eight_fields():
    before = [0] * 10
    after = [50, 0, 10, 30, 0, 0, 0, 10, 40, 0]  # guest ticks sit in user
    assert measure.steal_share(before, after) == pytest.approx(0.1)
    assert measure.steal_share(before, before) == 0.0


# ---------------------------------------------------------------------------
# Readiness polling
# ---------------------------------------------------------------------------

class _Health(http.server.BaseHTTPRequestHandler):
    #: /healthz answers 503 this many times, then 200.
    not_ready = 3

    def do_GET(self):  # noqa: N802 — http.server's naming
        cls = type(self)
        status = 503 if cls.not_ready > 0 else 200
        cls.not_ready -= 1
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def test_wait_ready_polls_until_the_first_200():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Health)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        assert measure.http_status(host, port, "/healthz") == 503
        measure.wait_ready(host, port, timeout=10, interval=0.001)
        assert _Health.not_ready < 0
        assert measure.http_status(host, port, "/healthz") == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_wait_ready_gives_up_on_a_dead_process_or_a_deadline():
    port = measure.free_port()
    assert measure.http_status("127.0.0.1", port, "/healthz") is None
    proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
    proc.wait(timeout=30)
    with pytest.raises(RuntimeError, match="code 3"):
        measure.wait_ready("127.0.0.1", port, proc=proc, timeout=10)
    with pytest.raises(RuntimeError, match="within"):
        measure.wait_ready("127.0.0.1", port, timeout=0.05)


def test_stop_tree_stops_orphaned_grandchildren():
    proc, replica_pid, _ = _tree(router_mb=1, replica_mb=1, burn=0.0)
    # SIGKILL skips the router's cleanup, orphaning the replica: the
    # teardown must still find it and stop it without waiting out the
    # grace period.
    start = time.monotonic()
    stop_tree(proc, sig=9, grace=30)
    assert proc.poll() is not None
    assert not measure.running(replica_pid)
    assert time.monotonic() - start < 10
