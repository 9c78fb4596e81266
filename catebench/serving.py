"""Harness side of ``serve-direct`` and ``serve-fleet``.

The program runs as its own CLI process — ``python -m repro.serve <ckpt>
--aio --cache-size 0`` or ``python -m repro.fleet <ckpt> --replicas 1
--cache-size 0`` — and this process is the load generator, so neither
shares an interpreter lock with the other.  The result cache is off: the
default LRU would hold all 1,000 papers after warm-up, which the real
corpus would not allow.

One run: prepare the checkpoint and request script in a child
(``catebench.serve_prep``); boot the CLI ``BOOTS`` times, timing spawn to
the first 200 on ``/healthz``; keep the last boot up, warm it, and drive
it for ``--seconds`` from ``CONNECTIONS`` keep-alive connections; stop
it; then compare every response bitwise with the fitted estimator's own
predictions (ids) and with an in-process ``InferenceEngine`` on the same
checkpoint (titles, and ids once more).  With ``--trace 1`` a traced server
(``catebench.traced_server``) is booted and driven the same way after
the untraced one, and ``/metrics`` and ``/proc`` readings around its
phase give the per-layer figures.
"""

from __future__ import annotations

import http.client
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from catebench import inputs, loadgen, measure
from catebench.harness import (SRC, BenchmarkError, Outcome, RunContext,
                               launch, stop_tree)
from catebench.tracing import Span, layer_totals, load_spans

BOOTS = 3
WARMUP_S = 1.5
#: Closed-loop clients: one per core of the 2-vCPU host the benchmark
#: was tuned on, fixed so the load is the same on any host.
CONNECTIONS = 2
HOST = "127.0.0.1"
BOOT_TIMEOUT = 60.0


class Server:
    """One launch of a serving CLI, from spawn to stop."""

    def __init__(self, ctx: RunContext, checkpoint: str, tag: str,
                 traced: bool) -> None:
        fleet = ctx.workload == "serve-fleet"
        self.port = measure.free_port(HOST)
        self.spans_file = ctx.out / f"spans-{tag}.jsonl" if traced else None
        cli = ["--cache-size", "0", "--quiet", "--host", HOST,
               "--port", str(self.port)]
        cli = ([checkpoint, "--replicas", "1"] + cli if fleet
               else [checkpoint, "--aio"] + cli)
        spawned_at = time.monotonic()
        if traced:
            cmd = [sys.executable, "-m", "catebench.traced_server",
                   "--trace-out", str(self.spans_file),
                   "--spawned-at", repr(spawned_at),
                   "fleet" if fleet else "serve", *cli]
        else:
            cmd = [sys.executable, "-m",
                   "repro.fleet" if fleet else "repro.serve", *cli]
        self.proc = launch(cmd, ctx.env(with_bench=traced),
                           ctx.out / f"server-{tag}.log")
        try:
            ready = measure.wait_ready(HOST, self.port, proc=self.proc,
                                       timeout=BOOT_TIMEOUT)
        except RuntimeError as exc:
            self.stop()
            raise BenchmarkError(f"server {tag} did not boot: {exc}") from exc
        self.boot_s = ready - spawned_at

    def stop(self) -> None:
        stop_tree(self.proc)

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()


@dataclass
class Phase:
    """Readings around one timed phase of load."""

    start_ns: int  # monotonic_ns bounds, for cutting server spans
    end_ns: int
    exchanges: List[loadgen.Exchange]
    #: CPU seconds of each server process at the start and end.
    cpu_before: Dict[int, float]
    cpu_after: Dict[int, float]
    gen_cpu_s: float
    peak_rss_kib: int
    pids: List[int]
    before: dict  # /metrics
    after: dict

    @property
    def requests(self) -> int:
        return len(self.exchanges)

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def cpu_s(self) -> Dict[int, float]:
        """CPU each server process spent over the phase."""
        return {pid: cpu - self.cpu_before.get(pid, 0.0)
                for pid, cpu in self.cpu_after.items()}

    def percentile_ms(self, q: float) -> float:
        return measure.percentile((e.latency for e in self.exchanges), q) * 1e3

    def ops_per_s(self) -> float:
        """Successful requests over the phase's wall time."""
        return sum(e.ok for e in self.exchanges) / self.wall_s

    def cpu_ms_per_op(self) -> float:
        """Server process-tree CPU over the phase per request."""
        return sum(self.cpu_s.values()) / self.requests * 1e3


def timed_phase(server: Server, payloads: Sequence[bytes],
                seconds: float) -> Phase:
    loadgen.closed_loop(HOST, server.port, payloads, CONNECTIONS, WARMUP_S)
    pids = measure.process_tree(server.proc.pid)
    for pid in pids:
        measure.reset_peak_rss(pid)
    before = server.get_json("/metrics")
    gen_before = time.process_time()
    cpu_before = measure.tree_cpu_seconds(pids)
    start_ns = time.monotonic_ns()
    exchanges = loadgen.closed_loop(HOST, server.port, payloads,
                                    CONNECTIONS, seconds)
    end_ns = time.monotonic_ns()
    cpu_after = measure.tree_cpu_seconds(pids)
    gen_cpu = time.process_time() - gen_before
    peak = measure.tree_peak_rss_kib(pids)
    after = server.get_json("/metrics")
    return Phase(start_ns, end_ns, exchanges, cpu_before, cpu_after,
                 gen_cpu, peak, pids, before, after)


def run(ctx: RunContext) -> Outcome:
    ctx.run_module("serve_prep", ["--seed", str(ctx.seed),
                                  "--out", str(ctx.out)],
                   timeout=150, log="prep.log")
    with open(ctx.out / "prep.json") as handle:
        prep = json.load(handle)
    with open(ctx.out / "requests.json") as handle:
        bodies = [body.encode() for body in json.load(handle)]
    payloads = [loadgen.encode_post(body) for body in bodies]

    boots: List[float] = []
    count = 1 if ctx.trace else BOOTS
    for boot in range(count):
        server = Server(ctx, prep["checkpoint"], f"boot{boot}", traced=False)
        boots.append(server.boot_s)
        if boot < count - 1:
            server.stop()
    try:
        phase = timed_phase(server, payloads, ctx.seconds)
    finally:
        server.stop()
    traced: Optional[Phase] = None
    if ctx.trace:
        traced_server = Server(ctx, prep["checkpoint"], "traced", traced=True)
        try:
            traced = timed_phase(traced_server, payloads, ctx.seconds)
        finally:
            traced_server.stop()

    exchanges = phase.exchanges + (traced.exchanges if traced else [])
    verdicts, drifted = verify(prep["checkpoint"],
                               ctx.out / "predictions.npy", bodies, exchanges)
    problems = _input_problems(ctx, prep)
    passed = 0 if problems else sum(verdicts)
    if drifted:
        problems.append(f"the in-process engine differs from the fitted "
                        f"estimator on {drifted} id requests")
    if not all(verdicts):
        problems.append(f"{verdicts.count(False)} of {len(verdicts)} "
                        f"responses failed or differ from the expected "
                        f"answer")

    metrics: Dict[str, float] = {
        "setup_s": measure.median(boots),
        "ops_per_s": phase.ops_per_s(),
        "op_ms.p50": phase.percentile_ms(50),
        "cpu_ms_per_op": phase.cpu_ms_per_op(),
        "mem_mib": phase.peak_rss_kib / 1024.0,
        "success_frac": passed / len(verdicts),
    }
    if traced is not None:
        metrics.update(layer_metrics(ctx, phase, traced,
                                     load_spans(traced_server.spans_file)))
    details = {
        "dataset_sha256": prep["dataset_sha256"],
        "inputs_sha256": prep["inputs_sha256"],
        "checkpoint_test_rmse": prep["checkpoint_test_rmse"],
        "boot_s": boots,
        "op_ms.p99": phase.percentile_ms(99),
        "requests": phase.requests,
        "phase_s": phase.wall_s,
    }
    _clean(ctx.out)
    return Outcome(attempted=len(verdicts), passed=passed, metrics=metrics,
                   problems=problems, details=details)


def _input_problems(ctx: RunContext, prep: dict) -> List[str]:
    reference = inputs.load_references()[ctx.workload]
    problems = inputs.fingerprint_problems(
        reference, ctx.seed, prep["dataset_sha256"], prep["inputs_sha256"])
    rmse = prep["checkpoint_test_rmse"]
    if abs(rmse - reference["checkpoint_test_rmse"]) > inputs.RMSE_TOL:
        problems.append(f"checkpoint test RMSE {rmse!r} != recorded "
                        f"{reference['checkpoint_test_rmse']!r}")
    if any(event in inputs.BAD_EVENTS for event in prep["events"]):
        problems.append(f"checkpoint fit logged {prep['events']}")
    return problems


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def verify(checkpoint: str, predictions_file: Path, bodies: Sequence[bytes],
           exchanges: Sequence[loadgen.Exchange]) -> Tuple[List[bool], int]:
    """Per exchange: 200 and bitwise the expected answer.

    An id request expects the fitted estimator's own predictions, which
    ``serve_prep`` saved before the checkpoint was ever restored; an
    in-process engine restored from the checkpoint must reproduce them
    too (the checkpoint promises it), so a fault shared by the server
    and the engine still fails the check.  A title request expects the
    engine's score.  Also returns how many distinct id requests the
    engine got wrong.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    from repro.serve import InferenceEngine

    fitted = np.load(predictions_file)
    engine = InferenceEngine.from_checkpoint(checkpoint, cache_size=0)
    expected: Dict[int, Optional[dict]] = {}
    verdicts = []
    for exchange in exchanges:
        if not exchange.ok:
            verdicts.append(False)
            continue
        if exchange.index not in expected:
            expected[exchange.index] = _expected(
                engine, fitted, json.loads(bodies[exchange.index]))
        want = expected[exchange.index]
        verdicts.append(want is not None and _matches(want, exchange.body))
    return verdicts, sum(want is None for want in expected.values())


def _expected(engine, fitted, request: dict) -> Optional[dict]:
    """The answer ``request`` must get; ``None`` if the engine drifted."""
    if "title" in request:
        return {"prediction": engine.score_title(request["title"]),
                "cold_start": True}
    ids = request["paper_ids"]
    want = [float(fitted[i]) for i in ids]
    if not all(_same_bits(float(got), value)
               for got, value in zip(engine.predict(ids), want)):
        return None
    return {"paper_ids": ids, "predictions": want}


def _matches(expected: dict, body: bytes) -> bool:
    try:
        got = json.loads(body)
    except ValueError:
        return False
    if not isinstance(got, dict):
        return False
    if "prediction" in expected:
        return (got.get("cold_start") is True
                and _same_bits(got.get("prediction"), expected["prediction"]))
    predictions = got.get("predictions")
    return (got.get("paper_ids") == expected["paper_ids"]
            and isinstance(predictions, list)
            and len(predictions) == len(expected["predictions"])
            and all(_same_bits(a, b) for a, b
                    in zip(predictions, expected["predictions"])))


def _same_bits(got, want: float) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and float(got).hex() == float(want).hex())


# ---------------------------------------------------------------------------
# Per-layer figures of a traced run
# ---------------------------------------------------------------------------

def layer_metrics(ctx: RunContext, untraced: Phase, phase: Phase,
                  spans: List[Span]) -> Dict[str, float]:
    requests = phase.requests
    fleet = ctx.workload == "serve-fleet"
    cli_pid = phase.pids[0]  # the server, or the fleet's router
    if fleet:
        replica = next(iter(phase.after["replicas"]))
        after = phase.after["replicas"][replica]
        before = phase.before["replicas"][replica]
        server_cpu = sum(v for p, v in phase.cpu_s.items() if p != cli_pid)
    else:
        after, before = phase.after, phase.before
        server_cpu = phase.cpu_s[cli_pid]
    batching = after["batching"]
    server_p50 = after["endpoints"]["/predict"]["latency_ms_p50"]
    client_p50 = phase.percentile_ms(50)
    served = {key: after["served"][key] - before["served"].get(key, 0)
              for key in after["served"]}
    out: Dict[str, float] = {
        "http.server_ms.p50": server_p50,
        "http.errors": after["total_errors"] - before["total_errors"],
        "http.shed": after["total_shed"] - before["total_shed"],
        "batcher.queue_wait_ms.p50": batching["queue_wait_ms_p50"],
        "batcher.queue_wait_ms.p99": batching["queue_wait_ms_p99"],
        "batcher.compute_ms.p50": batching["compute_ms_p50"],
        "batcher.batch_size.mean": batching["mean_batch_size"],
        "runtime.fallback_frac": ((served.get("cache", 0)
                                   + served.get("prior", 0))
                                  / max(1, sum(served.values()))),
        "server.cpu_ms_per_op": server_cpu / requests * 1e3,
        "gen.cpu_ms_per_op": phase.gen_cpu_s / requests * 1e3,
        "client.op_ms.p99": phase.percentile_ms(99),
        # The share of the client's median that the (replica) server's own
        # median explains; the rest is the router hop and the sockets.
        "trace.coverage": server_p50 / client_p50,
        "trace.overhead": untraced.ops_per_s() / phase.ops_per_s() - 1.0,
    }
    if fleet:
        out["router.cpu_ms_per_op"] = phase.cpu_s[cli_pid] / requests * 1e3
        out["router.failovers"] = (phase.after["fleet"]["failovers"]
                                   - phase.before["fleet"]["failovers"])
        out["router.hop_ms.p50"] = client_p50 - server_p50
    out.update(_span_metrics(spans, phase, requests, server_cpu))
    return out


def _span_metrics(spans: List[Span], phase: Phase, requests: int,
                  server_cpu_s: float) -> Dict[str, float]:
    boot = layer_totals(s for s in spans if s.start_ns < phase.start_ns)
    timed = layer_totals(s for s in spans
                         if phase.start_ns <= s.start_ns < phase.end_ns)

    def per_call_ms(name: str) -> float:
        totals = timed.get(name)
        return totals.total_ns / totals.calls / 1e6 if totals else 0.0

    def per_request(name: str, field: str = "calls", scale: float = 1.0):
        totals = timed.get(name)
        return getattr(totals, field) / requests * scale if totals else 0.0

    def boot_ms(name: str) -> float:
        totals = boot.get(name)
        return totals.total_ns / 1e6 if totals else 0.0

    return {
        "setup.import_ms": boot_ms("setup.import"),
        "setup.restore_ms": boot_ms("setup.restore"),
        "setup.freeze_ms": boot_ms("setup.freeze"),
        "engine.predict_calls": per_request("engine.predict"),
        "engine.predict_ms": per_call_ms("engine.predict"),
        "engine.score_title_ms": per_call_ms("engine.score_title"),
        # Cold-start scoring is one-thread CPU work on the batcher's
        # executor, so its span time is its CPU time: this is the share of
        # server CPU that the script's title requests weigh.
        "engine.title_share": (timed["engine.score_title"].total_ns / 1e9
                               / server_cpu_s
                               if "engine.score_title" in timed else 0.0),
        "structure.builds": per_request("structure.batch"),
        "structure.ms": (per_request("structure.batch", "self_ns", 1e-6)
                         + per_request("structure.edge", "self_ns", 1e-6)),
        "core.forward_calls": per_request("core.forward"),
        "core.forward_ms": per_request("core.forward", "self_ns", 1e-6),
        "core.predict_ms": per_request("core.predict", "total_ns", 1e-6),
    }


def _clean(out: Path) -> None:
    """Drop the bulky inputs once the run has been checked."""
    (out / "requests.json").unlink()
    (out / "predictions.npy").unlink()
    for path in out.glob("model*"):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
