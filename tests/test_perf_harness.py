"""Perf harness: committed-baseline integrity (tier-1) + live run (perf).

The tier-1 part is cheap: it validates the schema of the committed
``benchmarks/results/BENCH_perf.json`` and pins the headline claim the
fused engine was merged on — the end-to-end CATE-HGN epoch speedup over
the legacy path.  The ``perf``-marked part actually executes the
harness (minutes); run it with ``pytest -m perf tests/test_perf_harness.py``.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PERF = REPO_ROOT / "benchmarks" / "results" / "BENCH_perf.json"

FUSED_OPS = {"gather_matmul", "segment_softmax_fused",
             "segment_weighted_sum", "masked_softmax_combine"}


def test_committed_bench_perf_schema_and_headline():
    report = json.loads(BENCH_PERF.read_text())
    assert {case["op"] for case in report["ops"]} >= FUSED_OPS
    for case in report["ops"]:
        # Fusion must shrink the tape, never grow it.
        assert (case["fused_tape"]["tape_nodes"]
                <= case["legacy_tape"]["tape_nodes"]), case["op"]
        assert case["fused"]["mean_s"] > 0 and case["legacy"]["mean_s"] > 0
    for mode in ("fused", "legacy"):
        assert report["hgn_passes"][mode]["forward"]["mean_s"] > 0
        assert report["cate_epochs"][mode]["epoch_mean_s"] > 0
    # The acceptance headline: >=1.5x end-to-end CATE-HGN epoch speedup
    # vs the pre-change (legacy) measurement recorded in the same file.
    assert report["cate_epochs"]["epoch_speedup"] >= 1.5
    assert set(report["baseline_epochs"]) == {"R-GCN", "GAT", "HAN"}


def test_committed_bench_serve_section_and_headline():
    """Serving acceptance: a warm-cache single query is >=5x faster than
    the full grad-mode forward it replaces (recorded in the same file)."""
    report = json.loads(BENCH_PERF.read_text())
    sv = report["serve"]
    for key in ("grad_forward", "cold_single_query", "warm_single_query",
                "bulk"):
        assert sv[key]["mean_s"] > 0, key
    assert sv["bulk"]["papers_per_s"] > 0
    assert sv["num_papers"] > 0 and sv["load_and_freeze_s"] > 0
    assert sv["warm_speedup_vs_grad_forward"] >= 5.0
    # A cold miss only pays one micro-batched head application over the
    # frozen embeddings — it must also beat the full forward.
    assert sv["cold_speedup_vs_grad_forward"] >= 5.0


def test_committed_bench_serving_async_section():
    """Dynamic-batching acceptance on the committed loadtest report.

    Pins the batching claims without re-running the (slow) 1k-client
    loadtest: the asyncio runtime coalesced concurrent requests into
    real multi-request batches (mean batch size > 1), answered
    everything (histogram accounts for every request, zero client
    errors), and the latency fields are sane percentiles.
    """
    report = json.loads(BENCH_PERF.read_text())
    sa = report["serving_async"]
    assert sa["concurrency"] >= 64
    assert sa["total_requests"] == (sa["concurrency"]
                                    * sa["requests_per_client"])
    res = sa["async"]
    assert res["requests"] == sa["total_requests"]
    assert res["errors"] == 0
    assert res["qps"] > 0
    assert 0 < res["p50_ms"] <= res["p99_ms"]

    batching = sa["async"]["batching"]
    assert batching["mean_batch_size"] > 1.0
    assert batching["coalesce_ratio"] > 1.0
    assert batching["failed_batches"] == 0
    # Every measured request is in exactly one batch: the histogram's
    # weighted sum must equal the request count.
    weighted = sum(int(size) * count for size, count
                   in batching["batch_size_histogram"].items())
    assert weighted == sa["async"]["requests"]
    assert batching["batches"] == sum(
        batching["batch_size_histogram"].values())


def test_committed_bench_serving_fleet_section():
    """Fleet acceptance on the committed ``loadtest --fleet N`` report.

    Pins the robustness claims without re-running the loadtest: every
    phase (single-replica baseline, fleet steady state, failover with a
    mid-phase replica SIGKILL) answered every request with zero errors
    — the failover phase in particular proves the router's ring
    retries absorbed a replica death without surfacing a single 5xx —
    the killed replica was restarted by the supervisor, and the
    latency/QPS fields are sane.
    """
    report = json.loads(BENCH_PERF.read_text())
    sf = report["serving_fleet"]
    assert sf["num_replicas"] >= 2
    assert sf["concurrency"] >= 64
    assert sf["total_requests"] == (sf["concurrency"]
                                    * sf["requests_per_client"])
    for phase in ("single_async", "fleet", "failover"):
        res = sf[phase]
        assert res["requests"] == sf["total_requests"], phase
        assert res["errors"] == 0, phase
        assert res["qps"] > 0, phase
        assert 0 < res["p50_ms"] <= res["p99_ms"], phase
    assert sf["failover"]["victim_restarts"] >= 1
    assert sf["failover"]["kill_after_s"] > 0
    assert sf["fleet_qps_vs_single_async"] == pytest.approx(
        sf["fleet"]["qps"] / sf["single_async"]["qps"])
    assert sf["failover_qps_fraction"] == pytest.approx(
        sf["failover"]["qps"] / sf["fleet"]["qps"])


def test_committed_bench_elastic_tcp_section():
    """Elastic-transport acceptance on the committed ``--section
    elastic_tcp`` report.

    Pins the DESIGN §18 claims without re-running the benchmark: at
    every measured worker count the socket transport replayed the
    shared-memory trajectory bit-for-bit with zero transport-level
    errors and no worker deaths, the per-step timings are sane, and the
    warm-standby takeover promoted without failing a single client
    request across the router kill.
    """
    report = json.loads(BENCH_PERF.read_text())
    et = report["elastic_tcp"]
    assert et["steps"] >= 2
    assert set(et["by_workers"]) == {str(k) for k in et["worker_counts"]}
    for count, entry in et["by_workers"].items():
        assert entry["fingerprint_match"] is True, count
        assert entry["transport_errors"] == 0, count
        assert entry["deaths"] == 0, count
        for transport in ("shm", "tcp"):
            timing = entry[transport]
            assert 0 < timing["step_mean_s"] <= timing["wall_s"], count
        rpc = entry["tcp"]["rpc"]
        assert rpc["requests"] > 0 and rpc["codec_errors"] == 0, count
        assert entry["tcp_overhead"] == pytest.approx(
            entry["tcp"]["step_mean_s"] / entry["shm"]["step_mean_s"])
    to = et["takeover"]
    assert to["promoted"] is True
    assert to["requests_failed"] == 0
    assert to["requests_total"] > 0
    assert to["membership_syncs"] > 0
    assert to["takeover_s"] is not None and to["takeover_s"] > 0
    assert to["blackout_s"] >= to["takeover_s"]


def test_committed_bench_sampling_section():
    """On-disk minibatch sampling acceptance: the committed report has
    papers/s at 100k AND 1M papers, sampled without loading the store
    into Python memory (tracemalloc peak ≪ store payload)."""
    report = json.loads(BENCH_PERF.read_text())
    sp = report["sampling"]
    assert sp["batch_size"] > 0 and sp["fanouts"] > 0 and sp["hops"] >= 1
    assert set(sp["scales"]) == {"100000", "1000000"}
    for scale, entry in sp["scales"].items():
        assert entry["num_papers"] == int(scale)
        assert entry["papers_per_s"] > 0 and entry["batches_per_s"] > 0
        assert entry["build_s"] > 0 and entry["store_edges"] > 0
        assert entry["python_peak_bytes"] < entry["store_bytes"], scale
    small = sp["scales"]["100000"]
    big = sp["scales"]["1000000"]
    # The store grows ~10x; the Python-side peak must not follow it —
    # only O(num_papers) label bookkeeping scales, never edges/features.
    assert big["store_bytes"] > 5 * small["store_bytes"]
    assert big["python_peak_bytes"] < big["store_bytes"] / 10
    # Throughput must not fall off a cliff at 10x scale (papers/s is
    # per-seed work, which neighbor sampling keeps ~constant).
    assert big["papers_per_s"] > small["papers_per_s"] / 4


def test_regression_gate_accepts_its_own_baseline():
    """check_regression with --report pointed at the baseline itself
    must pass (0 %% drift < 25 %% threshold), without re-measuring."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "perf" /
                             "check_regression.py"),
         "--report", str(BENCH_PERF)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout


@pytest.mark.perf
def test_perf_harness_quick_run(tmp_path):
    """Execute the harness end-to-end in quick mode (minutes)."""
    import sys

    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.perf import run_all

    report = run_all(quick=True)
    assert report["cate_epochs"]["fused"]["epoch_mean_s"] > 0
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps(report))
    assert json.loads(out.read_text())["bench"] == "BENCH_perf"


@pytest.mark.perf
def test_bench_sampling_small_scale():
    """Execute the sampling benchmark itself at a reduced scale (the
    100k/1M measurement is CLI-only: ``python -m benchmarks.perf
    --section sampling``)."""
    import sys

    sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.perf import bench_sampling

    section = bench_sampling(scales=(30_000,), batches=3)
    entry = section["scales"]["30000"]
    assert entry["papers_per_s"] > 0
    assert entry["python_peak_bytes"] < entry["store_bytes"]
