"""CLI entry: ``python -m benchmarks.perf`` → benchmarks/results/BENCH_perf.json."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import (
    BENCH_PERF_PATH,
    bench_baseline_epochs,
    bench_cate_epochs,
    bench_contracts,
    bench_hgn_passes,
    bench_ops,
    bench_sampling,
    bench_serve,
    run_all,
)


def _bench_serving_async(quick: bool) -> dict:
    # Imported lazily: the loadtest boots real servers and is only
    # needed for the ``loadtest`` command / ``--section serving_async``.
    from .loadtest import bench_serving_async

    if quick:
        return bench_serving_async(concurrency=64, per_client=5)
    return bench_serving_async(concurrency=1000, per_client=5)


#: Mutable knobs the CLI sets before dispatching into ``SECTIONS``
#: (the section callables only receive ``quick``).
_OPTS = {"fleet_replicas": 2}


def _bench_serving_fleet(quick: bool) -> dict:
    from .loadtest import bench_serving_fleet

    replicas = _OPTS["fleet_replicas"]
    if quick:
        return bench_serving_fleet(num_replicas=replicas,
                                   concurrency=64, per_client=5)
    return bench_serving_fleet(num_replicas=replicas,
                               concurrency=1000, per_client=5)


def _bench_elastic_tcp(quick: bool) -> dict:
    from .elastic import bench_elastic_tcp

    if quick:
        return bench_elastic_tcp(worker_counts=(2,), steps=4,
                                 concurrency=32)
    return bench_elastic_tcp(worker_counts=(2, 4), steps=8,
                             concurrency=100)


#: Individually re-runnable report sections for ``--section``: measuring
#: one subsystem must not require re-timing the whole harness.
SECTIONS = {
    "ops": lambda quick: bench_ops(repeats=2 if quick else 5),
    "hgn_passes": lambda quick: bench_hgn_passes(repeats=2 if quick else 5),
    "cate_epochs": lambda quick: bench_cate_epochs(
        outer_iters=2 if quick else 4),
    "baseline_epochs": lambda quick: bench_baseline_epochs(
        epochs=3 if quick else 8),
    "serve": lambda quick: bench_serve(repeats=5 if quick else 20),
    "contracts": lambda quick: bench_contracts(repeats=2 if quick else 5),
    "sampling": lambda quick: bench_sampling(
        scales=(20_000, 100_000) if quick else (100_000, 1_000_000),
        batches=5 if quick else 20),
    "serving_async": _bench_serving_async,
    "serving_fleet": _bench_serving_fleet,
    "elastic_tcp": _bench_elastic_tcp,
}

#: Sections that ``run_all`` does not re-measure (they need their own
#: entry point); preserved verbatim when the full harness rewrites the
#: report so a plain ``python -m benchmarks.perf`` never drops them.
PRESERVED_SECTIONS = ("serving_async", "serving_fleet", "elastic_tcp")


def summarize(report: dict) -> str:
    lines = ["BENCH_perf summary", "=================="]
    for case in report.get("ops", []):
        lines.append(
            f"op {case['op']:<24} {case['speedup']:.2f}x  "
            f"tape {case['legacy_tape']['tape_nodes']}→"
            f"{case['fused_tape']['tape_nodes']} nodes"
        )
    hp = report.get("hgn_passes")
    if hp:
        lines.append(f"hgn forward           {hp['forward_speedup']:.2f}x")
        lines.append(
            f"hgn forward+backward  {hp['forward_backward_speedup']:.2f}x")
    ce = report.get("cate_epochs")
    if ce:
        lines.append(
            f"CATE-HGN epoch        {ce['epoch_speedup']:.2f}x  "
            f"({ce['legacy']['epoch_mean_s']:.3f}s → "
            f"{ce['fused']['epoch_mean_s']:.3f}s)"
        )
    for name, entry in report.get("baseline_epochs", {}).items():
        lines.append(f"{name:<9} epoch       {entry['epoch_speedup']:.2f}x")
    sv = report.get("serve")
    if sv:
        lines.append(
            f"serve cold query      "
            f"{sv['cold_speedup_vs_grad_forward']:.0f}x  "
            f"({sv['grad_forward']['mean_s'] * 1e3:.1f}ms → "
            f"{sv['cold_single_query']['mean_s'] * 1e3:.3f}ms)"
        )
        lines.append(
            f"serve warm query      "
            f"{sv['warm_speedup_vs_grad_forward']:.0f}x  "
            f"(→ {sv['warm_single_query']['mean_s'] * 1e3:.3f}ms)"
        )
        lines.append(
            f"serve bulk            {sv['bulk']['papers_per_s']:,.0f} papers/s"
        )
    ct = report.get("contracts")
    if ct:  # absent in reports written before the contract layer existed
        frac = ct.get("scan_fraction_of_epoch")
        anchor = (f", {frac * 100:.2f}% of one epoch" if frac is not None
                  else "")
        lines.append(
            f"contracts clean scan  "
            f"{ct['clean_graph_scan']['mean_s'] * 1e3:.2f}ms "
            f"({ct['clean_graph_scan']['edges_per_s']:,.0f} edges/s{anchor})"
        )
        lines.append(
            f"contracts repair      "
            f"{ct['repair_pass']['mean_s'] * 1e3:.2f}ms "
            f"({ct['poisoned_edges']} poisoned edges)"
        )
    sp = report.get("sampling")
    if sp:  # absent in reports written before the on-disk store existed
        for scale, entry in sp["scales"].items():
            lines.append(
                f"sampling @{int(scale):>9,} papers  "
                f"{entry['papers_per_s']:,.0f} papers/s  "
                f"(store {entry['store_bytes'] / 2**20:,.0f} MiB, "
                f"py peak {entry['python_peak_bytes'] / 2**20:.1f} MiB)"
            )
    sa = report.get("serving_async")
    if sa:  # absent until `python -m benchmarks.perf loadtest` has run
        a = sa["async"]
        lines.append(
            f"serving_async @{sa['concurrency']} clients  "
            f"{a['qps']:,.0f} QPS  p50 {a['p50_ms']:.1f}ms  "
            f"p99 {a['p99_ms']:.1f}ms  "
            f"mean batch {a['batching']['mean_batch_size']:.1f}"
        )
    sf = report.get("serving_fleet")
    if sf:  # absent until `python -m benchmarks.perf loadtest --fleet N`
        fl, fo = sf["fleet"], sf["failover"]
        lines.append(
            f"serving_fleet x{sf['num_replicas']} @{sf['concurrency']} "
            f"clients  {fl['qps']:,.0f} QPS  p50 {fl['p50_ms']:.1f}ms  "
            f"p99 {fl['p99_ms']:.1f}ms  "
            f"({sf['fleet_qps_vs_single_async']:.2f}x single async)"
        )
        lines.append(
            f"  failover blip        "
            f"{fo['qps']:,.0f} QPS ({sf['failover_qps_fraction']:.2f}x "
            f"steady)  errors {fo['errors']}  "
            f"p99 {fo['p99_ms']:.1f}ms"
        )
    et = report.get("elastic_tcp")
    if et:  # absent until `python -m benchmarks.perf --section elastic_tcp`
        for count, entry in et["by_workers"].items():
            match = "ok" if entry["fingerprint_match"] else "MISMATCH"
            lines.append(
                f"elastic K={count} step     "
                f"shm {entry['shm']['step_mean_s'] * 1e3:.0f}ms  "
                f"tcp {entry['tcp']['step_mean_s'] * 1e3:.0f}ms "
                f"({entry['tcp_overhead']:.2f}x)  bitwise {match}  "
                f"errors {entry['transport_errors']}"
            )
        to = et["takeover"]
        if to["takeover_s"] is not None:
            lines.append(
                f"router takeover       "
                f"{to['blackout_s'] * 1e3:.0f}ms kill→promoted "
                f"(rebind {to['takeover_s'] * 1e3:.0f}ms)  "
                f"{to['requests_failed']}/{to['requests_total']} "
                f"requests failed"
            )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument("command", nargs="?", choices=["loadtest"],
                        help="loadtest: multi-client serving load test "
                             "of the asyncio server → serving_async "
                             "section; with --fleet N, replica fleet vs "
                             "single async → serving_fleet section")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats / iterations (smoke run)")
    parser.add_argument("--fleet", type=int, metavar="N", default=None,
                        help="with loadtest: measure an N-replica serving "
                             "fleet (router + supervised subprocesses) → "
                             "serving_fleet section")
    parser.add_argument("--output", type=Path, default=BENCH_PERF_PATH,
                        help=f"where to write the JSON report "
                             f"(default: {BENCH_PERF_PATH})")
    parser.add_argument("--section", choices=sorted(SECTIONS),
                        action="append",
                        help="re-measure only the named section(s) and "
                             "merge into the existing report (repeatable)")
    args = parser.parse_args()

    if args.fleet is not None:
        _OPTS["fleet_replicas"] = args.fleet
    if args.command == "loadtest":
        if args.fleet is not None:
            args.section = (args.section or []) + ["serving_fleet"]
        else:
            args.section = (args.section or []) + ["serving_async"]
    if args.section:
        report = (json.loads(args.output.read_text())
                  if args.output.exists() else {})
        for name in args.section:
            report[name] = SECTIONS[name](args.quick)
    else:
        previous = (json.loads(args.output.read_text())
                    if args.output.exists() else {})
        report = run_all(quick=args.quick)
        for name in PRESERVED_SECTIONS:
            if name in previous:
                report[name] = previous[name]
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(summarize(report))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
