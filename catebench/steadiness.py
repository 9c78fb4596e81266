"""Steadiness report: run one workload N times and print its spread.

    python3 catebench/steadiness.py --workload serve-direct --runs 10
    python3 catebench/steadiness.py --workload train-full --runs 10 \\
        --tree . --tree ../parent-checkout

Each run is ``catebench/run.py`` at the ``run_seconds`` of
``BENCHMARK.json`` with its own seed (``FIRST_SEED``, ``FIRST_SEED + 1``,
...), executed in the tree it measures.  Given two
trees, runs alternate between them, so host drift hits both alike; give
the same tree twice to get two sets of identical code.

For every end-to-end metric and tree the report prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the interquartile
range and (max - min) as shares of the median, and the metric's bound
from ``BENCHMARK.json``.  With two trees it adds the second median's change
against the first, signed so that positive is worse.  Runs that are not
``correct`` are listed and left out of the figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
#: Seeds from here on are not recorded in ``references.json``, so the
#: report never reuses the default or held-out seed's inputs.
FIRST_SEED = 100


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "catebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    scale = abs(med) if med else 1.0
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale,
            "range_share": (max(values) - min(values)) / scale}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="catebench/steadiness.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per tree")
    parser.add_argument("--tree", type=Path, action="append",
                        help="checkout to measure (repeat for two sets)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.tree or [ROOT])]
    if len(trees) > 2:
        parser.error("at most two trees")
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    entries = {m["name"]: m for m in spec["end_to_end"]}

    samples: List[Dict[str, List[float]]] = [{} for _ in trees]
    failures = []
    for i in range(args.runs):
        for t, tree in enumerate(trees):
            seed = FIRST_SEED + i
            result = run_once(tree, args.workload, seed, seconds)
            if not result.get("correct"):
                failures.append((t, seed, result))
                continue
            for name, metric in result["metrics"].items():
                samples[t].setdefault(name, []).append(metric["value"])
            print(f"run {i} set {t} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)

    print(f"\n{args.workload}: {args.runs} runs per set, {seconds}s each")
    for name, entry in entries.items():
        sets = [samples[t].get(name, []) for t in range(len(trees))]
        if any(len(values) < 2 for values in sets):
            continue
        stats = [spread(values) for values in sets]
        line = (f"  {name:26s} " + " | ".join(
            f"median {s['median']:12.6g} q1 {s['q1']:12.6g} "
            f"q3 {s['q3']:12.6g} iqr {s['iqr_share']:7.2%} "
            f"range {s['range_share']:7.2%}" for s in stats))
        if len(stats) == 2:
            sign = 1.0 if entry["better"] == "lower" else -1.0
            base = stats[0]["median"]
            worse = (sign * (stats[1]["median"] - base) / abs(base)
                     if base else 0.0)
            line += f" | 2nd worse by {worse:+7.2%}"
        line += f" (bound {entry['bound']:.1%})"
        print(line)
    for t, seed, result in failures:
        print(f"  set {t} seed {seed}: not correct: "
              f"{result.get('error') or result}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
