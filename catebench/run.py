"""Run one benchmark workload and print its metrics.

    python3 catebench/run.py --workload train-full --seed 0 --seconds 15 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``train-full``    — ``CATEHGN.fit``, full-batch Algorithm 1;
* ``train-sampled`` — ``CATEHGN.fit(sampler=MinibatchSampler(...))``;
* ``serve-direct``  — ``python -m repro.serve <ckpt> --aio``;
* ``serve-fleet``   — ``python -m repro.fleet <ckpt> --replicas 1``.

With ``--trace 0`` the run reports every end-to-end metric of
``BENCHMARK.json``, measured untraced; with ``--trace 1`` every
per-layer metric, from a traced phase that follows an untraced one
(their throughput ratio is ``trace.overhead``).  A layer a workload does
not run reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
— host metadata (nproc, versions, BLAS threads, steal share, the
calibration loop at start and end), fingerprints, reference values and
raw samples — goes to ``result.json`` in the run directory under
``.bench_build/catebench/``, next to the children's logs and the trace.
The exit code is 0 whenever a result is printed; a run that cannot
produce one (no program source, a child that crashed or hung) exits 1 or
2 without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Import the benchmark as a package from the checkout root, never its
# modules as top-level names from this script's directory.
sys.path[0] = str(ROOT)

from catebench import harness, inputs, measure, serving, training  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="catebench/run.py")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {harness.SRC / 'repro'}",
              file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    out = (ROOT / ".bench_build" / "catebench"
           / f"{args.workload}-seed{args.seed}-trace{args.trace}"
             f"-{time.strftime('%Y%m%d%H%M%S')}-{os.getpid()}")
    out.mkdir(parents=True)
    ticks = measure.cpu_ticks()
    calibration = [measure.calibration_seconds()]
    ctx = harness.RunContext(args.workload, args.seed, args.seconds,
                             bool(args.trace), out)
    driver = training if args.workload in inputs.TRAINING else serving
    try:
        outcome = driver.run(ctx)
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calibration.append(measure.calibration_seconds())
    host = measure.host_metadata()
    host["steal_share"] = measure.steal_share(ticks, measure.cpu_ticks())
    host["calibration_s"] = calibration

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(outcome.metrics) - known)
    missing = [m["name"] for m in spec["end_to_end"]
               if not args.trace and m["name"] not in outcome.metrics]
    if unknown or missing:
        print(f"error: metrics not in BENCHMARK.json {unknown}, "
              f"not measured {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(outcome.metrics.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.attempted - outcome.passed,
              "metrics": metrics}
    with open(out / "result.json", "w") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "problems": outcome.problems, "host": host,
                   "details": outcome.details}, handle, indent=1)

    print(f"catebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} -> {out}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6f} {metric['unit']}")
    for key in ("dataset_sha256", "inputs_sha256", "op_ms.p99"):
        if key in outcome.details:
            print(f"  {key}: {outcome.details[key]}")
    print(f"  host: nproc={host['nproc']} steal={host['steal_share']:.4f} "
          f"calibration_s={calibration[0]:.3f}/{calibration[1]:.3f} "
          f"blas={host['blas_version']} x{host['blas_threads']}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
