"""Harness side of ``train-full`` and ``train-sampled``.

One worker child (``catebench.train_worker``) measures a set-up and runs
the timed fits; ``SETUP_PROBES`` more children each measure one more
set-up from a fresh interpreter, and ``setup_s`` is the median.

A fit passes its output check when it raised nothing, logged no
``rollback`` or ``quarantine`` event, beat the training-mean predictor
on the test split, and reproduced the reference test RMSE within
``RMSE_TOL``: the value recorded in ``references.json`` for recorded
seeds, otherwise the first fit of the run (fits are deterministic, so
every fit of one seed must agree).  The dataset fingerprint must match
on every run, the whole input fingerprint on recorded seeds.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, List

from catebench import inputs, measure
from catebench.harness import Outcome, RunContext

SETUP_PROBES = 2


def run(ctx: RunContext) -> Outcome:
    common = ["--workload", ctx.workload, "--seed", str(ctx.seed),
              "--seconds", str(ctx.seconds), "--trace", str(int(ctx.trace)),
              "--out", str(ctx.out)]
    phases = 2 if ctx.trace else 1
    ctx.run_module("train_worker",
                   common + ["--spawned-at", repr(time.monotonic())],
                   timeout=60 + phases * (ctx.seconds + 40), log="worker.log")
    with open(ctx.out / "worker.json") as handle:
        worker = json.load(handle)
    setups = [worker["setup"]]
    for probe in range(SETUP_PROBES):
        ctx.run_module("train_worker",
                       common + ["--mode", "setup", "--probe", str(probe),
                                 "--spawned-at", repr(time.monotonic())],
                       timeout=60, log="worker.log")
        with open(ctx.out / f"setup-{probe}.json") as handle:
            setups.append(json.load(handle))
    (ctx.out / "world.pkl").unlink()

    fits = worker["fits"] + worker.get("traced_fits", [])
    reference = inputs.load_references()[ctx.workload]
    recorded = reference["seeds"].get(str(ctx.seed))
    problems = inputs.fingerprint_problems(
        reference, ctx.seed, worker["dataset_sha256"], worker["inputs_sha256"])
    verdicts = _fit_verdicts(recorded, worker, fits, inputs_ok=not problems)
    problems += sorted({reason for reason in verdicts if reason})
    passed = sum(1 for reason in verdicts if not reason)

    untraced = worker["fits"]
    wall = [fit["wall_s"] for fit in untraced]
    metrics: Dict[str, float] = {
        "setup_s": measure.median(s["setup_s"] for s in setups),
        # Medians over the fits of the run: each fit is the same work, so
        # a slow one is the host, not the program.
        "ops_per_s": 1.0 / measure.median(wall),
        "op_ms.p50": measure.median(wall) * 1e3,
        "cpu_ms_per_op": measure.median(fit["cpu_s"] for fit in untraced)
        * 1e3,
        "mem_mib": worker["peak_rss_kib"] / 1024.0,
        "success_frac": passed / len(fits),
    }
    if ctx.trace:
        traced = worker["traced_fits"]
        metrics.update(worker["layers"])
        metrics["setup.import_ms"] = measure.median(
            s["import_s"] for s in setups) * 1e3
        metrics["setup.data_build_ms"] = measure.median(
            s["build_s"] for s in setups) * 1e3
        metrics["trace.overhead"] = (
            measure.median(f["wall_s"] for f in traced)
            / measure.median(wall) - 1.0)
    details = {
        "dataset_sha256": worker["dataset_sha256"],
        "inputs_sha256": worker["inputs_sha256"],
        "test_rmse": [fit["test_rmse"] for fit in fits],
        "mean_predictor_rmse": worker["mean_predictor_rmse"],
        "fit_wall_s": wall,
        "fit_cpu_s": [fit["cpu_s"] for fit in untraced],
        "setups": setups,
    }
    return Outcome(attempted=len(fits), passed=passed, metrics=metrics,
                   problems=problems, details=details)


def _fit_verdicts(recorded, worker: dict, fits: List[dict], *,
                  inputs_ok: bool) -> List[str]:
    """Per fit: empty when it passed, else the reason it failed."""
    target = (recorded["test_rmse"] if recorded else
              next((f["test_rmse"] for f in fits if not f["error"]), math.nan))
    bar = worker["mean_predictor_rmse"]
    verdicts = []
    for fit in fits:
        rmse = fit["test_rmse"]
        if fit["error"]:
            verdicts.append(f"fit raised {fit['error']}")
        elif any(event in inputs.BAD_EVENTS for event in fit["events"]):
            verdicts.append(f"fit logged {fit['events']}")
        elif not (math.isfinite(rmse) and rmse < bar):
            verdicts.append(f"test RMSE {rmse} does not beat the "
                            f"mean predictor's {bar}")
        elif abs(rmse - target) > inputs.RMSE_TOL:
            verdicts.append(f"test RMSE {rmse!r} != reference {target!r}")
        elif not inputs_ok:
            verdicts.append("inputs differ from the recorded fingerprint")
        else:
            verdicts.append("")
    return verdicts
