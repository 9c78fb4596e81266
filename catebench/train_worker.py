"""Child process of the training workloads.

``--mode setup`` measures one set-up: from the parent's spawn timestamp
to ``repro`` imported, then — with world generation excluded — the data
build (``TextArtifacts.fit`` + ``make_dblp_full``).  ``--mode run`` does
the same, writes the world for later set-up probes, and then fits
``CATEHGN`` back to back for ``--seconds``: the timed phase, with its
peak RSS reset at the start.  With ``--trace 1`` a second, traced phase
of the same length follows, with spans around every layer.

Results go to ``<out>/worker.json`` (or ``<out>/setup-<n>.json``); the
harness in ``catebench.training`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from catebench import inputs, measure
from catebench.harness import SRC
from catebench.tracing import (OP, Tracer, coverage, install_training,
                               layer_totals)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="catebench.train_worker")
    parser.add_argument("--workload", choices=inputs.TRAINING, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--probe", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # --- timed set-up: import ------------------------------------------
    import repro
    from repro.core import CATEHGN, CATEHGNConfig
    from repro.data import MinibatchSampler
    from repro.tensor import tape_nodes_created
    imported = time.monotonic()
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # --- untimed: world generation --------------------------------------
    world_file = args.out / "world.pkl"
    if args.mode == "setup":
        with open(world_file, "rb") as handle:
            world = pickle.load(handle)
    else:
        world = inputs.generate(args.workload)
        with open(world_file, "wb") as handle:
            pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
    world_ready = time.monotonic()

    # --- timed set-up: data build ---------------------------------------
    dataset = inputs.build_dataset(world)
    built = time.monotonic()
    setup = {"import_s": imported - args.spawned_at,
             "build_s": built - world_ready}
    setup["setup_s"] = setup["import_s"] + setup["build_s"]
    if args.mode == "setup":
        _write(args.out / f"setup-{args.probe}.json", setup)
        return 0

    config = inputs.train_config(args.workload, args.seed)
    sampler = inputs.sampler_config(args.workload, args.seed)
    dataset_digest = inputs.dataset_sha256(dataset)

    def fit_once(tracer=None, op_id=0) -> dict:
        record = {"error": None, "events": [], "test_rmse": math.nan}
        wall, cpu = time.perf_counter(), time.process_time()
        tape = tape_nodes_created()
        if tracer is not None:
            tracer.op = op_id
        try:
            with tracer.span(OP) if tracer is not None else nullcontext():
                estimator = CATEHGN(CATEHGNConfig(**config)).fit(
                    dataset, sampler=(MinibatchSampler(**sampler)
                                      if sampler else None))
        except Exception as exc:  # noqa: BLE001 — a failed op, reported
            record["error"] = f"{type(exc).__name__}: {exc}"
            estimator = None
        finally:
            record["wall_s"] = time.perf_counter() - wall
            record["cpu_s"] = time.process_time() - cpu
            if tracer is not None:
                tracer.op = 0
                tracer.count("tensor.tape_nodes", tape_nodes_created() - tape)
        if estimator is not None:
            record["events"] = [event.get("type")
                                for event in estimator.history.events]
            record["test_rmse"] = inputs.test_rmse(estimator, dataset)
        return record

    def timed_phase(tracer=None) -> list:
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < args.seconds:
            records.append(fit_once(tracer, len(records) + 1))
        return records

    measure.reset_peak_rss(os.getpid())
    fits = timed_phase()
    result = {
        "setup": setup,
        "dataset_sha256": dataset_digest,
        "inputs_sha256": inputs.inputs_sha256(
            dataset_digest, {"model": config, "sampler": sampler}),
        "mean_predictor_rmse": inputs.mean_predictor_rmse(dataset),
        "peak_rss_kib": measure.peak_rss_kib(os.getpid()),
        "fits": fits,
    }
    if args.trace:
        tracer = Tracer()
        install_training(tracer)
        result["traced_fits"] = timed_phase(tracer)
        tracer.uninstall()
        tracer.dump(args.out / "spans.jsonl")
        result["layers"] = layer_metrics(tracer, len(result["traced_fits"]))
    _write(args.out / "worker.json", result)
    return 0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer figures of the traced phase (spans inside fits only)."""
    spans = [span for span in tracer.spans if span.op]
    totals = layer_totals(spans)

    def calls(*names: str) -> float:
        return sum(totals[n].calls for n in names if n in totals) / ops

    def self_ms(*names: str) -> float:
        return sum(totals[n].self_ns for n in names if n in totals) / 1e6 / ops

    sampling_calls = calls("sampling") * ops
    return {
        "sampling.calls": calls("sampling"),
        "sampling.ms": self_ms("sampling"),
        "sampling.nodes_per_batch": (
            tracer.counters["sampling.nodes"] / sampling_calls
            if sampling_calls else 0.0),
        "structure.builds": calls("structure.batch"),
        "structure.ms": self_ms("structure.batch", "structure.edge"),
        "core.forward_calls": calls("core.forward"),
        "core.forward_ms": self_ms("core.forward"),
        "core.loss_ms": self_ms("core.loss"),
        "tensor.backward_ms": self_ms("tensor.backward"),
        "tensor.tape_nodes": tracer.counters["tensor.tape_nodes"] / ops,
        "optim.ms": self_ms("optim"),
        "te.ms": self_ms("te"),
        "core.predict_ms": (totals["core.predict"].total_ns / 1e6 / ops
                            if "core.predict" in totals else 0.0),
        "trace.coverage": coverage(spans),
    }


def _write(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    raise SystemExit(main())
