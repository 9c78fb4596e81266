"""Child process that prepares a serving run before any clock starts.

Builds the BENCH_WORLD dataset, fits and saves the served checkpoint
(a 2-iteration CATE-HGN), and writes the seeded request script:

* ``<out>/model.npz`` (+ graph sidecar) — the checkpoint;
* ``<out>/predictions.npy`` — the fitted estimator's own predictions
  for every paper, taken before the checkpoint is restored anywhere;
* ``<out>/requests.json`` — the request bodies, in script order;
* ``<out>/prep.json`` — fingerprints and the checkpoint's test RMSE.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from catebench import inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="catebench.serve_prep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy as np
    from repro.core import CATEHGN, CATEHGNConfig

    dataset = inputs.build_dataset(inputs.generate("serve-direct"))
    estimator = CATEHGN(CATEHGNConfig(**inputs.CHECKPOINT)).fit(dataset)
    checkpoint = estimator.save_checkpoint(args.out / "model")
    np.save(args.out / "predictions.npy", estimator.predict(dataset))
    vocabulary = dataset.text.corpus.vocabulary
    words = [vocabulary.token(i) for i in range(len(vocabulary))]
    bodies = inputs.request_bodies(args.seed, dataset.num_papers, words)
    digest = inputs.dataset_sha256(dataset)
    with open(args.out / "requests.json", "w") as handle:
        json.dump([body.decode() for body in bodies], handle)
    with open(args.out / "prep.json", "w") as handle:
        json.dump({
            "checkpoint": checkpoint,
            "dataset_sha256": digest,
            "inputs_sha256": inputs.inputs_sha256(
                digest, {"checkpoint": inputs.CHECKPOINT, "seed": args.seed},
                b"\n".join(bodies)),
            "checkpoint_test_rmse": inputs.test_rmse(estimator, dataset),
            "events": [event.get("type")
                       for event in estimator.history.events],
        }, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
