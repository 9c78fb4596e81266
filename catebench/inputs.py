"""Workload definitions and the seeded inputs each workload runs on.

Worlds are fixed per workload (generator seed 3, as in the repository's
BENCH_WORLD); ``--seed`` picks the model and sampler seed of the
training workloads and the request script of the serving workloads, so
every seed asks the program for the same amount of work.

The SHA-256 of a run's inputs — dataset arrays (graph, features, labels,
splits) plus the workload configuration, seed and request script — is
checked against ``references.json``: the dataset part on every run, the
whole fingerprint and the reference test RMSE for the seeds recorded
there.  A change to ``repro.data`` or ``repro.text`` that alters the
inputs therefore fails the output check instead of silently swapping the
workload between two commits.  To record a seed, run the benchmark with
it and copy ``inputs_sha256`` and ``test_rmse`` from the run's
``result.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("train-full", "train-sampled", "serve-direct", "serve-fleet")
TRAINING = ("train-full", "train-sampled")

#: BENCH_WORLD of ``benchmarks/common.py``: the headline DBLP-full world.
BENCH_WORLD = dict(num_papers=1000, num_authors=200, seed=3)
#: Large enough that a 2-hop sample of 32 seeds at fanout 5 stays a small
#: share of the graph (on BENCH_WORLD it would span most of it).
SAMPLED_WORLD = dict(num_papers=8000, num_authors=1600, seed=3)
FEATURE_DIM = 32

#: CATE_SETTINGS of ``benchmarks/common.py`` (Section IV-A3, CPU scale).
CATE_SETTINGS = dict(dim=24, attention_heads=2, outer_iters=18, mini_iters=8,
                     lr=0.01, kappa=40, patience=8, seed=0)
#: One train-full op: 24 HGN steps, 6 center steps, 1 TE refinement and
#: 3 validation passes.
TRAIN_FULL = dict(CATE_SETTINGS, outer_iters=3)
#: One train-sampled op: the HGN objective, 40 sampled steps, 1 validation.
TRAIN_SAMPLED = dict(CATE_SETTINGS, outer_iters=1, mini_iters=40,
                     use_ca=False, use_te=False)
SAMPLER = dict(batch_size=32, fanouts=5)
#: The served checkpoint: a 2-iteration CATE-HGN fit at model seed 0.
CHECKPOINT = dict(CATE_SETTINGS, outer_iters=2)

#: Serving traffic.  Four uniform ids per request, as the repository's
#: loadtest sends (``IDS_PER_REQUEST`` of ``benchmarks/perf/loadtest.py``).
#: The 5% share of cold-start title requests is an assumption, not a
#: measured mix: titles bypass the batcher and run a one-paper forward, so
#: the share sets how much of the server's CPU they take, which a traced
#: run reports as ``engine.title_share``.
TITLE_SHARE = 0.05
IDS_PER_REQUEST = 4
TITLE_WORDS = 8
SCRIPT_LENGTH = 30_000

#: Absolute RMSE tolerance of a reproduced fit (the golden tests' TOL).
RMSE_TOL = 1e-6
#: Resilience events that disqualify a fit.
BAD_EVENTS = ("rollback", "quarantine")

REFERENCES = Path(__file__).resolve().parent / "references.json"


def world_config(workload: str) -> Dict[str, int]:
    return SAMPLED_WORLD if workload == "train-sampled" else BENCH_WORLD


def train_config(workload: str, seed: int) -> Dict[str, object]:
    base = TRAIN_FULL if workload == "train-full" else TRAIN_SAMPLED
    return dict(base, seed=seed)


def sampler_config(workload: str, seed: int) -> Optional[Dict[str, int]]:
    return dict(SAMPLER, seed=seed) if workload == "train-sampled" else None


# ---------------------------------------------------------------------------
# Program-side builders (import repro lazily: callers time the import)
# ---------------------------------------------------------------------------

def generate(workload: str):
    from repro.data import WorldConfig, generate_world

    return generate_world(WorldConfig(**world_config(workload)))


def build_dataset(world):
    """``TextArtifacts.fit`` + ``make_dblp_full``: the timed data build."""
    from repro.data import TextArtifacts, make_dblp_full

    text = TextArtifacts.fit(world, dim=FEATURE_DIM)
    return make_dblp_full(world=world, text=text)


def dataset_sha256(dataset) -> str:
    """Digest of every array the program trains on, in a fixed order."""
    import numpy as np

    digest = hashlib.sha256()

    def add(label: str, array) -> None:
        array = np.ascontiguousarray(array)
        digest.update(f"{label}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())

    graph = dataset.graph
    for node_type in sorted(graph.num_nodes):
        add(f"n:{node_type}", np.asarray([graph.num_nodes[node_type]]))
        add(f"x:{node_type}", graph.node_features[node_type])
        for name in sorted(graph.node_attrs.get(node_type, {})):
            add(f"a:{node_type}:{name}", graph.node_attrs[node_type][name])
    for key in sorted(graph.edges):
        edges = graph.edges[key]
        for part in ("src", "dst", "weight"):
            add(f"e:{'|'.join(key)}:{part}", getattr(edges, part))
    add("labels", dataset.labels)
    for split in ("train_idx", "val_idx", "test_idx"):
        add(split, getattr(dataset, split))
    digest.update("\n".join(dataset.term_tokens).encode())
    return digest.hexdigest()


def inputs_sha256(dataset_digest: str, config: Dict[str, object],
                  script: bytes = b"") -> str:
    """Digest of a run's whole input: dataset, configuration, script."""
    digest = hashlib.sha256(dataset_digest.encode())
    digest.update(json.dumps(config, sort_keys=True).encode())
    digest.update(script)
    return digest.hexdigest()


def test_rmse(estimator, dataset) -> float:
    from repro.eval.metrics import rmse

    preds = estimator.predict(dataset)[dataset.test_idx]
    return float(rmse(dataset.labels[dataset.test_idx], preds))


def mean_predictor_rmse(dataset) -> float:
    """Test RMSE of predicting the training mean: the bar a fit must beat."""
    import numpy as np

    truth = dataset.labels[dataset.test_idx]
    guess = float(dataset.labels[dataset.train_idx].mean())
    return float(np.sqrt(np.mean((truth - guess) ** 2)))


# ---------------------------------------------------------------------------
# Serving traffic
# ---------------------------------------------------------------------------

def request_bodies(seed: int, num_papers: int, vocabulary: List[str],
                   count: int = SCRIPT_LENGTH) -> List[bytes]:
    """The seeded ``POST /predict`` bodies one serving run replays.

    ``IDS_PER_REQUEST`` uniform paper ids, or with probability
    ``TITLE_SHARE`` a cold-start title of ``TITLE_WORDS`` corpus words.
    """
    rng = random.Random(seed)
    bodies = []
    for _ in range(count):
        if rng.random() < TITLE_SHARE:
            title = " ".join(rng.choice(vocabulary)
                             for _ in range(TITLE_WORDS))
            payload: Dict[str, object] = {"title": title}
        else:
            payload = {"paper_ids": [rng.randrange(num_papers)
                                     for _ in range(IDS_PER_REQUEST)]}
        bodies.append(json.dumps(payload).encode())
    return bodies


def load_references() -> Dict[str, dict]:
    with open(REFERENCES) as handle:
        return json.load(handle)


def fingerprint_problems(reference: dict, seed: int, dataset_digest: str,
                         inputs_digest: str) -> List[str]:
    """Mismatches against a workload's entry in ``references.json``."""
    problems = []
    if dataset_digest != reference["dataset_sha256"]:
        problems.append(f"dataset fingerprint {dataset_digest} != recorded "
                        f"{reference['dataset_sha256']}")
    recorded = reference["seeds"].get(str(seed))
    if recorded and inputs_digest != recorded["inputs_sha256"]:
        problems.append(f"input fingerprint {inputs_digest} != recorded "
                        f"{recorded['inputs_sha256']}")
    return problems
