"""Tape-free inference engine over a frozen checkpoint (DESIGN §11).

:class:`InferenceEngine` loads a CATE-HGN checkpoint, runs **one**
tape-free forward pass over the graph snapshot (reusing the shared
:class:`~repro.hetnet.structure.BatchStructure` cache), and then serves

- single-paper / bulk citation predictions (micro-batched head
  application over the precomputed embeddings, LRU result cache);
- top-k impact rankings per node type, optionally within one research
  domain (the Table-III analysis, productionized);
- cold-start scoring of unseen papers straight from their title text
  through the checkpointed word-embedding table (the TE text path).

Serving never touches the autodiff tape: every forward here runs under
:func:`repro.tensor.inference_mode`, so no backward closures or tape
nodes are allocated and the numbers are bitwise-identical to a grad-mode
forward.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..hetnet import PAPER
from ..core.hgn import GraphBatch
from ..resilience import faults
from ..tensor import Tensor, gather, inference_mode
from ..text import tokenize
from .cache import LRUCache
from .checkpoint import RestoredCATEHGN, restore_catehgn


class InferenceEngine:
    """Frozen-snapshot prediction service over a restored CATE-HGN."""

    def __init__(self, restored: RestoredCATEHGN, cache_size: int = 4096,
                 micro_batch: int = 256) -> None:
        self.restored = restored
        self.model = restored.model
        self.batch = restored.batch
        self.micro_batch = max(1, int(micro_batch))
        self.cache = LRUCache(cache_size)
        #: Checkpoint-baked prior head — the last rung of the serving
        #: fallback chain (DESIGN §13); ``None`` only for hand-built
        #: restores that carry no graph to fit one from.
        self.prior = restored.prior
        self._lock = threading.Lock()
        self._L = restored.config.num_layers
        # Freeze the snapshot: one tape-free forward precomputes every
        # node embedding; the batch's shared structure cache makes this
        # the only structure build of the engine's lifetime.
        start = time.perf_counter()
        with inference_mode():
            self._state = self.model.forward_state(self.batch)
        self.freeze_seconds = time.perf_counter() - start
        self._embeddings: Dict[str, Tensor] = self._state.masked[self._L]
        self._impact_cache: Dict[tuple, np.ndarray] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, path: Union[str, Path], cache_size: int = 4096,
                        micro_batch: int = 256,
                        mmap_mode: Optional[str] = None) -> "InferenceEngine":
        return cls(restore_catehgn(path, mmap_mode=mmap_mode),
                   cache_size=cache_size, micro_batch=micro_batch)

    # ------------------------------------------------------------------
    @property
    def num_papers(self) -> int:
        return self.batch.num_nodes[PAPER]

    def _denormalize(self, raw: np.ndarray) -> np.ndarray:
        r = self.restored
        return np.maximum(raw * r.label_std + r.label_mean, 0.0)

    def _head(self, embeddings: Tensor) -> np.ndarray:
        with inference_mode():
            return self.model.hgn.regress(self._L, embeddings).data

    # ------------------------------------------------------------------
    def predict(self, paper_ids: Sequence[int]) -> np.ndarray:
        """Citations/year for ``paper_ids`` (bitwise == the estimator's).

        Cached per paper id; cache misses are gathered and pushed through
        the regression head in ``micro_batch``-sized chunks over the
        precomputed embeddings — no message passing at query time.
        """
        ids = np.asarray(paper_ids, dtype=np.intp).reshape(-1)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.num_papers):
            raise IndexError(
                f"paper id out of range [0, {self.num_papers})"
            )
        # Fault site for the degrade drill (after the client-side range
        # check: an injected failure simulates *infrastructure* breakage,
        # never a bad request).  No-op unless an injector is armed.
        faults.fire("engine.predict", ids=ids)
        out = np.empty(len(ids), dtype=np.float64)
        miss_pos: List[int] = []
        for i, pid in enumerate(ids):
            found, value = self.cache.get(int(pid))
            if found:
                out[i] = value
            else:
                miss_pos.append(i)
        if miss_pos:
            with self._lock:
                miss_ids = ids[miss_pos]
                h_paper = self._embeddings[PAPER]
                for lo in range(0, len(miss_ids), self.micro_batch):
                    chunk = miss_ids[lo:lo + self.micro_batch]
                    with inference_mode():
                        rows = gather(h_paper, chunk)
                    preds = self._denormalize(self._head(rows))
                    for offset, (pid, value) in enumerate(zip(chunk, preds)):
                        out[miss_pos[lo + offset]] = value
                        self.cache.put(int(pid), float(value))
        return out

    def predict_all(self) -> np.ndarray:
        """Full prediction vector via the estimator's exact head call."""
        return self._denormalize(self._head(self._embeddings[PAPER]))

    # ------------------------------------------------------------------
    def impacts(self, node_type: str,
                cluster: Optional[int] = None) -> np.ndarray:
        """Impact score per node (Table III), from frozen embeddings."""
        if node_type not in self.batch.node_types:
            raise KeyError(f"unknown node type {node_type!r}")
        key = (node_type, cluster)
        # Check-compute-store under the engine lock: the server's batch
        # executor and in-process callers (drills, tests) may rank the
        # same key from different threads.
        with self._lock:
            if key not in self._impact_cache:
                if cluster is not None:
                    if self.model.ca is None:
                        raise ValueError(
                            "cluster-scoped ranking requires a checkpoint "
                            "trained with use_ca=True"
                        )
                    with inference_mode():
                        h = self.model.ca.mask_with_cluster(
                            self._state.output.layers[self._L][node_type],
                            int(cluster), self._L,
                        )
                else:
                    h = self._embeddings[node_type]
                self._impact_cache[key] = self._head(h)
            return self._impact_cache[key]

    def rank(self, node_type: str, k: int = 10,
             cluster: Optional[int] = None) -> List[dict]:
        """Top-``k`` nodes of ``node_type`` by predicted impact."""
        raw = self.impacts(node_type, cluster)
        scores = raw * self.restored.label_std + self.restored.label_mean
        k = max(0, min(int(k), len(scores)))
        top = np.argsort(scores, kind="stable")[::-1][:k]
        names = self.restored.graph.node_names.get(node_type)
        return [
            {
                "id": int(i),
                "name": (names[int(i)] if names is not None else str(int(i))),
                "score": float(scores[int(i)]),
            }
            for i in top
        ]

    # ------------------------------------------------------------------
    def score_title(self, title: Union[str, Sequence[str]]) -> float:
        """Cold-start: predicted citations/year for an *unseen* paper.

        The title is embedded with the checkpointed word-embedding table
        (the same featurization the training graph used) and pushed
        through the full model as a one-paper graph — self-loop-only
        propagation, the exact code path of
        :meth:`~repro.core.model.CATEHGNModel.predict_papers`.
        """
        embeddings = self.restored.embeddings
        if embeddings is None:
            raise ValueError(
                "checkpoint carries no text embeddings; cold-start "
                "scoring is unavailable"
            )
        tokens = tokenize(title) if isinstance(title, str) else list(title)
        row = embeddings.embed_tokens(tokens).reshape(1, -1)
        batch = self._single_paper_batch(row)
        with inference_mode():
            raw = self.model.predict_papers(batch)
        return float(self._denormalize(raw)[0])

    def _single_paper_batch(self, paper_row: np.ndarray) -> GraphBatch:
        """A 1-paper, 0-edge batch with the snapshot's feature geometry."""
        graph = self.restored.graph
        features: Dict[str, np.ndarray] = {}
        num_nodes: Dict[str, int] = {}
        for t in self.batch.node_types:
            if t == PAPER:
                width = graph.node_features[PAPER].shape[1]
                if paper_row.shape[1] != width:
                    raise ValueError(
                        f"title embedding dim {paper_row.shape[1]} != "
                        f"paper feature dim {width}"
                    )
                features[t] = paper_row.astype(np.float64)
                num_nodes[t] = 1
            else:
                features[t] = np.zeros(
                    (0, graph.node_features[t].shape[1])
                )
                num_nodes[t] = 0
        empty_i = np.array([], dtype=np.intp)
        empty_f = np.array([], dtype=np.float64)
        edges = {key: (empty_i, empty_i, empty_f, empty_f)
                 for key in self.batch.edges}
        batch = GraphBatch(node_types=list(self.batch.node_types),
                           features=features, edges=edges,
                           num_nodes=num_nodes, labeled_ids=empty_i,
                           labels=empty_f)
        if self.restored.config.use_label_inputs:
            # No known labels for an unseen paper: the two label-input
            # channels are appended as zeros (value 0, is-known 0).
            batch = batch.with_label_inputs(empty_i, empty_f,
                                            empty_i, empty_f)
        return batch

    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Snapshot description for ``/healthz``."""
        g = self.restored.graph
        return {
            "num_papers": self.num_papers,
            "num_nodes": {t: int(n) for t, n in g.num_nodes.items()},
            "num_edges": int(g.total_edges),
            "dim": self.restored.config.dim,
            "num_layers": self._L,
            "use_ca": self.restored.config.use_ca,
            "use_te": self.restored.config.use_te,
            "cold_start": self.restored.embeddings is not None,
            "prior_head": self.prior is not None,
            "freeze_seconds": self.freeze_seconds,
        }
