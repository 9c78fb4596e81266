"""Immutable per-batch graph-structure cache for message passing.

Every layer of every forward pass needs the same handful of derived index
structures per edge type: a destination-sorted edge ordering (so segment
reductions can run as contiguous ``np.add.reduceat`` slices instead of
scattered ``np.add.at`` updates), CSR-style segment boundaries, in-degree
counts, and destination presence masks for the link-wise attention of
Eq. (15).  Before this cache existed, ``OneSpaceHGN._layer_forward``
recomputed all of them on every layer of every forward.

:class:`BatchStructure` computes them **once per batch** and is shared by

- all layers of one forward pass,
- all forward passes over the same batch (every mini-iteration, every
  outer iteration, every evaluation pass of Algorithm 1),
- the label-input augmented views produced by
  :meth:`repro.core.hgn.GraphBatch.with_label_inputs` and the feature
  views of :meth:`~repro.core.hgn.GraphBatch.with_features` (topology
  is untouched there, so the cache is propagated), and
- the GNN baselines via :mod:`repro.baselines.gnn_common`.

Invalidation rule: the cache is keyed by object identity of the edge
dict — any operation that changes topology (``TextEnhancer.
rebuild_graph_terms`` rewriting term edges, neighbourhood sampling
producing a subgraph) builds a *new* ``GraphBatch`` from the graph and
therefore a fresh structure.  The arrays themselves are treated as
immutable; nothing in the repository mutates them after construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .schema import EdgeTypeKey

__all__ = ["EdgeStructure", "BatchStructure"]


class EdgeStructure:
    """Destination-grouped index arrays for one edge type.

    Attributes
    ----------
    order:
        Stable argsort of ``dst`` — applying it to any per-edge array
        groups the rows of each destination contiguously.
    indptr:
        ``(num_dst + 1,)`` CSR boundaries into the sorted arrays:
        destination ``v``'s in-edges occupy ``order[indptr[v]:indptr[v+1]]``.
    counts:
        Float64 in-degree per destination (for mean aggregation).
    presence:
        Boolean mask of destinations with at least one in-edge (the
        Eq. 15 attention mask source).
    """

    __slots__ = ("src", "dst", "num_dst", "order", "sorted_dst", "indptr",
                 "counts", "presence", "_src_view")

    def __init__(self, src: np.ndarray, dst: np.ndarray, num_dst: int) -> None:
        self.src = np.asarray(src, dtype=np.intp)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.num_dst = int(num_dst)
        self.order = np.argsort(self.dst, kind="stable")
        self.sorted_dst = self.dst[self.order]
        self.indptr = np.searchsorted(
            self.sorted_dst, np.arange(self.num_dst + 1), side="left"
        )
        self.counts = np.bincount(
            self.dst, minlength=self.num_dst
        ).astype(np.float64)
        self.presence = self.counts > 0
        self._src_view: Optional["EdgeStructure"] = None

    def src_view(self, num_src: int) -> "EdgeStructure":
        """Source-grouped companion structure (lazy, cached).

        The backward of a source-side gather scatters per-edge gradients
        by ``src``; with this view the scatter runs as a contiguous
        ``reduceat`` over src-sorted rows, just like the forward's
        dst-side reductions.
        """
        if self._src_view is None:
            self._src_view = EdgeStructure(self.dst, self.src, num_src)
        return self._src_view

    @classmethod
    def identity(cls, num_nodes: int) -> "EdgeStructure":
        """The self-loop structure: node ``v`` connects only to itself."""
        ids = np.arange(num_nodes, dtype=np.intp)
        return cls(ids, ids, num_nodes)


class BatchStructure:
    """All per-edge-type structures of one batch, plus attention masks.

    ``builds`` counts constructor invocations process-wide; the structure
    cache-hit test asserts it stays flat across layers and forwards.
    """

    #: Process-wide construction counter (observability for cache tests).
    builds: int = 0

    def __init__(
        self,
        edges: Dict[EdgeTypeKey, Tuple[np.ndarray, ...]],
        num_nodes: Dict[str, int],
        node_types: Optional[List[str]] = None,
    ) -> None:
        BatchStructure.builds += 1
        self.num_nodes = dict(num_nodes)
        self.edge: Dict[EdgeTypeKey, EdgeStructure] = {}
        for key, arrays in edges.items():
            src, dst = arrays[0], arrays[1]
            self.edge[key] = EdgeStructure(src, dst, num_nodes[key[2]])
        self._self: Dict[int, EdgeStructure] = {}
        if node_types is None:
            node_types = list(num_nodes)
        # Active (non-empty) incoming edge types per destination type, in
        # edge-dict order — the iteration order of Eq. 13's outer sum.
        self.active_keys: Dict[str, List[EdgeTypeKey]] = {
            t: [k for k in edges if k[2] == t and len(edges[k][0]) > 0]
            for t in node_types
        }
        # Eq. 15 presence masks: (N_t, T_t + 1) with the trailing all-True
        # column for the self-loop pseudo type.
        self.mask: Dict[str, np.ndarray] = {}
        for t in node_types:
            cols = [self.edge[k].presence for k in self.active_keys[t]]
            cols.append(np.ones(num_nodes[t], dtype=bool))
            self.mask[t] = np.stack(cols, axis=1)

    def self_loop(self, num_nodes: int) -> EdgeStructure:
        """Identity structure for ``num_nodes`` self edges (cached)."""
        if num_nodes not in self._self:
            self._self[num_nodes] = EdgeStructure.identity(num_nodes)
        return self._self[num_nodes]
