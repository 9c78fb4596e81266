"""One-space heterogeneous graph network (Section III-C).

The HGN jointly embeds *all* node types and link types into a single space:

- type-aware node/link encoders (Eq. 5);
- per-layer convolutions that compose neighbour and link-type embeddings
  with a KGE operator φ and share one transformation matrix across link
  types (Eq. 3-4);
- three-way multi-head attentions: node-wise within a neighbour type
  (Eq. 14) and link-wise across neighbour types (Eq. 15), combined per
  Eq. (13);
- a per-layer citation regressor supervised at every layer (Eq. 6).

Two faithful-by-construction simplifications are documented here rather
than hidden:

- Eq. 5 encodes each link type as W_ψ(e) x_e + b_ψ(e) where x_e is a
  *random constant* per type — that parameterization spans exactly one free
  learnable vector per link type, so we store it directly as a per-type
  embedding table.
- A learnable self-connection is added as an extra pseudo link type per
  node (the self-loop of Eq. 1's Ã), which keeps nodes with few in-links
  well-defined under attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hetnet import HeteroGraph
from ..hetnet.schema import PAPER, EdgeTypeKey
from ..hetnet.structure import BatchStructure, EdgeStructure
from ..nn import Linear, Module, Parameter, init
from ..tensor import (
    Tensor,
    circular_correlation_row,
    concatenate,
    gather,
    gather_matmul,
    masked_softmax_combine,
    segment_mean,
    segment_softmax,
    segment_softmax_fused,
    segment_sum,
    segment_weighted_sum,
    softmax,
)

SELF_LOOP = "self"


@dataclass
class HGNConfig:
    """Hyper-parameters of the one-space HGN (paper's Section IV-A3).

    The paper's defaults are L=2, d=100, corr composition, 10 attention
    heads; the library defaults shrink dims/heads to CPU scale while keeping
    the same structure.
    """

    dim: int = 32
    num_layers: int = 2
    composition: str = "corr"
    attention_heads: int = 4  # D_a = D_b
    use_attention: bool = True
    leaky_slope: float = 0.2
    seed: int = 0
    # Fused message-passing kernels + batch-structure cache (DESIGN §10).
    # ``False`` selects the legacy composed-op path, kept for the
    # numerical-equivalence regression tests and as a fallback.
    fused: bool = True


@dataclass
class GraphBatch:
    """A heterogeneous (sub)graph flattened into training-ready arrays."""

    node_types: List[str]
    features: Dict[str, np.ndarray]
    # edge type key -> (src ids, dst ids, raw weight, normalized weight)
    edges: Dict[EdgeTypeKey, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    num_nodes: Dict[str, int]
    labeled_ids: np.ndarray  # paper ids with known citation labels
    labels: np.ndarray
    # Concatenation layout of the "one space": type -> (offset, length).
    slices: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # Shared lazy cell holding the immutable BatchStructure cache.  A
    # one-element list so label-augmented views (which share topology)
    # also share the cache the moment any of them builds it.
    _structure_cell: Optional[list] = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        offset = 0
        for t in self.node_types:
            self.slices[t] = (offset, self.num_nodes[t])
            offset += self.num_nodes[t]
        self.total_nodes = offset
        if self._structure_cell is None:
            self._structure_cell = [None]

    @property
    def structure(self) -> BatchStructure:
        """Dst-sorted orderings / CSR indptr / presence masks, built once.

        Lazily constructed on first access and shared by every view of
        this batch (all layers, all forward passes, all
        :meth:`with_label_inputs` augmentations).  Topology changes must
        go through a new ``GraphBatch`` — see
        :mod:`repro.hetnet.structure` for the invalidation rules.
        """
        if self._structure_cell[0] is None:
            self._structure_cell[0] = BatchStructure(
                self.edges, self.num_nodes, self.node_types
            )
        return self._structure_cell[0]

    def with_features(self, features: Dict[str, np.ndarray]) -> "GraphBatch":
        """The same batch with new feature rows (same shapes per type).

        Topology is untouched, so the view shares this batch's structure
        cache.
        """
        return GraphBatch(node_types=list(self.node_types), features=features,
                          edges=self.edges, num_nodes=dict(self.num_nodes),
                          labeled_ids=self.labeled_ids, labels=self.labels,
                          _structure_cell=self._structure_cell)

    def with_label_inputs(self, input_ids: np.ndarray,
                          input_values: np.ndarray,
                          supervised_ids: np.ndarray,
                          supervised_labels: np.ndarray) -> "GraphBatch":
        """Augment paper features with known-label input channels.

        The paper's RankClus-inspired narrative — "starting from the
        labeled papers … infer the prestige of authors and the authority
        of venues" — propagates *known impact* through the network.  A
        feature-based GNN realizes that by feeding the training labels in
        as two extra paper-feature columns (value, is-known flag), in the
        style of masked label inputs (UniMP): during training, a random
        half of the labels is visible in the input while the loss is taken
        on the hidden half, so a paper never sees its own label.
        """
        features = dict(self.features)
        papers = features["paper"]
        extra = np.zeros((papers.shape[0], 2))
        extra[input_ids, 0] = input_values
        extra[input_ids, 1] = 1.0
        features["paper"] = np.hstack([papers, extra])
        return GraphBatch(node_types=list(self.node_types), features=features,
                          edges=self.edges, num_nodes=dict(self.num_nodes),
                          labeled_ids=np.asarray(supervised_ids, dtype=np.intp),
                          labels=np.asarray(supervised_labels, dtype=np.float64),
                          _structure_cell=self._structure_cell)

    @classmethod
    def from_graph(cls, graph: HeteroGraph, labeled_ids: np.ndarray,
                   labels: np.ndarray,
                   share_structure: bool = False,
                   validate: Optional[str] = None) -> "GraphBatch":
        """Flatten ``graph`` into a training-ready batch.

        With ``share_structure=True`` the batch adopts the graph's shared
        structure cell (:meth:`HeteroGraph.structure_cell`): every batch
        built from the same unmutated graph then shares one
        :class:`~repro.hetnet.structure.BatchStructure`, so a roster of
        models trained on one dataset builds it exactly once.  The
        default (``False``) keeps the historical per-batch cache.

        ``validate`` optionally runs the finished batch through the
        contract layer (:mod:`repro.contracts`) under the named policy
        (``"strict"``/``"repair"``/``"warn"``).  On clean input the
        batch is returned unchanged (identity), so enabling validation
        is trajectory-neutral; under ``"repair"`` a poisoned batch is
        rebuilt with offenders quarantined.  Note a repaired batch drops
        the shared structure cell — its topology differs from the
        graph's.
        """
        edges = {}
        for key, edge in graph.edges.items():
            max_w = edge.weight.max() if edge.num_edges else 1.0
            # Alias instead of copying when the weights are already
            # normalized (the common all-ones case): x / 1.0 == x
            # bitwise, and edge arrays are treated as immutable, so the
            # alias is safe and saves an O(E) allocation per batch.
            norm = (edge.weight if max_w == 1.0
                    else edge.weight / max(max_w, 1e-12))
            edges[key] = (edge.src, edge.dst, edge.weight, norm)
        batch = cls(
            node_types=list(graph.schema.node_types),
            features={t: graph.node_features[t] for t in graph.schema.node_types},
            edges=edges,
            num_nodes=dict(graph.num_nodes),
            labeled_ids=np.asarray(labeled_ids, dtype=np.intp),
            labels=np.asarray(labels, dtype=np.float64),
            _structure_cell=(graph.structure_cell() if share_structure
                             else None),
        )
        if validate is not None:
            from ..contracts import validate_batch  # lazy: no core->contracts cycle

            batch, _ = validate_batch(batch, policy=validate)
        return batch


@dataclass
class HGNOutput:
    """Everything downstream modules need from one forward pass."""

    # layers[l][node_type] -> (N_t, dim); layer 0 is the encoder output.
    layers: List[Dict[str, Tensor]]
    # Per-layer predictions on *unmasked* embeddings (filled by the model
    # wrapper when CA masking applies — see model.py).
    predictions: List[Dict[str, Tensor]] = field(default_factory=list)


class OneSpaceHGN(Module):
    """Eq. 3-6 and 13-15: the HGN backbone."""

    def __init__(self, config: HGNConfig, node_types: List[str],
                 feature_dims: Dict[str, int],
                 edge_type_keys: List[EdgeTypeKey]) -> None:
        super().__init__()
        from .composition import get_composition

        self.config = config
        self.node_types = list(node_types)
        self.edge_type_keys = list(edge_type_keys)
        self.compose = get_composition(config.composition)
        rng = np.random.default_rng(config.seed)
        d = config.dim
        heads = config.attention_heads

        # Type-aware node encoders (Eq. 5).
        for t in self.node_types:
            self.register_module(
                f"encode_{t}", Linear(feature_dims[t], d, rng)
            )

        # Link-type embeddings (Eq. 5, see module docstring) — one row per
        # edge type plus one for the self-loop pseudo type.
        self.num_edge_kinds = len(self.edge_type_keys) + 1
        self.edge_embedding = Parameter(
            init.normal(rng, (self.num_edge_kinds, d), std=0.1)
        )
        self._edge_kind = {key: i for i, key in enumerate(self.edge_type_keys)}
        self._edge_kind[SELF_LOOP] = len(self.edge_type_keys)

        # Per-layer parameters.
        for l in range(config.num_layers):
            if config.use_attention:
                # Eq. 13: shared W_a applied to φ(h_u, h_e).
                self.register_module(f"W_a_{l}", Linear(d, d, rng, bias=False))
            else:
                # Eq. 3: shared W_a applied to concat(φ(h_u, h_e), h_v).
                self.register_module(f"W_a_{l}", Linear(2 * d, d, rng, bias=False))
            if l < config.num_layers - 1:
                # Eq. 4: link embeddings only feed conv layers 0..L-1, so
                # the last layer needs no further link transformation.
                self.register_module(f"W_b_{l}", Linear(d, d, rng, bias=False))
            # Per-layer citation regressor (Eq. 6).
            self.register_module(f"W_y_{l}", Linear(d, 1, rng))
            if config.use_attention:
                # Node-wise attention a_t per edge kind (Eq. 14) and a
                # shared link-wise attention a_b (Eq. 15); multi-head via
                # `heads` columns, heads averaged after softmax.
                setattr(self, f"a_t_{l}", Parameter(
                    init.xavier_uniform(rng, 3 * d, heads,
                                        shape=(self.num_edge_kinds, 3 * d, heads))))
                setattr(self, f"a_b_{l}", Parameter(
                    init.xavier_uniform(rng, 3 * d, heads)))

    # ------------------------------------------------------------------
    def encode(self, batch: GraphBatch) -> Dict[str, Tensor]:
        """Layer-0 type-aware encoders (Eq. 5)."""
        out = {}
        for t in self.node_types:
            encoder = getattr(self, f"encode_{t}")
            out[t] = encoder(Tensor(batch.features[t])).relu()
        return out

    def edge_kind_index(self, key) -> int:
        return self._edge_kind[key]

    def _edge_embeddings_at_layer(self, layer: int) -> Tensor:
        """h_e^(l): the link-type table pushed through l applications of W_b."""
        table = self.edge_embedding
        for l in range(layer):
            table = getattr(self, f"W_b_{l}")(table)
        return table

    # ------------------------------------------------------------------
    # Fused path (default): batch-structure cache + fused kernels.
    # ------------------------------------------------------------------
    def _aggregate_type_fused(
        self,
        layer: int,
        h_src: Tensor,
        h_dst: Tensor,
        edge_row: Tensor,
        src: np.ndarray,
        dst: np.ndarray,
        num_dst: int,
        kind: int,
        sorter: EdgeStructure,
        self_loop: bool = False,
    ) -> Tensor:
        """Fused-kernel :meth:`_aggregate_type`: same math, fewer nodes.

        Numerical identities exploited (each within fp64 rounding of the
        legacy composed path; enforced by tests/test_hgn_fused_equivalence):

        - ``edge_row`` is a ``(1, d)`` row broadcast through φ instead of
          an explicitly tiled ``(E, d)`` gather;
        - ``concat([h_v, e, h_u]) @ a_t`` splits into three partial
          matmuls, where the ``h_v`` part becomes one
          :func:`~repro.tensor.gather_matmul` (the ``(E, d)`` gather of
          ``h_v`` is never materialized) and the ``e`` part collapses to
          a broadcast ``(1, heads)`` row;
        - segment softmax and the α-weighted aggregation run as single
          fused nodes over the cached dst-sorted ordering;
        - the self loop skips its identity gathers entirely.
        """
        d = self.config.dim
        src_view = (None if self_loop
                    else sorter.src_view(h_src.data.shape[0]))
        if self.config.composition == "corr":
            # φ = circular correlation against ONE shared (1, d) link
            # embedding: collapses to a circulant matmul, with the
            # source-side gather fused into the same node (no per-edge
            # FFTs, no (E, d) gather on the tape).
            msg = (circular_correlation_row(h_src, edge_row)
                   if self_loop else
                   circular_correlation_row(h_src, edge_row, index=src,
                                            sorter=src_view))
        else:
            h_u = h_src if self_loop else gather(h_src, src,
                                                 sorter=src_view)
            msg = self.compose(h_u, edge_row)
        W_a = getattr(self, f"W_a_{layer}")

        if not self.config.use_attention:
            W = W_a.weight
            h_v_part = (h_dst @ W[d:] if self_loop
                        else gather_matmul(h_dst, dst, W[d:], sorter=sorter))
            transformed = msg @ W[:d] + h_v_part
            return segment_mean(transformed, dst, num_dst,
                                counts=sorter.counts, sorter=sorter)

        transformed = W_a(msg)  # (E, d)
        a_t = getattr(self, f"a_t_{layer}")[kind]  # (3d, heads)
        v_scores = (h_dst @ a_t[:d] if self_loop
                    else gather_matmul(h_dst, dst, a_t[:d], sorter=sorter))
        # (h_src @ a)[src] == (h_src[src]) @ a exactly: project the N
        # source nodes once, then gather (E, heads) rows — cheaper both
        # ways than a (E, d) @ (d, heads) matmul plus its scatter.
        u_proj = h_src @ a_t[2 * d:]
        u_scores = u_proj if self_loop else gather(u_proj, src,
                                                   sorter=src_view)
        scores = v_scores + edge_row @ a_t[d:2 * d] + u_scores
        scores = scores.leaky_relu(self.config.leaky_slope)
        alpha = segment_softmax_fused(scores, dst, num_dst,
                                      sorter=sorter).mean(axis=1)
        return segment_weighted_sum(transformed, alpha, dst, num_dst,
                                    sorter=sorter)

    def _layer_forward_fused(self, layer: int, h: Dict[str, Tensor],
                             batch: GraphBatch) -> Dict[str, Tensor]:
        """Fused Eq. 13: cached structure, fused kernels, hoisted scores."""
        d = self.config.dim
        edge_table = self._edge_embeddings_at_layer(layer)
        structure = batch.structure
        next_h: Dict[str, Tensor] = {}

        for dst_type in self.node_types:
            num_dst = batch.num_nodes[dst_type]
            if num_dst == 0:
                # No node to update (a cold-start title's one-paper batch
                # has no authors, venues or terms): keep the empty
                # (0, d) entry and skip the type's attention kernels.
                next_h[dst_type] = h[dst_type]
                continue
            aggregates: List[Tensor] = []
            kinds: List[int] = []

            for key in structure.active_keys[dst_type]:
                src, dst, _w, _wn = batch.edges[key]
                kind = self._edge_kind[key]
                n_vt = self._aggregate_type_fused(
                    layer, h[key[0]], h[dst_type],
                    edge_table[kind].reshape(1, d),
                    src, dst, num_dst, kind, structure.edge[key],
                )
                aggregates.append(n_vt)
                kinds.append(kind)

            # Self-loop pseudo type (cached identity structure).
            self_kind = self._edge_kind[SELF_LOOP]
            loop = structure.self_loop(num_dst)
            n_self = self._aggregate_type_fused(
                layer, h[dst_type], h[dst_type],
                edge_table[self_kind].reshape(1, d),
                loop.src, loop.dst, num_dst, self_kind, loop, self_loop=True,
            )
            aggregates.append(n_self)
            kinds.append(self_kind)

            if not self.config.use_attention:
                total = aggregates[0]
                for agg in aggregates[1:]:
                    total = total + agg
                next_h[dst_type] = (total * (1.0 / len(aggregates))).relu()
                continue

            # Link-wise attention (Eq. 15): the h_v score term is shared
            # by every neighbour type, so it is computed once; the edge
            # term is a broadcast (1, heads) row; softmax + mask + the
            # Eq. 13 outer combination run as one fused node.
            a_b = getattr(self, f"a_b_{layer}")  # (3d, heads)
            b_e = a_b[d:2 * d]
            b_n = a_b[2 * d:]
            hv_scores = h[dst_type] @ a_b[:d]  # (N, heads)
            score_cols: List[Tensor] = []
            for n_vt, kind in zip(aggregates, kinds):
                e_row = edge_table[kind].reshape(1, d)
                s = (hv_scores + e_row @ b_e + n_vt @ b_n)
                s = s.leaky_relu(self.config.leaky_slope).mean(axis=1)
                score_cols.append(s.reshape(-1, 1))
            score_mat = concatenate(score_cols, axis=1)  # (N, T)
            combined = masked_softmax_combine(
                score_mat, aggregates, structure.mask[dst_type]
            )
            next_h[dst_type] = combined.relu()
        return next_h

    # ------------------------------------------------------------------
    # Legacy composed-op path (fused=False): the reference semantics the
    # fused kernels are regression-tested against.
    # ------------------------------------------------------------------
    def _aggregate_type(
        self,
        layer: int,
        h_src: Tensor,
        h_dst: Tensor,
        edge_vec: Tensor,
        src: np.ndarray,
        dst: np.ndarray,
        num_dst: int,
        kind: int,
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """Messages of one link type into one destination type.

        Returns the aggregated neighbour embedding n_vt (Eq. 13's inner sum)
        and, under attention, the per-node type-level score input h_nvt.
        """
        d = self.config.dim
        h_u = gather(h_src, src)
        e_tiled = gather(edge_vec.reshape(1, d),
                         np.zeros(len(src), dtype=np.intp))
        msg = self.compose(h_u, e_tiled)
        W_a = getattr(self, f"W_a_{layer}")

        if not self.config.use_attention:
            h_v = gather(h_dst, dst)
            transformed = W_a(concatenate([msg, h_v], axis=1))
            # Mean aggregation keeps magnitudes degree-independent (the
            # paper's Eq. 3 sum, normalized as in Eq. 1's D^-1/2 A D^-1/2).
            return segment_mean(transformed, dst, num_dst), None

        transformed = W_a(msg)  # (E, d)
        h_v = gather(h_dst, dst)
        attn_input = concatenate([h_v, e_tiled, h_u], axis=1)  # (E, 3d)
        a_t = getattr(self, f"a_t_{layer}")[kind]  # (3d, heads)
        scores = (attn_input @ a_t).leaky_relu(self.config.leaky_slope)
        # Segment softmax per head over each destination's in-edges, then
        # average heads (multi-head attention with a shared value map).
        alpha = segment_softmax(scores, dst, num_dst).mean(axis=1)  # (E,)
        weighted = transformed * alpha.reshape(-1, 1)
        n_vt = segment_sum(weighted, dst, num_dst)
        return n_vt, None

    def _layer_forward(self, layer: int, h: Dict[str, Tensor],
                       batch: GraphBatch) -> Dict[str, Tensor]:
        """One full convolution: Eq. 13 over every destination type."""
        if self.config.fused:
            return self._layer_forward_fused(layer, h, batch)
        d = self.config.dim
        edge_table = self._edge_embeddings_at_layer(layer)
        next_h: Dict[str, Tensor] = {}

        for dst_type in self.node_types:
            num_dst = batch.num_nodes[dst_type]
            aggregates: List[Tensor] = []
            kinds: List[int] = []
            presence: List[np.ndarray] = []

            for key, (src, dst, _w, _wn) in batch.edges.items():
                if key[2] != dst_type or len(src) == 0:
                    continue
                kind = self._edge_kind[key]
                n_vt, _ = self._aggregate_type(
                    layer, h[key[0]], h[dst_type], edge_table[kind],
                    src, dst, num_dst, kind,
                )
                aggregates.append(n_vt)
                kinds.append(kind)
                present = np.zeros(num_dst, dtype=bool)
                present[dst] = True
                presence.append(present)

            # Self-loop pseudo type: φ(h_v, e_self) through the same W_a.
            self_kind = self._edge_kind[SELF_LOOP]
            self_ids = np.arange(num_dst, dtype=np.intp)
            n_self, _ = self._aggregate_type(
                layer, h[dst_type], h[dst_type], edge_table[self_kind],
                self_ids, self_ids, num_dst, self_kind,
            )
            aggregates.append(n_self)
            kinds.append(self_kind)
            presence.append(np.ones(num_dst, dtype=bool))

            if not self.config.use_attention:
                total = aggregates[0]
                for agg in aggregates[1:]:
                    total = total + agg
                next_h[dst_type] = (total * (1.0 / len(aggregates))).relu()
                continue

            # Link-wise attention across neighbour types (Eq. 15).
            a_b = getattr(self, f"a_b_{layer}")  # (3d, heads)
            h_v = h[dst_type]
            scores = []
            for n_vt, kind in zip(aggregates, kinds):
                e_vec = edge_table[kind].reshape(1, d)
                e_tiled = gather(e_vec, np.zeros(num_dst, dtype=np.intp))
                attn_input = concatenate([h_v, e_tiled, n_vt], axis=1)
                score = (attn_input @ a_b).leaky_relu(self.config.leaky_slope)
                scores.append(score.mean(axis=1))  # heads averaged -> (N,)
            score_mat = concatenate(
                [s.reshape(-1, 1) for s in scores], axis=1
            )  # (N, T)
            mask = np.stack(presence, axis=1)  # (N, T)
            score_mat = score_mat + Tensor(np.where(mask, 0.0, -1e9))
            alpha_b = softmax(score_mat, axis=1)  # (N, T)
            combined = aggregates[0] * alpha_b[:, 0].reshape(-1, 1)
            for t_idx in range(1, len(aggregates)):
                combined = combined + aggregates[t_idx] * alpha_b[:, t_idx].reshape(-1, 1)
            next_h[dst_type] = combined.relu()
        return next_h

    # ------------------------------------------------------------------
    def forward(self, batch: GraphBatch) -> HGNOutput:
        """Full forward pass: encoder + L convolutions."""
        h = self.encode(batch)
        layers = [h]
        for l in range(self.config.num_layers):
            h = self._layer_forward(l, h, batch)
            layers.append(h)
        return HGNOutput(layers=layers)

    def regress(self, layer: int, embeddings: Tensor) -> Tensor:
        """Citation prediction head of a given layer (Eq. 6), squeezed."""
        # Layer index here counts convolution outputs 1..L; head l-1 stored.
        head = getattr(self, f"W_y_{layer - 1}")
        return head(embeddings).reshape(-1)
