"""Tensorised heterogeneous graph containers for the GNN stack.

The paper's heterogeneous GNN is an agglomeration of three homogeneous GNNs,
one per flow relation (control / data / call), sharing the node set.
:class:`HeteroGraphData` therefore stores one node-feature matrix plus one
edge-index array per relation; :func:`batch_graphs` builds the block-diagonal
batch used during training (with a ``graph_index`` vector for pooling).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.programl import EdgeFlow, ProGraMLGraph
from repro.graphs.vocab import GraphVocabulary
from repro.nn.autograd import SegmentLayout

#: Relation names, in canonical order.
RELATIONS = (EdgeFlow.CONTROL.value, EdgeFlow.DATA.value, EdgeFlow.CALL.value)


@dataclasses.dataclass
class HeteroGraphData:
    """One kernel's graph in tensor form."""

    name: str
    node_features: np.ndarray                 # [num_nodes, feature_dim]
    node_types: np.ndarray                    # [num_nodes] int
    edge_index: Dict[str, np.ndarray]         # relation -> [2, num_edges]

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    def num_edges(self, relation: Optional[str] = None) -> int:
        if relation is not None:
            return int(self.edge_index[relation].shape[1])
        return sum(int(e.shape[1]) for e in self.edge_index.values())

    def validate(self) -> None:
        """Raise ``ValueError`` if any edge references a missing node."""
        n = self.num_nodes
        for rel, edges in self.edge_index.items():
            if edges.size and (edges.min() < 0 or edges.max() >= n):
                raise ValueError(f"relation {rel!r} has out-of-range node ids")


def to_hetero_graph(graph: ProGraMLGraph,
                    vocab: Optional[GraphVocabulary] = None) -> HeteroGraphData:
    """Convert a :class:`ProGraMLGraph` into tensor form."""
    vocab = vocab or GraphVocabulary()
    features = vocab.node_features(graph)
    node_types = np.array([int(n.node_type) for n in graph.nodes], dtype=np.int64)
    edge_index: Dict[str, np.ndarray] = {}
    for relation in RELATIONS:
        edges = [e for e in graph.edges if e.flow.value == relation]
        if edges:
            arr = np.array([[e.src for e in edges], [e.dst for e in edges]],
                           dtype=np.int64)
        else:
            arr = np.zeros((2, 0), dtype=np.int64)
        edge_index[relation] = arr
    data = HeteroGraphData(graph.name, features, node_types, edge_index)
    data.validate()
    return data


class EdgeLayout:
    """CSR-style sorted layout of one relation's edges over a node set.

    Wraps a ``[2, num_edges]`` edge-index array together with lazily computed
    :class:`~repro.nn.autograd.SegmentLayout` sort orders for the source and
    destination columns, plus the degree normalisations the convolutions
    need.  Everything here is loop invariant for a fixed graph/batch, so it
    is computed at most once and reused across every message-passing step of
    every epoch.
    """

    __slots__ = ("src", "dst", "num_nodes", "_src_layout", "_dst_layout",
                 "_inv_in_deg", "_gcn_norm", "_by_dst", "_cast")

    def __init__(self, edge_index: np.ndarray, num_nodes: int):
        edge_index = np.asarray(edge_index, dtype=np.int64)
        self.src = edge_index[0]
        self.dst = edge_index[1]
        self.num_nodes = int(num_nodes)
        self._src_layout: Optional[SegmentLayout] = None
        self._dst_layout: Optional[SegmentLayout] = None
        self._inv_in_deg: Optional[np.ndarray] = None
        self._gcn_norm: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._by_dst: Optional[Tuple[np.ndarray, np.ndarray, SegmentLayout]] = None
        self._cast: Dict[str, np.ndarray] = {}

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def src_layout(self) -> SegmentLayout:
        """Sorted-segment layout over source ids (gather backward)."""
        if self._src_layout is None:
            self._src_layout = SegmentLayout(self.src, self.num_nodes)
        return self._src_layout

    @property
    def dst_layout(self) -> SegmentLayout:
        """Sorted-segment layout over destination ids (scatter forward)."""
        if self._dst_layout is None:
            self._dst_layout = SegmentLayout(self.dst, self.num_nodes)
        return self._dst_layout

    @property
    def inv_in_deg(self) -> np.ndarray:
        """``[num_nodes, 1]`` reciprocal in-degree (>= 1), float64."""
        if self._inv_in_deg is None:
            deg = np.maximum(self.dst_layout.counts, 1.0)
            self._inv_in_deg = (1.0 / deg)[:, None]
        return self._inv_in_deg

    @property
    def by_dst(self) -> Tuple[np.ndarray, np.ndarray, SegmentLayout]:
        """Edges re-sorted by destination: ``(src, dst, src_layout)``.

        With edges pre-sorted by destination, a scatter-style mean
        aggregation can ``np.add.reduceat`` straight over the gathered
        messages — no per-operation re-sort gather.  The returned
        ``src_layout`` is the sorted-``src`` segment layout the backward
        pass scatters through.
        """
        if self._by_dst is None:
            order = self.dst_layout.order
            src = self.src[order]
            dst = self.dst[order]
            self._by_dst = (src, dst, SegmentLayout(src, self.num_nodes))
        return self._by_dst

    def inv_in_deg_as(self, dtype) -> np.ndarray:
        """:attr:`inv_in_deg` cast to ``dtype``, memoised."""
        dtype = np.dtype(dtype)
        key = f"inv_in_deg:{dtype.str}"
        cached = self._cast.get(key)
        if cached is None:
            cached = self.inv_in_deg.astype(dtype, copy=False)
            self._cast[key] = cached
        return cached

    def gcn_norm_as(self, dtype) -> Tuple[np.ndarray, np.ndarray]:
        """:attr:`gcn_norm` cast to ``dtype``, memoised."""
        dtype = np.dtype(dtype)
        key = f"gcn_norm:{dtype.str}"
        cached = self._cast.get(key)
        if cached is None:
            edge_norm, self_norm = self.gcn_norm
            cached = (edge_norm.astype(dtype, copy=False),
                      self_norm.astype(dtype, copy=False))
            self._cast[key] = cached
        return cached

    @property
    def gcn_norm(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-edge symmetric norm ``[E, 1]`` and per-node self norm ``[n, 1]``."""
        if self._gcn_norm is None:
            deg_out = np.maximum(self.src_layout.counts, 1.0).astype(np.float64)
            deg_in = np.maximum(self.dst_layout.counts, 1.0).astype(np.float64)
            edge_norm = 1.0 / np.sqrt(deg_out[self.src] * deg_in[self.dst])
            self._gcn_norm = (edge_norm[:, None], (1.0 / deg_in)[:, None])
        return self._gcn_norm


@dataclasses.dataclass
class BatchedHeteroGraph:
    """Block-diagonal batch of several :class:`HeteroGraphData`."""

    node_features: np.ndarray                 # [total_nodes, feature_dim]
    node_types: np.ndarray                    # [total_nodes]
    edge_index: Dict[str, np.ndarray]         # relation -> [2, total_edges]
    graph_index: np.ndarray                   # [total_nodes] graph id per node
    num_graphs: int
    # lazily built, memoised per batch (see relation_layouts / pool_layout)
    _cache: Dict[str, object] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    def relation_layouts(self) -> Dict[str, EdgeLayout]:
        """Per-relation :class:`EdgeLayout`, built once per batch."""
        layouts = self._cache.get("relations")
        if layouts is None:
            layouts = {rel: EdgeLayout(edges, self.num_nodes)
                       for rel, edges in self.edge_index.items()}
            self._cache["relations"] = layouts
        return layouts

    def merged_layout(self) -> EdgeLayout:
        """All relations flattened into one :class:`EdgeLayout`."""
        layout = self._cache.get("merged")
        if layout is None:
            parts = [e for e in self.edge_index.values() if e.size]
            merged = (np.concatenate(parts, axis=1) if parts
                      else np.zeros((2, 0), dtype=np.int64))
            layout = EdgeLayout(merged, self.num_nodes)
            self._cache["merged"] = layout
        return layout

    def pool_layout(self) -> SegmentLayout:
        """Sorted-segment layout of ``graph_index`` for global pooling."""
        layout = self._cache.get("pool")
        if layout is None:
            layout = SegmentLayout(self.graph_index, self.num_graphs)
            self._cache["pool"] = layout
        return layout

    def features_as(self, dtype) -> np.ndarray:
        """Node features cast to ``dtype``, memoised per batch."""
        dtype = np.dtype(dtype)
        if self.node_features.dtype == dtype:
            return self.node_features
        key = ("features", dtype.str)
        cast = self._cache.get(key)
        if cast is None:
            cast = self.node_features.astype(dtype)
            self._cache[key] = cast
        return cast


def batch_graphs(graphs: Sequence[HeteroGraphData]) -> BatchedHeteroGraph:
    """Concatenate graphs with node-id offsets (PyG-style batching)."""
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    feature_dim = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != feature_dim:
            raise ValueError("all graphs must share the feature dimension")

    features: List[np.ndarray] = []
    node_types: List[np.ndarray] = []
    graph_index: List[np.ndarray] = []
    edges: Dict[str, List[np.ndarray]] = {rel: [] for rel in RELATIONS}
    offset = 0
    for gid, g in enumerate(graphs):
        features.append(g.node_features)
        node_types.append(g.node_types)
        graph_index.append(np.full(g.num_nodes, gid, dtype=np.int64))
        for rel in RELATIONS:
            e = g.edge_index.get(rel)
            if e is not None and e.size:
                edges[rel].append(e + offset)
        offset += g.num_nodes

    edge_index = {
        rel: (np.concatenate(parts, axis=1) if parts
              else np.zeros((2, 0), dtype=np.int64))
        for rel, parts in edges.items()
    }
    return BatchedHeteroGraph(
        node_features=np.concatenate(features, axis=0),
        node_types=np.concatenate(node_types, axis=0),
        edge_index=edge_index,
        graph_index=np.concatenate(graph_index, axis=0),
        num_graphs=len(graphs),
    )


class GraphBatchCache:
    """Memoised :func:`batch_graphs` over a fixed graph list.

    Training touches the same minibatches every epoch (the partition is fixed,
    only the visit order is shuffled), so the block-diagonal batch — and the
    edge/pooling layouts hanging off it — is built exactly once per distinct
    index tuple instead of once per epoch.

    Cache-staleness audit: everything stored here (and in the per-batch
    ``_cache`` of :class:`BatchedHeteroGraph` / :class:`EdgeLayout`) is a
    pure function of the graph list and the index tuple — edge sorts,
    degree norms, dtype casts.  None of it depends on mutable global
    configuration (``runtime.configure(fast_segment_ops=...,
    default_dtype=...)``), so toggling those flags never invalidates these
    caches.  Flag-dependent
    derived state lives only in compiled tape plans, which carry a
    config-epoch guard (see :mod:`repro.nn.tape`).  :meth:`clear` exists
    for memory reclamation between unrelated fits, not for correctness.
    """

    def __init__(self, graphs: Sequence[HeteroGraphData]):
        self.graphs = list(graphs)
        self._cache: Dict[Tuple[int, ...], BatchedHeteroGraph] = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop all memoised batches (and reset the hit/miss counters)."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0

    def get(self, indices: Sequence[int]) -> BatchedHeteroGraph:
        key = tuple(int(i) for i in indices)
        batch = self._cache.get(key)
        if batch is None:
            self.misses += 1
            batch = batch_graphs([self.graphs[i] for i in key])
            self._cache[key] = batch
        else:
            self.hits += 1
        return batch

    def __len__(self) -> int:
        return len(self._cache)
