"""Cold-start graph densification.

Low-out-degree nodes get artificial edges to their top-k most cosine-similar
high-out-degree nodes, judged on an external embedding table. KNN here is
exact brute force; an approximate index may replace it only if it keeps
recall@k >= 0.95 against this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .graph import GraphError, HeteroGraph, NodeRef


class DensifyError(GraphError):
    pass


@dataclass(frozen=True)
class DensifyConfig:
    degree_lower_quantile: float = 0.30
    degree_upper_quantile: float = 0.90
    k: int = 50
    artificial_edge_type: int = 0
    edge_types: tuple[int, ...] | None = None  # degree counting scope

    def validate(self) -> None:
        if not (0.0 <= self.degree_lower_quantile < self.degree_upper_quantile <= 1.0):
            raise ValueError("need 0 <= lower_quantile < upper_quantile <= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")


class ExternalEmbeddingTable:
    """Fixed-dimension embedding per covered node."""

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[tuple[int, int], np.ndarray] = {}

    def put(self, node_type: int, node_id: int, vec: Sequence[float]) -> None:
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected dim {self.dim}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("embedding entries must be finite")
        self._rows[(node_type, node_id)] = arr

    def covers(self, node: NodeRef | tuple[int, int]) -> bool:
        return (node[0], node[1]) in self._rows

    def get(self, node: NodeRef | tuple[int, int]) -> np.ndarray:
        return self._rows[(node[0], node[1])]

    def __len__(self) -> int:
        return len(self._rows)

    @classmethod
    def load(cls, path: str) -> "ExternalEmbeddingTable":
        """Read node_type<TAB>node_id<TAB>e1,e2,... rows."""
        table: ExternalEmbeddingTable | None = None
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                if not raw.strip() or raw.lstrip().startswith("#"):
                    continue
                nt, nid, vals = raw.rstrip("\n").split("\t")
                vec = [float(x) for x in vals.split(",")]
                if table is None:
                    table = cls(len(vec))
                table.put(int(nt), int(nid), vec)
        if table is None:
            raise DensifyError(f"no embeddings in {path}")
        return table


def degree_threshold(graph: HeteroGraph, quantile: float,
                     edge_types: Iterable[int] | None = None) -> int:
    """Nearest-rank quantile of the out-degree distribution over all nodes."""
    if not (0.0 <= quantile <= 1.0):
        raise ValueError("quantile must be in [0, 1]")
    degrees = np.concatenate(
        [graph.out_degrees(t, edge_types) for t in graph.node_types]
        or [np.empty(0, dtype=np.int64)]
    )
    if len(degrees) == 0:
        raise DensifyError("empty graph has no degree distribution")
    degrees.sort()
    rank = max(1, math.ceil(quantile * len(degrees)))
    return int(degrees[rank - 1])


# sims entries ranked per block of queries, which bounds the block's memory
_BLOCK_ENTRIES = 1 << 21


class _CosineTopK:
    """Exact top-k cosine search over a fixed candidate list.

    A flat inner-product index (FAISS ``IndexFlatIP``): the candidate matrix
    and its row norms are stacked once and zero-norm rows dropped. Queries
    are scored in blocks by a stack of matrix-vector products, one per query
    and bit-equal to ``mat @ q``; a blocked ``Q @ H.T`` would differ in the
    last bits and could reorder near-ties. Candidates rank by (-similarity,
    node_type, index): a stable sort of -similarity over the candidates in
    (node_type, index) order.
    """

    def __init__(self, table: ExternalEmbeddingTable, candidates: Sequence[NodeRef]):
        mat = np.stack([table.get(c) for c in candidates])
        norms = np.linalg.norm(mat, axis=1)
        ok = norms > 0.0
        self._mat = mat[ok]
        self._norms = norms[ok]
        self._refs = [c for c, keep in zip(candidates, ok.tolist()) if keep]
        self._tie_order = np.lexsort((
            np.array([c.index for c in self._refs], dtype=np.int64),
            np.array([c.node_type for c in self._refs], dtype=np.int64),
        ))
        self._row = {c: r for r, c in enumerate(self._refs)}

    def top(self, queries: Sequence[np.ndarray], k: int,
            exclude: Sequence[NodeRef | None]) -> list[list[NodeRef] | None]:
        """The k best candidates per query, never its ``exclude`` node; None
        for a zero-norm query."""
        step = max(1, _BLOCK_ENTRIES // max(1, len(self._refs)))
        out: list[list[NodeRef] | None] = []
        for start in range(0, len(queries), step):
            out += self._top_block(queries[start:start + step], k,
                                   exclude[start:start + step])
        return out

    def _top_block(self, queries, k, exclude):
        q = np.stack(queries)
        qns = np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])  # == np.linalg.norm(q_i)
        live = np.flatnonzero(qns > 0.0)
        sims = (self._mat @ q[live, :, None])[:, :, 0]
        sims /= np.multiply.outer(qns[live], self._norms)
        ties = self._tie_order
        order = ties[np.argsort(-sims[:, ties], axis=1, kind="stable")][:, :k + 1]
        out: list[list[NodeRef] | None] = [None] * len(queries)
        for i, best in zip(live.tolist(), order.tolist()):
            skip = self._row.get(exclude[i])
            if skip in best:
                best.remove(skip)
            out[i] = [self._refs[r] for r in best[:k]]
        return out


def exact_knn(
    table: ExternalEmbeddingTable,
    candidates: Sequence[NodeRef],
    query_vector: np.ndarray,
    k: int,
) -> list[NodeRef]:
    """Top-k candidates by cosine similarity, ties by (node_type, index).

    Zero-norm candidates are dropped; a zero-norm query is an error. This is
    the one-query case of the search ``densify`` runs for every low node.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    query = np.asarray(query_vector, dtype=np.float64)
    top = _CosineTopK(table, candidates).top([query], k, [None])[0]
    if top is None:
        raise ValueError("query vector has zero norm")
    return top


@dataclass
class DensifyResult:
    edges: list[tuple[NodeRef, NodeRef]]  # (low, high), weight 1.0 each
    graph: HeteroGraph
    low_threshold: int
    high_threshold: int
    edge_type: int
    skipped: list[tuple[int, int, str]] = field(default_factory=list)

    def edge_rows(self) -> list[str]:
        return [
            f"{low.node_type}\t{low.node_id}\t{self.edge_type}"
            f"\t{high.node_type}\t{high.node_id}\t1.0\t0"
            for low, high in self.edges
        ]


def densify(
    graph: HeteroGraph,
    table: ExternalEmbeddingTable,
    config: DensifyConfig,
) -> DensifyResult:
    """Connect each covered low-degree node to its top-k similar high-degree
    nodes with weight-1.0 artificial edges of the configured type.

    The low set is out-degree <= lower-quantile threshold, the high set
    out-degree >= upper-quantile threshold; nodes between are untouched. A
    node in both sets (equal thresholds) is never linked to itself.
    Uncovered and zero-norm low nodes are skipped (reported); an uncovered
    or empty high set is an error. Output edges are sorted by low node, so
    the result does not depend on iteration order.

    The high-node matrix is stacked once for all low nodes, and every edge
    lands in one epoch swap (``HeteroGraph.with_added_edges``).
    """
    config.validate()
    t_low = degree_threshold(graph, config.degree_lower_quantile, config.edge_types)
    t_high = degree_threshold(graph, config.degree_upper_quantile, config.edge_types)

    low_nodes: list[NodeRef] = []
    high_nodes: list[NodeRef] = []
    skipped: list[tuple[int, int, str]] = []
    # node ids ascend with the index, so both lists are in (node_type, node_id) order
    for t in graph.node_types:
        degs = graph.out_degrees(t, config.edge_types)
        for i in np.flatnonzero(degs >= t_high).tolist():
            ref = graph.node_ref_by_index(t, i)
            if table.covers(ref):
                high_nodes.append(ref)
            else:
                skipped.append((ref.node_type, ref.node_id, "high_node_uncovered"))
        low_nodes += [graph.node_ref_by_index(t, i)
                      for i in np.flatnonzero(degs <= t_low).tolist()]

    if not high_nodes:
        raise DensifyError("no covered high-degree nodes: densification impossible")

    covered = []
    for low in low_nodes:
        if table.covers(low):
            covered.append(low)
        else:
            skipped.append((low.node_type, low.node_id, "low_node_uncovered"))
    tops = _CosineTopK(table, high_nodes).top(
        [table.get(low) for low in covered], config.k, exclude=covered
    )
    edges: list[tuple[NodeRef, NodeRef]] = []
    for low, top in zip(covered, tops):
        if top is None:
            skipped.append((low.node_type, low.node_id, "low_node_zero_norm"))
        else:
            edges.extend((low, high) for high in top)

    new_graph = graph.with_added_edges(
        [(low, config.artificial_edge_type, high, 1.0, 0) for low, high in edges]
    )
    return DensifyResult(edges, new_graph, t_low, t_high,
                         config.artificial_edge_type, skipped)
