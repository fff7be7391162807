"""Immutable heterogeneous graph with typed CSR adjacency.

Nodes are addressed externally by (node_type, node_id) and internally by a
dense per-type index. Edges live in per (src_type, edge_type) CSR blocks
whose per-node runs are sorted by timestamp, so temporal prefix queries are
binary searches. Nodes and edges never change after construction (only a
memo of derived neighbour views fills in); densification and the nearline
refresher produce new graph objects through a copy-on-write run overlay
(see ``with_added_edges``).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1
# Node identity range for the graph and the wire: node types fit the int16
# dst_type column, and node id MASK64 is reserved (pipeline.DUMMY_ITEM_ID).
MAX_NODE_TYPE = (1 << 15) - 1
MAX_NODE_ID = MASK64 - 1


def mix64(*parts: int) -> int:
    """Deterministic 64-bit hash of integer parts (splitmix64 rounds).

    Used for partition assignment and RNG stream keys. Clients and servers
    must agree bit-exactly, so this function is the single definition.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h + (p & MASK64)) & MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & MASK64
        h ^= h >> 31
    return h


class GraphError(Exception):
    pass


class MissingNodeError(GraphError):
    pass


class SchemaError(GraphError):
    pass


class NodeRef(NamedTuple):
    """A node: external identity (node_type, node_id) plus dense index.

    The index is only meaningful relative to one graph instance; cross-graph
    comparisons (e.g. merging shard results) must use ``ext()``.
    """

    node_type: int
    node_id: int
    index: int

    def ext(self) -> tuple[int, int]:
        return (self.node_type, self.node_id)


KeyedView = tuple[tuple[list[NodeRef], np.ndarray], np.ndarray]  # (refs, weights), keys


class EdgeKind(IntEnum):
    ENGAGEMENT = 0
    AFFINITY = 1
    ATTRIBUTE = 2


_KIND_NAMES = {
    "engagement": EdgeKind.ENGAGEMENT,
    "affinity": EdgeKind.AFFINITY,
    "attribute": EdgeKind.ATTRIBUTE,
}


@dataclass
class GraphSchema:
    """Edge-type kind registry plus declared feature dims per node type."""

    edge_kinds: dict[int, EdgeKind] = field(default_factory=dict)
    feature_dims: dict[int, int] = field(default_factory=dict)

    def kind_of(self, edge_type: int) -> EdgeKind | None:
        return self.edge_kinds.get(edge_type)

    @classmethod
    def parse(cls, text: str) -> "GraphSchema":
        """Parse the key=value schema format.

        Lines: ``edge.<edge_type> = engagement|affinity|attribute`` and
        ``features.<node_type> = <dim>``. ``#`` starts a comment.
        """
        schema = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"line {lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                prefix, ident = key.split(".", 1)
                ident_i = int(ident)
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: bad key {key!r}") from exc
            if prefix == "edge":
                if value not in _KIND_NAMES:
                    raise SchemaError(f"line {lineno}: unknown edge kind {value!r}")
                schema.edge_kinds[ident_i] = _KIND_NAMES[value]
            elif prefix == "features":
                try:
                    dim = int(value)
                except ValueError:
                    dim = -1
                if dim < 0:
                    raise SchemaError(f"line {lineno}: feature dim {value!r} is not an integer >= 0")
                schema.feature_dims[ident_i] = dim
            else:
                raise SchemaError(f"line {lineno}: unknown key prefix {prefix!r}")
        return schema

    @classmethod
    def load(cls, path: str) -> "GraphSchema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())


@dataclass
class GraphBuildReport:
    node_counts: dict[int, int] = field(default_factory=dict)
    edge_counts: dict[int, int] = field(default_factory=dict)
    rejected_rows: int = 0
    rejected_reasons: dict[str, int] = field(default_factory=dict)
    duplicates_collapsed: int = 0

    def reject(self, reason: str) -> None:
        self.rejected_rows += 1
        self.rejected_reasons[reason] = self.rejected_reasons.get(reason, 0) + 1

    @property
    def total_nodes(self) -> int:
        return sum(self.node_counts.values())

    @property
    def total_edges(self) -> int:
        return sum(self.edge_counts.values())


class AdjacencySlice(NamedTuple):
    """A view over one node's adjacency run (or a temporal prefix of it)."""

    dst_type: np.ndarray
    dst_id: np.ndarray
    dst_index: np.ndarray
    weight: np.ndarray
    timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.dst_id)


class _CSRBlock:
    """CSR adjacency for one (src_type, edge_type) pair."""

    __slots__ = ("indptr", "dst_type", "dst_id", "dst_index", "weight", "timestamp")

    def __init__(self, indptr, dst_type, dst_id, dst_index, weight, timestamp):
        self.indptr = indptr
        self.dst_type = dst_type
        self.dst_id = dst_id
        self.dst_index = dst_index
        self.weight = weight
        self.timestamp = timestamp

    def run(self, index: int) -> AdjacencySlice:
        lo, hi = self.indptr[index], self.indptr[index + 1]
        return AdjacencySlice(
            self.dst_type[lo:hi],
            self.dst_id[lo:hi],
            self.dst_index[lo:hi],
            self.weight[lo:hi],
            self.timestamp[lo:hi],
        )

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])


_EMPTY_RUN = AdjacencySlice(
    np.empty(0, dtype=np.int16),
    np.empty(0, dtype=np.uint64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
)


class HeteroGraph:
    """Typed multi-relation graph, immutable after build.

    Readers may share an instance freely across threads. ``with_added_edges``
    returns a new instance that shares the base CSR arrays, the id lookup
    and the node refs, and carries the changed runs in its overlay; swapping
    to the new instance is the epoch swap.

    Readers fill a per-epoch memo of merged views and their key arrays
    (``keyed_neighbors``), which the next epoch inherits minus the nodes
    whose runs changed. Filling it from many threads is safe: a view is a
    deterministic function of the epoch, so racing readers store equal
    values, and each store is one atomic dict assignment. The graph is its
    own adjacency provider (``samplers.AdjacencyProvider``).
    """

    def __init__(
        self,
        schema: GraphSchema,
        node_ids: dict[int, np.ndarray],
        features: dict[int, np.ndarray],
        feature_mask: dict[int, np.ndarray],
        blocks: dict[tuple[int, int], _CSRBlock],
        overlay: dict[tuple[int, int, int], AdjacencySlice] | None = None,
    ):
        self.schema = schema
        self._node_ids = node_ids
        self._features = features
        self._feature_mask = feature_mask
        self._blocks = blocks
        self._overlay = overlay or {}
        # one NodeRef per node; node_ids are sorted ascending per type
        self._refs = {
            t: [NodeRef(t, nid, i) for i, nid in enumerate(ids.tolist())]
            for t, ids in node_ids.items()
        }
        self._id_lookup = {
            t: {ref.node_id: ref.index for ref in refs} for t, refs in self._refs.items()
        }
        self._edge_types = tuple(
            sorted({et for (_, et) in blocks} | {et for (_, et, _) in self._overlay})
        )
        # node key = type offset + index, which sorts like (node_type, node_id)
        sizes = [len(node_ids[t]) for t in sorted(node_ids)]
        self._key_offset = dict(zip(sorted(node_ids), np.cumsum([0] + sizes).tolist()))
        # (src_type, index) -> (merged view, its key array) of this epoch
        self._memo: dict[tuple[int, int], KeyedView] = {}

    # -- node accessors -----------------------------------------------------

    @property
    def node_types(self) -> list[int]:
        return sorted(self._node_ids)

    @property
    def edge_types(self) -> tuple[int, ...]:
        return self._edge_types

    def num_nodes(self, node_type: int | None = None) -> int:
        if node_type is None:
            return sum(len(ids) for ids in self._node_ids.values())
        return len(self._node_ids.get(node_type, ()))

    def num_edges(self) -> int:
        total = sum(b.num_edges for b in self._blocks.values())
        for (st, et, idx), run in self._overlay.items():
            block = self._blocks.get((st, et))
            base = 0 if block is None else block.indptr[idx + 1] - block.indptr[idx]
            total += len(run.dst_id) - base
        return int(total)

    def has_node(self, node_type: int, node_id: int) -> bool:
        return node_id in self._id_lookup.get(node_type, ())

    def node_ref(self, node_type: int, node_id: int) -> NodeRef:
        try:
            return self._refs[node_type][self._id_lookup[node_type][node_id]]
        except KeyError:
            raise MissingNodeError(f"no node ({node_type}, {node_id})") from None

    def node_ref_by_index(self, node_type: int, index: int) -> NodeRef:
        return self._refs[node_type][index]

    def resolve(self, node: NodeRef | tuple[int, int]) -> NodeRef:
        """Re-anchor an external (type, id) pair or foreign NodeRef here."""
        return self.node_ref(node[0], node[1])

    def node_ids(self, node_type: int) -> np.ndarray:
        return self._node_ids[node_type]

    # -- features -----------------------------------------------------------

    def feature_dim(self, node_type: int) -> int:
        if node_type in self._features:
            return self._features[node_type].shape[1]
        return self.schema.feature_dims.get(node_type, 0)

    def feature_rows(self, node_type: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows of the ``node_type`` nodes at ``index`` (zeros for a node
        without stored features) and the mask of the nodes that have them."""
        return self._features[node_type][index], self._feature_mask[node_type][index]

    def features_of(self, ref: NodeRef) -> np.ndarray | None:
        """Feature row, or None when the node has no stored features."""
        rows, stored = self.feature_rows(ref.node_type, [ref.index])
        return rows[0] if stored[0] else None

    # -- adjacency ----------------------------------------------------------

    def _run(self, src_type: int, edge_type: int, index: int) -> AdjacencySlice:
        over = self._overlay.get((src_type, edge_type, index))
        if over is not None:
            return over
        block = self._blocks.get((src_type, edge_type))
        if block is None:
            return _EMPTY_RUN
        return block.run(index)

    def adjacency(self, node: NodeRef, edge_type: int) -> AdjacencySlice:
        return self._run(node.node_type, edge_type, node.index)

    def temporal_cut(self, node: NodeRef, edge_type: int, before_ts: int | float) -> AdjacencySlice:
        """Edges with timestamp strictly below ``before_ts`` (sorted prefix)."""
        run = self._run(node.node_type, edge_type, node.index)
        if math.isinf(before_ts):
            cut = len(run.timestamp) if before_ts > 0 else 0
        else:
            cut = int(np.searchsorted(run.timestamp, before_ts, side="left"))
        return AdjacencySlice(
            run.dst_type[:cut], run.dst_id[:cut], run.dst_index[:cut],
            run.weight[:cut], run.timestamp[:cut],
        )

    def out_degree(self, node: NodeRef, edge_types: Iterable[int] | None = None) -> int:
        """Outgoing edge count over the given edge types (all if None)."""
        if not self.has_node(node.node_type, node.node_id):
            raise MissingNodeError(f"no node ({node.node_type}, {node.node_id})")
        types = self.edge_types if edge_types is None else edge_types
        return sum(len(self._run(node.node_type, et, node.index).dst_id) for et in types)

    def out_degrees(self, node_type: int, edge_types: Iterable[int] | None = None) -> np.ndarray:
        """Vector of out-degrees for every node of one type."""
        n = self.num_nodes(node_type)
        total = np.zeros(n, dtype=np.int64)
        types = self.edge_types if edge_types is None else list(edge_types)
        for et in types:
            block = self._blocks.get((node_type, et))
            if block is not None:
                total += np.diff(block.indptr)
        for (st, et, idx), run in self._overlay.items():
            if st != node_type or et not in types:
                continue
            block = self._blocks.get((st, et))
            base = 0 if block is None else int(block.indptr[idx + 1] - block.indptr[idx])
            total[idx] += len(run.dst_id) - base
        return total

    def merged_neighbors(self, node: NodeRef) -> tuple[list[NodeRef], np.ndarray]:
        """Distinct out-neighbors with aggregated weights.

        Parallel edges (across and within edge types) sum their weights,
        which are positive: ``build_graph`` and ``with_added_edges`` admit
        only finite edge weights > 0. Neighbors come back sorted by
        (node_type, node_id) so the ordering is stable across
        differently-indexed graph shards.

        The view is memoized on this epoch together with its key array
        (``keyed_neighbors``), so callers share the returned list and
        array: neither may be modified, and the weights are read-only.
        """
        hit = self._memo.get((node.node_type, node.index))
        return (hit or self.keyed_neighbors(node))[0]

    def keyed_neighbors(self, node: NodeRef) -> KeyedView:
        """The memoized ``merged_neighbors`` view and its read-only int64 key
        array: neighbour i's ``node_keys`` key, ascending like the view."""
        key = (node.node_type, node.index)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        acc: dict[tuple[int, int], float] = {}
        idx_of: dict[tuple[int, int], int] = {}
        for et in self._edge_types:
            run = self._run(node.node_type, et, node.index)
            for dt, did, didx, w in zip(
                run.dst_type.tolist(), run.dst_id.tolist(),
                run.dst_index.tolist(), run.weight.tolist(),
            ):
                nkey = (dt, did)
                acc[nkey] = acc.get(nkey, 0.0) + w
                idx_of[nkey] = didx
        keys = sorted(acc)
        refs = [self._refs[t][idx_of[(t, i)]] for t, i in keys]
        weights = np.array([acc[k] for k in keys], dtype=np.float64)
        node_keys = self.node_keys(refs)
        weights.flags.writeable = node_keys.flags.writeable = False
        entry = self._memo[key] = ((refs, weights), node_keys)
        return entry

    def node_keys(self, nodes: Iterable[NodeRef]) -> np.ndarray:
        """int64 keys of ``nodes`` of this graph: the node type's offset plus
        the index, so keys sort like (node_type, node_id)."""
        return np.array([self._key_offset[n.node_type] + n.index for n in nodes], dtype=np.int64)

    def ext_order(self, keys: np.ndarray) -> None:
        """Keys already sort like (node_type, node_id): no reordering."""

    def prefetch(self, nodes: Iterable[NodeRef]) -> None:
        """Sampler hint that these views are needed next; every view is in
        memory, so it does nothing and never walks ``nodes``."""

    # -- epoch swap ----------------------------------------------------------

    def with_updated_run(
        self,
        src: NodeRef,
        edge_type: int,
        dst: NodeRef,
        weight: float,
        timestamp: int,
    ) -> "HeteroGraph":
        """Copy-on-write insert/update of one edge; returns the next epoch.

        The one-edge case of ``with_added_edges``.
        """
        return self.with_added_edges([(src, edge_type, dst, weight, timestamp)])

    def with_added_edges(
        self, edges: Iterable[tuple[NodeRef, int, NodeRef, float, int]]
    ) -> "HeteroGraph":
        """Copy-on-write insert/update of many edges; returns the next epoch.

        Each edge is ``(src, edge_type, dst, weight, timestamp)``, with
        ``src`` and ``dst`` refs of this graph. The result equals applying
        the edges one at a time in order: a new edge goes into its run at
        the first position of its timestamp (before existing edges with the
        same timestamp), and a (dst, timestamp) already in the run, earlier
        edges of this call included, keeps the max weight (the build-time
        duplicate policy). Each changed run is copied and merged once. Base
        arrays, the id lookup and the node refs are shared; the memo is
        inherited without the views of the changed sources.

        A weight that is not finite and > 0 (``build_graph``'s
        ``nonpositive_weight`` rule) raises ``ValueError`` before anything
        is copied, so every view weight stays positive.
        """
        added: dict[tuple[int, int, int], list[tuple[NodeRef, int, NodeRef, float, int]]] = {}
        for edge in edges:
            src, w = edge[0], edge[3]
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"edge weight {w!r} must be finite and > 0")
            added.setdefault((src.node_type, edge[1], src.index), []).append(edge)
        if not added:
            return self
        # the merged runs are slices of one set of column arrays, like a CSR block
        cols: list[list] = [[], [], [], [], []]
        bounds = [0]
        for key, run_edges in added.items():
            for col, merged in zip(cols, _merged_run(self._run(*key), run_edges)):
                col.extend(merged)
            bounds.append(len(cols[0]))
        arrays = [np.array(col, dtype=a.dtype) for col, a in zip(cols, _EMPTY_RUN)]
        nxt = copy.copy(self)
        nxt._overlay = dict(self._overlay)
        nxt._memo = dict(self._memo)
        dst_type, dst_id, dst_index, weight, timestamp = arrays
        for key, lo, hi in zip(added, bounds, bounds[1:]):
            nxt._overlay[key] = AdjacencySlice(
                dst_type[lo:hi], dst_id[lo:hi], dst_index[lo:hi], weight[lo:hi], timestamp[lo:hi]
            )
            nxt._memo.pop((key[0], key[2]), None)
        edge_types = {et for _, et, _ in added}
        if not edge_types <= set(self._edge_types):
            nxt._edge_types = tuple(sorted(edge_types | set(self._edge_types)))
        return nxt

    # -- serialization -------------------------------------------------------

    def iter_edge_rows(self) -> Iterator[tuple[int, int, int, int, int, float, int]]:
        """All edges in canonical order (src_type, edge_type, src index, run order)."""
        keys = sorted(set(self._blocks) | {(st, et) for (st, et, _) in self._overlay})
        for st, et in keys:
            ids = self._node_ids.get(st)
            if ids is None:
                continue
            for idx in range(len(ids)):
                run = self._run(st, et, idx)
                sid = int(ids[idx])
                for dt, did, w, ts in zip(run.dst_type, run.dst_id, run.weight, run.timestamp):
                    yield (st, sid, et, int(dt), int(did), float(w), int(ts))

    def dump_edges(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for st, sid, et, dt, did, w, ts in self.iter_edge_rows():
                fh.write(f"{st}\t{sid}\t{et}\t{dt}\t{did}\t{w:.17g}\t{ts}\n")


def _merged_run(
    run: AdjacencySlice, edges: list[tuple[NodeRef, int, NodeRef, float, int]]
) -> list[list]:
    """The columns of ``run`` as lists, with ``edges`` inserted one at a time."""
    dst_type, dst_id, dst_index, weight, timestamp = cols = [a.tolist() for a in run]
    for _, _, dst, w, ts in edges:
        pos = j = bisect_left(timestamp, ts)
        # scan ties on timestamp for an existing (dst, ts) edge
        while j < len(timestamp) and timestamp[j] == ts:
            if dst_type[j] == dst.node_type and dst_id[j] == dst.node_id:
                weight[j] = max(weight[j], w)
                break
            j += 1
        else:
            dst_type.insert(pos, dst.node_type)
            dst_id.insert(pos, dst.node_id)
            dst_index.insert(pos, dst.index)
            weight.insert(pos, w)
            timestamp.insert(pos, ts)
    return cols


# -- construction -------------------------------------------------------------


def _parse_edge_line(line: str) -> tuple[int, int, int, int, int, float, int] | None:
    parts = line.rstrip("\n").split("\t")
    if len(parts) == 6:
        parts = parts + ["0"]  # timestamp absent -> oldest
    if len(parts) != 7:
        return None
    try:
        st, sid, et, dt, did = (int(parts[i]) for i in range(5))
        w = float(parts[5])
        ts = int(parts[6]) if parts[6] != "" else 0
    except ValueError:
        return None
    return st, sid, et, dt, did, w, ts


def _parse_node_line(line: str) -> tuple[int, int, np.ndarray] | None:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        return None
    try:
        nt, nid = int(parts[0]), int(parts[1])
        feats = np.array([float(x) for x in parts[2].split(",")], dtype=np.float64)
    except ValueError:
        return None
    return nt, nid, feats


def _identity_problem(node_type: int, node_id: int) -> str | None:
    """The rejection reason for a node outside the identity range, or None."""
    if not 0 <= node_type <= MAX_NODE_TYPE:
        return "node_type_out_of_range"
    if not 0 <= node_id <= MAX_NODE_ID:
        return "node_id_out_of_range"
    return None


def build_graph(
    edge_source: Iterable[str],
    node_source: Iterable[str],
    schema: GraphSchema,
) -> tuple[HeteroGraph, GraphBuildReport]:
    """Build a HeteroGraph from TSV row streams.

    Bad rows are rejected (counted with a reason), never fatal. Duplicate
    (src, edge_type, dst, timestamp) rows collapse keeping the max weight.
    Node indices are assigned by sorting external ids per type, so identical
    inputs rebuild identical CSR arrays.
    """
    report = GraphBuildReport()
    # (st, et) -> {(sid, dt, did, ts) -> weight}
    edges: dict[tuple[int, int], dict[tuple[int, int, int, int], float]] = {}
    node_set: dict[int, set[int]] = {}

    def touch(nt: int, nid: int) -> None:
        node_set.setdefault(nt, set()).add(nid)

    for raw in edge_source:
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parsed = _parse_edge_line(raw)
        if parsed is None:
            report.reject("malformed_edge_row")
            continue
        st, sid, et, dt, did, w, ts = parsed
        reason = _identity_problem(st, sid) or _identity_problem(dt, did)
        if reason:
            report.reject(reason)
            continue
        kind = schema.kind_of(et)
        if kind is None:
            report.reject("unknown_edge_type")
            continue
        if kind == EdgeKind.ATTRIBUTE and w != 1.0:
            report.reject("attribute_weight_not_one")
            continue
        if not math.isfinite(w) or w <= 0.0:
            report.reject("nonpositive_weight")
            continue
        bucket = edges.setdefault((st, et), {})
        key = (sid, dt, did, ts)
        if key in bucket:
            report.duplicates_collapsed += 1
            bucket[key] = max(bucket[key], w)
        else:
            bucket[key] = w
        touch(st, sid)
        touch(dt, did)

    feat_rows: dict[int, dict[int, np.ndarray]] = {}
    declared = dict(schema.feature_dims)
    for raw in node_source:
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parsed = _parse_node_line(raw)
        if parsed is None:
            report.reject("malformed_node_row")
            continue
        nt, nid, feats = parsed
        reason = _identity_problem(nt, nid)
        if reason:
            report.reject(reason)
            continue
        dim = declared.setdefault(nt, len(feats))
        if len(feats) != dim:
            report.reject("feature_dim_mismatch")
            continue
        if not np.all(np.isfinite(feats)):
            report.reject("nonfinite_feature")
            continue
        feat_rows.setdefault(nt, {})[nid] = feats
        touch(nt, nid)

    node_ids = {t: np.array(sorted(s), dtype=np.uint64) for t, s in sorted(node_set.items())}
    lookup = {t: {int(nid): i for i, nid in enumerate(ids)} for t, ids in node_ids.items()}

    features: dict[int, np.ndarray] = {}
    feature_mask: dict[int, np.ndarray] = {}
    for nt, ids in node_ids.items():
        dim = declared.get(nt, 0)
        n = len(ids)
        mat = np.zeros((n, dim), dtype=np.float64)
        mask = np.zeros(n, dtype=bool)
        rows = feat_rows.get(nt, {})
        for nid, vec in rows.items():
            i = lookup[nt][nid]
            mat[i] = vec
            mask[i] = True
        features[nt] = mat
        feature_mask[nt] = mask

    blocks: dict[tuple[int, int], _CSRBlock] = {}
    for (st, et), bucket in sorted(edges.items()):
        n_src = len(node_ids[st])
        # sort by (src index, timestamp, dst_type, dst_id) for canonical runs
        rows = sorted(
            ((lookup[st][sid], ts, dt, did, w) for (sid, dt, did, ts), w in bucket.items())
        )
        indptr = np.zeros(n_src + 1, dtype=np.int64)
        dst_type = np.empty(len(rows), dtype=np.int16)
        dst_id = np.empty(len(rows), dtype=np.uint64)
        dst_index = np.empty(len(rows), dtype=np.int64)
        weight = np.empty(len(rows), dtype=np.float64)
        timestamp = np.empty(len(rows), dtype=np.int64)
        for j, (sidx, ts, dt, did, w) in enumerate(rows):
            indptr[sidx + 1] += 1
            dst_type[j] = dt
            dst_id[j] = did
            dst_index[j] = lookup[dt][did]
            weight[j] = w
            timestamp[j] = ts
        np.cumsum(indptr, out=indptr)
        blocks[(st, et)] = _CSRBlock(indptr, dst_type, dst_id, dst_index, weight, timestamp)
        report.edge_counts[et] = report.edge_counts.get(et, 0) + len(rows)

    for nt, ids in node_ids.items():
        report.node_counts[nt] = len(ids)

    graph = HeteroGraph(schema, node_ids, features, feature_mask, blocks)
    return graph, report


def load_graph(edges_path: str, nodes_path: str | None, schema: GraphSchema):
    def lines(path):
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh

    node_iter: Iterable[str] = lines(nodes_path) if nodes_path else ()
    return build_graph(lines(edges_path), node_iter, schema)
