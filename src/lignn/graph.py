"""Immutable heterogeneous graph with typed CSR adjacency.

Nodes are addressed externally by (node_type, node_id) and internally by a
dense per-type index. Edges live in per (src_type, edge_type) CSR blocks
whose per-node runs are sorted by timestamp, so temporal prefix queries are
binary searches. One merged CSR over all edge types holds each node's
distinct out-neighbours, so a node's view (``merged_neighbors``) is two
slices. Nothing changes after construction; densification and the nearline
refresher produce new graph objects through a copy-on-write run overlay
(see ``with_added_edges``).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1
# Node identity range for the graph and the wire: node types fit the int16
# dst_type column, and node id MASK64 is reserved (pipeline.DUMMY_ITEM_ID).
MAX_NODE_TYPE = (1 << 15) - 1
MAX_NODE_ID = MASK64 - 1
MAX_EDGE_TYPE = (1 << 16) - 1  # edge types travel as the wire's u16


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


def mix64_array(*parts: np.ndarray) -> np.ndarray:
    """``mix64`` of each row of int64 or uint64 columns, as uint64: uint64
    arithmetic wraps, and int64 viewed as uint64 equals ``p & MASK64``."""
    h = np.full(len(parts[0]), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for p in parts:
        h += p.view(np.uint64)
        h ^= h >> 30
        h *= 0xBF58476D1CE4E5B9
        h ^= h >> 27
        h *= 0x94D049BB133111EB
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


class NeighborView(NamedTuple):
    """A node's distinct out-neighbours in (node_type, node_id) order: their
    int64 node keys and summed edge weights."""

    keys: np.ndarray
    weights: np.ndarray


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
                if not 0 <= ident_i <= MAX_EDGE_TYPE:
                    raise SchemaError(f"line {lineno}: edge type {ident_i} is not a u16")
                if value not in _KIND_NAMES:
                    raise SchemaError(f"line {lineno}: unknown edge kind {value!r}")
                schema.edge_kinds[ident_i] = _KIND_NAMES[value]
            elif prefix == "features":
                if not 0 <= ident_i <= MAX_NODE_TYPE:
                    raise SchemaError(f"line {lineno}: node type {ident_i} is out of range")
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
    rows_read: int = field(default=0, compare=False)  # blank and comment rows too

    def reject(self, reason: str, rows: int = 1) -> None:
        if rows:
            self.rejected_rows += rows
            self.rejected_reasons[reason] = self.rejected_reasons.get(reason, 0) + rows

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

    Nothing fills in after construction, so readers may share an instance
    freely across threads. ``with_added_edges`` returns a new instance that
    shares the base and merged CSR arrays and the node refs, and carries the
    changed runs and their sources' views; swapping to it is the epoch swap.
    The graph is its own adjacency provider (``samplers.AdjacencyProvider``),
    whose node keys are a type's offset plus the node's index: they sort like
    (node_type, node_id), because ids are sorted per type.
    """

    def __init__(
        self,
        schema: GraphSchema,
        node_ids: dict[int, np.ndarray],
        features: dict[int, np.ndarray],
        feature_mask: dict[int, np.ndarray],
        blocks: dict[tuple[int, int], _CSRBlock],
    ):
        self.schema = schema
        self._node_ids = node_ids
        self._features = features
        self._feature_mask = feature_mask
        self._blocks = blocks
        self._overlay: dict[tuple[int, int, int], AdjacencySlice] = {}
        # merged views of the sources whose runs the overlay changed, by node key
        self._rows: dict[int, NeighborView] = {}
        self._edge_types = tuple(sorted({et for (_, et) in blocks}))
        # node key = type offset + index; node_ids are sorted ascending per type
        types = sorted(node_ids)
        counts = [len(node_ids[t]) for t in types]
        offsets = np.cumsum([0] + counts)
        self._types, self._offsets = np.array(types, dtype=np.int64), offsets[:-1]
        self._key_offset = dict(zip(types, offsets.tolist()))
        # each key's wire type and id (``key_exts``)
        self._key_types = np.repeat(self._types.astype(np.uint16), counts)
        self._key_ids = np.concatenate([np.empty(0, np.uint64)] + [node_ids[t] for t in types])
        # the sorted ids as lists: bisect on a list beats a scalar np.searchsorted 5x
        self._id_lists = {t: node_ids[t].tolist() for t in types}
        # one NodeRef per node, by node key; tuple.__new__ skips NodeRef's
        # Python-level __new__
        refs = self._refs = np.fromiter(chain.from_iterable(
            map(tuple.__new__, repeat(NodeRef), zip(repeat(t), self._id_lists[t], count()))
            for t in types), dtype=object, count=int(offsets[-1]))
        refs.flags.writeable = False
        # every node's view, from the CSR blocks in (src type, edge type) order
        self._views = self._merge([
            (np.repeat(self._key_offset[st] + np.arange(len(b.indptr) - 1), np.diff(b.indptr)), b)
            for (st, _), b in sorted(blocks.items())
        ], len(refs))

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
        try:
            return bool(self.node_ref(node_type, node_id))
        except MissingNodeError:
            return False

    def node_ref(self, node_type: int, node_id: int) -> NodeRef:
        return self._refs[self.key((node_type, node_id))]

    def node_ref_by_index(self, node_type: int, index: int) -> NodeRef:
        return self._refs[self._key_offset[node_type] + range(self.num_nodes(node_type))[index]]

    def resolve(self, node: NodeRef | tuple[int, int]) -> NodeRef:
        """Re-anchor an external (type, id) pair or foreign NodeRef here."""
        return self._refs[self.key(node)]

    def key(self, node: NodeRef | tuple[int, int]) -> int:
        """The node key of an external (type, id) pair or foreign NodeRef."""
        ids = self._id_lists.get(node[0], ())
        index = bisect_left(ids, node[1])
        if index < len(ids) and ids[index] == node[1]:
            return self._key_offset[node[0]] + index
        raise MissingNodeError(f"no node ({node[0]}, {node[1]})")

    def refs(self, keys: list[int]) -> list[NodeRef]:
        """The NodeRefs of node keys; the graph holds one per node."""
        return self._refs[keys].tolist()

    def key_exts(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (node_type, node_id) of each of ``keys``, as uint16 and
        uint64 columns."""
        return self._key_types[keys], self._key_ids[keys]

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

    def merged_neighbors(self, key: int) -> NeighborView:
        """Distinct out-neighbors of node ``key`` with aggregated weights.

        Parallel edges (across and within edge types) sum their weights,
        which are positive: ``build_graph`` and ``with_added_edges`` admit
        only finite edge weights > 0. Neighbors come back sorted by
        (node_type, node_id) so the ordering is stable across
        differently-indexed graph shards.

        The view holds read-only slices of the merged CSR, made for every
        node at build, or of the merged rows of the epoch swap that last
        changed the node's runs.
        """
        return self._rows.get(key) or self._views[key]

    def _merge(self, parts: list, rows: int) -> list[NeighborView]:
        """The views of rows ``range(rows)`` from ``parts``, pairs of a row
        array and a run or CSR block, each row's edges in edge-type order.
        The stable sort keeps each (row, dst) pair's edges in that order and
        ``bincount`` sums in it, like a dict merge of the runs. The views are
        slices of one set of arrays."""
        parts = parts or [(np.empty(0, dtype=np.int64), _EMPTY_RUN)]
        src = np.concatenate([row for row, _ in parts])
        dst = np.concatenate([self._offsets[np.searchsorted(self._types, c.dst_type)] + c.dst_index
                              for _, c in parts])
        pair = src * len(self._refs) + dst
        order = np.argsort(pair, kind="stable")
        pair, src, dst = pair[order], src[order], dst[order]
        first = np.ones(len(pair), dtype=bool)  # first edge of each pair
        first[1:] = pair[1:] != pair[:-1]
        weight = np.concatenate([c.weight for _, c in parts])[order]
        # an empty bincount is int64, hence the cast
        weights = np.bincount(np.cumsum(first) - 1, weight).astype(float, copy=False)
        keys = dst[first]
        weights.flags.writeable = keys.flags.writeable = False
        indptr = np.searchsorted(src[first], np.arange(rows + 1)).tolist()
        return [tuple.__new__(NeighborView, (keys[lo:hi], weights[lo:hi]))
                for lo, hi in zip(indptr, indptr[1:])]

    def ext_order(self, keys: np.ndarray) -> None:
        """Keys already sort like (node_type, node_id): no reordering."""

    def prefetch(self, keys: Iterable[int]) -> None:
        """Sampler hint that these views are needed next; every view is in
        memory, so it does nothing and never walks ``keys``."""

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
        arrays, the merged CSR and the node refs are shared; each changed
        source's view is merged again from its runs, in the map beside the
        overlay.

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
        for key, lo, hi in zip(added, bounds, bounds[1:]):
            nxt._overlay[key] = AdjacencySlice(*(a[lo:hi] for a in arrays))
        edge_types = {et for _, et, _ in added}
        if not edge_types <= set(self._edge_types):
            nxt._edge_types = tuple(sorted(edge_types | set(self._edge_types)))
        sources = list(dict.fromkeys((st, idx) for st, _, idx in added))
        views = nxt._merge([
            (np.full(len(run), row), run) for row, (st, idx) in enumerate(sources)
            for run in (nxt._run(st, et, idx) for et in nxt._edge_types)
        ], len(sources))
        nxt._rows = dict(self._rows)
        for (st, idx), view in zip(sources, views):
            nxt._rows[self._key_offset[st] + idx] = view
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

_CHUNK_ROWS = 1024  # rows parsed together: bounds the token lists alive at once


def _chunks(rows: Iterable[str]) -> Iterator[list[str]]:
    it = iter(rows)
    while chunk := list(islice(it, _CHUNK_ROWS)):
        yield chunk


def _parsed(fn, tokens: list[str], bad: set[int]) -> list:
    """``fn`` of each token; where ``fn`` raises ValueError the value is 0 and
    the position joins ``bad``."""
    out: list = []
    it = iter(tokens)
    while True:
        try:
            out.extend(map(fn, it))  # keeps the values before a failing token
            return out
        except ValueError:
            bad.add(len(out))
            out.append(0)


def _columns(chunk: list[str], fns: list, bad: set[int]) -> tuple[list[list], list[str], list[str]]:
    """Column k of the rows of ``chunk`` with ``len(fns)`` tab-separated
    tokens (one short gets an empty last one) through ``fns[k]``, with bad
    tokens' rows in ``bad``; those rows; and the rows of other lengths."""
    tabs = list(map(str.count, chunk, repeat("\t")))
    width = len(fns)
    rows = [raw if n == width - 1 else raw.rstrip("\n") + "\t"
            for raw, n in zip(chunk, tabs) if width - 2 <= n < width]
    tokens = "\t".join(rows).split("\t") if rows else []
    odd = [raw for raw, n in zip(chunk, tabs) if not width - 2 <= n < width]
    return [_parsed(fn, tokens[k::width], bad) for k, fn in enumerate(fns)], rows, odd


def _unparsed(report: GraphBuildReport, reason: str, rows: list[str], odd: list[str],
              bad: set[int]) -> np.ndarray:
    """Rejects ``odd`` and the ``bad`` rows as ``reason``, except blank and ``#``
    comment rows; returns the mask of the other ``rows``."""
    report.reject(reason, sum(bool(raw.strip()) and not raw.lstrip().startswith("#")
                              for raw in odd + [rows[i] for i in bad]))
    alive = np.ones(len(rows), dtype=bool)
    alive[list(bad)] = False
    return alive


def _fitted(values: list[int], dtype, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as a ``dtype`` array and the mask of values outside
    [lo, hi], which may lie outside the dtype (they read ``lo``)."""
    try:
        array = np.array(values, dtype=dtype)
        return array, (array < lo) | (array > hi)
    except OverflowError:
        out = np.array([not lo <= v <= hi for v in values], dtype=bool)
        return np.array([lo if o else v for v, o in zip(values, out)], dtype=dtype), out


def _accepted(report: GraphBuildReport, alive: np.ndarray, rules) -> np.ndarray:
    """Rejects each live row for the first (reason, broken mask) of ``rules``
    it breaks; returns the mask of live rows that break none."""
    for reason, broken in rules:
        report.reject(reason, int(np.count_nonzero(alive & broken)))
        alive = alive & ~broken
    return alive


def _edge_chunk(chunk: list[str], code_of: dict[int, int], is_attr: np.ndarray,
                report: GraphBuildReport) -> list[np.ndarray]:
    """Columns (src type, src id, edge type code, dst type, dst id, weight,
    timestamp) of the accepted edge rows of one chunk."""
    report.rows_read += len(chunk)
    bad: set[int] = set()
    cols, rows, odd = _columns(chunk, [int, int, int, int, int, float, str], bad)
    # int in C for every timestamp; an empty one (the int failures whose token
    # is empty but for the newline) reads 0
    failed: set[int] = set()
    stamps, cols[6] = cols[6], _parsed(int, cols[6], failed)
    bad.update(i for i in failed if stamps[i].rstrip("\n"))
    alive = _unparsed(report, "malformed_edge_row", rows, odd, bad)
    st, st_out = _fitted(cols[0], np.int64, 0, MAX_NODE_TYPE)
    sid, sid_out = _fitted(cols[1], np.uint64, 0, MAX_NODE_ID)
    code = np.fromiter(map(code_of.get, cols[2], repeat(-1)), np.int64, len(rows))
    dt, dt_out = _fitted(cols[3], np.int64, 0, MAX_NODE_TYPE)
    did, did_out = _fitted(cols[4], np.uint64, 0, MAX_NODE_ID)
    w = np.array(cols[5], dtype=np.float64)
    ts, ts_out = _fitted(cols[6], np.int64, -(1 << 63), (1 << 63) - 1)
    keep = _accepted(report, alive, [
        ("node_type_out_of_range", st_out), ("node_id_out_of_range", sid_out),
        ("node_type_out_of_range", dt_out), ("node_id_out_of_range", did_out),
        ("unknown_edge_type", code < 0),
        ("attribute_weight_not_one", is_attr[code] & (w != 1.0)),
        ("nonpositive_weight", ~np.isfinite(w) | (w <= 0.0)),
        ("timestamp_out_of_range", ts_out),
    ])
    return [a[keep] for a in (st, sid, code, dt, did, w, ts)]


def _node_chunk(chunk: list[str], declared: dict[int, int],
                report: GraphBuildReport) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(node type, ids, feature rows) of the accepted node rows of one chunk,
    per type. ``declared`` gains the dim of a new type from its first row that
    passes the identity rules."""
    report.rows_read += len(chunk)
    bad: set[int] = set()
    (nt, nid, texts), rows, odd = _columns(chunk, [int, int, str], bad)
    counts = np.array([text.count(",") + 1 for text in texts], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    bad_values: set[int] = set()
    values = np.array(_parsed(float, ",".join(texts).split(",") if texts else [], bad_values),
                      dtype=np.float64)
    bad.update(np.searchsorted(starts, sorted(bad_values), side="right") - 1)
    alive = _unparsed(report, "malformed_node_row", rows, odd, bad)
    nt, nt_out = _fitted(nt, np.int64, 0, MAX_NODE_TYPE)
    nid, nid_out = _fitted(nid, np.uint64, 0, MAX_NODE_ID)
    alive = _accepted(report, alive, [("node_type_out_of_range", nt_out),
                                      ("node_id_out_of_range", nid_out)])
    for t, first in zip(*np.unique(nt[alive], return_index=True)):
        declared.setdefault(int(t), int(counts[alive][first]))
    dims = np.fromiter(map(declared.get, nt.tolist(), repeat(-1)), np.int64, len(rows))
    finite = np.logical_and.reduceat(np.isfinite(values), starts) if len(values) else alive
    keep = _accepted(report, alive, [("feature_dim_mismatch", counts != dims),
                                     ("nonfinite_feature", ~finite)])
    return [(t, nid[m], values[starts[m][:, None] + np.arange(declared[t])])
            for t in np.flatnonzero(np.bincount(nt[keep])).tolist() for m in [keep & (nt == t)]]


def build_graph(
    edge_source: Iterable[str],
    node_source: Iterable[str],
    schema: GraphSchema,
) -> tuple[HeteroGraph, GraphBuildReport]:
    """Build a HeteroGraph from TSV row streams.

    Rows are parsed ``_CHUNK_ROWS`` at a time, column by column. Only a row
    with another column count or a token ``int``/``float`` rejects is read
    alone: it is skipped if blank or a ``#`` comment, else malformed. A
    6-column edge row and an empty timestamp read timestamp 0. Bad rows are
    rejected (counted with a reason), never fatal; edge rules run in order:
    source then destination identity (type before id), unknown edge type,
    attribute weight != 1, weight not finite and > 0, and a timestamp
    outside int64 (``timestamp_out_of_range``). Duplicate (src, edge_type,
    dst, timestamp) rows collapse keeping the max weight. A node row of an
    undeclared type sets its feature dim if first to pass the identity
    rules; a later row of a node replaces an earlier one. Node indices sort
    external ids per type, so identical inputs rebuild identical CSR arrays.
    """
    report = GraphBuildReport()
    types = sorted(schema.edge_kinds)
    code_of = {et: code for code, et in enumerate(types)}  # codes sort like types
    # code -1 (unknown edge type) reads the trailing False
    is_attr = np.array([schema.edge_kinds[et] == EdgeKind.ATTRIBUTE for et in types] + [False])
    # the empty first chunk gives every column its dtype
    chunks = [_edge_chunk(c, code_of, is_attr, report) for c in chain([[]], _chunks(edge_source))]
    st, sid, code, dt, did, w, ts = (np.concatenate(col) for col in zip(*chunks))
    del chunks
    declared = dict(schema.feature_dims)
    node_parts = [part for c in _chunks(node_source) for part in _node_chunk(c, declared, report)]

    # per node type: ids, the index of each edge end and the feature rows;
    # src_key and dst_key sort like (src type, edge type, src id) and
    # (dst type, dst id), as ids sort like indices
    node_ids, features, feature_mask = {}, {}, {}
    src_index, dst_index, src_key, dst_key = (np.empty(len(w), dtype=np.int64) for _ in range(4))
    offset = 0
    node_types = np.array([t for t, _, _ in node_parts], dtype=np.int64)
    for nt in np.flatnonzero(np.bincount(np.concatenate([st, dt, node_types]))).tolist():
        at_src, at_dst = st == nt, dt == nt
        parts = [(ids, rows) for t, ids, rows in node_parts if t == nt]
        ids, index = np.unique(np.concatenate([sid[at_src], did[at_dst]] + [p[0] for p in parts]),
                               return_inverse=True)
        n_src, n_dst, n = int(np.count_nonzero(at_src)), int(np.count_nonzero(at_dst)), len(ids)
        src_index[at_src], dst_index[at_dst] = index[:n_src], index[n_src:n_src + n_dst]
        src_key[at_src] = offset * len(types) + code[at_src] * n + src_index[at_src]
        dst_key[at_dst] = offset + dst_index[at_dst]
        offset += n
        features[nt] = np.zeros((n, declared.get(nt, 0)), dtype=np.float64)
        feature_mask[nt] = np.zeros(n, dtype=bool)
        if parts:
            # the last row of a node wins: the first in reversed order
            at, last = np.unique(index[n_src + n_dst:][::-1], return_index=True)
            features[nt][at] = np.concatenate([p[1] for p in parts])[::-1][last]
            feature_mask[nt][at] = True
        node_ids[nt] = ids
        report.node_counts[nt] = n

    # canonical run order (src type, edge type, src index, timestamp, dst
    # type, dst id); rows with equal keys are duplicates
    order = np.lexsort((dst_key, ts, src_key))
    first = np.ones(len(w), dtype=bool)  # first row of each duplicate group
    first[1:] = np.any([a[1:] != a[:-1] for a in (src_key[order], ts[order], dst_key[order])], axis=0)
    starts = np.flatnonzero(first)
    report.duplicates_collapsed = len(w) - len(starts)
    w = np.maximum.reduceat(w[order], starts) if len(w) else w
    keep = order[starts]
    st, code, dt, did, ts = st[keep], code[keep], dt[keep], did[keep], ts[keep]
    src_index, dst_index = src_index[keep], dst_index[keep]

    blocks: dict[tuple[int, int], _CSRBlock] = {}
    head = np.ones(len(w), dtype=bool)  # first edge of each (src type, edge type) block
    head[1:] = (st[1:] != st[:-1]) | (code[1:] != code[:-1])
    lo = np.flatnonzero(head)
    for a, b in zip(lo.tolist(), np.append(lo[1:], len(w)).tolist()):
        s, et = int(st[a]), types[code[a]]
        indptr = np.zeros(len(node_ids[s]) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src_index[a:b], minlength=len(node_ids[s])), out=indptr[1:])
        blocks[(s, et)] = _CSRBlock(
            indptr, dt[a:b].astype(np.int16), did[a:b], dst_index[a:b], w[a:b], ts[a:b]
        )
        report.edge_counts[et] = report.edge_counts.get(et, 0) + b - a

    return HeteroGraph(schema, node_ids, features, feature_mask, blocks), report


def load_graph(edges_path: str, nodes_path: str | None, schema: GraphSchema):
    def lines(path):
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh

    node_iter: Iterable[str] = lines(nodes_path) if nodes_path else ()
    return build_graph(lines(edges_path), node_iter, schema)
