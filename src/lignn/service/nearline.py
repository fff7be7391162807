"""Event-driven nearline embedding refresh.

Each interaction event inserts/updates an engagement edge of weight 1.0
through a copy-on-write epoch swap, re-runs inference for the two endpoints
on the top PPR scores of each one's 2-hop ball (``ppr_two_hop_random_walk``,
exact, so no seed is drawn), and writes versioned embeddings.
Replaying the same event file against the same checkpoint reproduces the
store dump byte for byte.

Only the event endpoints are refreshed (no cascade); embeddings of nodes
whose sampled neighborhood merely contains an endpoint refresh on their own
next event.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from ..graph import HeteroGraph, MissingNodeError, NodeRef
from ..model import ModelConfig, ParamStore, sage_encode
from ..samplers import WalkConfig, ppr_two_hop_random_walk

logger = logging.getLogger("lignn.nearline")

EVENT_KINDS = ("click", "apply", "like", "connect")


class InteractionEvent(NamedTuple):
    timestamp: int
    kind: str
    member: tuple[int, int]
    item: tuple[int, int]


def parse_events(lines: Iterable[str]) -> list[InteractionEvent]:
    """Events file: ts_ms, kind, member_type, member_id, item_type, item_id."""
    out = []
    for raw in lines:
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise ValueError(f"bad event row: {raw!r}")
        ts, kind = int(parts[0]), parts[1]
        out.append(
            InteractionEvent(
                ts, kind, (int(parts[2]), int(parts[3])), (int(parts[4]), int(parts[5]))
            )
        )
    return out


class StoredEmbedding(NamedTuple):
    vector: np.ndarray
    version: int
    updated_ts: int


class EmbeddingStore:
    """Versioned node embeddings with snapshot-consistent reads.

    Entries are immutable tuples swapped under a lock; a reader holding a
    returned StoredEmbedding never observes a torn vector.
    """

    def __init__(self):
        self._rows: dict[tuple[int, int], StoredEmbedding] = {}
        self._lock = threading.Lock()

    def put(self, node: tuple[int, int], vector: np.ndarray, ts: int) -> int:
        vec = np.array(vector, dtype=np.float64, copy=True)
        vec.setflags(write=False)
        with self._lock:
            prev = self._rows.get(node)
            version = 1 if prev is None else prev.version + 1
            self._rows[node] = StoredEmbedding(vec, version, ts)
        return version

    def get(self, node: tuple[int, int]) -> StoredEmbedding | None:
        with self._lock:
            return self._rows.get(node)

    def version(self, node: tuple[int, int]) -> int:
        row = self.get(node)
        return 0 if row is None else row.version

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def keys(self) -> list[tuple[int, int]]:
        with self._lock:
            return sorted(self._rows)

    def dump(self, path: str) -> None:
        """node_type, node_id, version, comma-joined vector; sorted rows."""
        with open(path, "w", encoding="utf-8") as fh:
            for key in self.keys():
                row = self.get(key)
                vec = ",".join(f"{x:.17g}" for x in row.vector)
                fh.write(f"{key[0]}\t{key[1]}\t{row.version}\t{vec}\n")


@dataclass
class RefreshReport:
    processed: int = 0
    skipped: list[tuple[InteractionEvent, str]] = field(default_factory=list)
    out_of_order: int = 0


class NearlineRefresher:
    """Applies interaction events to the graph and refreshes embeddings."""

    def __init__(
        self,
        graph: HeteroGraph,
        store: ParamStore,
        config: ModelConfig,
        embeddings: EmbeddingStore,
        engagement_edge_type: int = 0,
        walk: WalkConfig | None = None,
    ):
        config = config.with_graph(graph) if not config.feature_dims else config
        for t in graph.node_types:
            want = config.feature_dims.get(t)
            have = graph.feature_dim(t)
            if want is not None and want != have:
                raise ValueError(
                    f"checkpoint expects feature dim {want} for node type {t}, graph has {have}"
                )
        self.graph = graph
        self.params = store
        self.config = config
        self.embeddings = embeddings
        self.edge_type = engagement_edge_type
        self.walk = walk or WalkConfig(top_k=50)
        self.report = RefreshReport()
        self._last_ts: int | None = None

    def _infer(self, graph: HeteroGraph, ref: NodeRef, side: str) -> np.ndarray:
        sample = ppr_two_hop_random_walk(graph, ref, self.walk)
        return sage_encode(graph, ref, sample, self.params, self.config, side=side)

    def apply(self, event: InteractionEvent) -> None:
        if self._last_ts is not None and event.timestamp < self._last_ts:
            self.report.out_of_order += 1  # reported, still applied
        self._last_ts = event.timestamp
        try:
            member = self.graph.resolve(event.member)
            item = self.graph.resolve(event.item)
        except MissingNodeError as exc:
            self.report.skipped.append((event, str(exc)))
            return
        # the new epoch shares this one's node refs, so member and item stay valid
        self.graph = self.graph.with_updated_run(member, self.edge_type, item, 1.0, event.timestamp)
        self.embeddings.put(event.member, self._infer(self.graph, member, "src"), event.timestamp)
        self.embeddings.put(event.item, self._infer(self.graph, item, "dst"), event.timestamp)
        self.report.processed += 1

    def run(self, events: Iterable[InteractionEvent]) -> RefreshReport:
        for event in events:
            self.apply(event)
        return self.report


def nearline_refresh(
    events: Iterable[InteractionEvent],
    graph: HeteroGraph,
    store: ParamStore,
    config: ModelConfig,
    embeddings: EmbeddingStore | None = None,
    **kw,
) -> tuple[EmbeddingStore, HeteroGraph, RefreshReport]:
    """Replay events; returns (embedding store, final graph epoch, report)."""
    embeddings = embeddings if embeddings is not None else EmbeddingStore()
    refresher = NearlineRefresher(graph, store, config, embeddings, **kw)
    report = refresher.run(events)
    return embeddings, refresher.graph, report
