"""SAGE-style encoder: per-type feature projection, neighborhood aggregation,
and hop-wise combine layers.

The batched path runs on the autograd tape over level-flattened sample trees;
``sage_encode`` is the single-seed wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph import HeteroGraph, NodeRef
from ..samplers import NeighborSample
from . import autograd as ag
from .params import ModelConfig, ParamStore


def hops_from_samples(
    samples: NeighborSample | Sequence[NeighborSample], hops: int
) -> tuple[tuple[NodeRef, ...], ...]:
    """Normalize sampler output to per-hop node tuples for a ``hops``-deep encoder.

    A per-hop list (multi-hop samplers) maps hop by position. A single flat
    sample (PPR strategies) is split by hop label clamped into 1..``hops``:
    an entry deeper than the encoder reads joins the last level, where it
    attaches by adjacency or counts as an orphan, and with ``hops == 1`` the
    whole PPR-selected support is the one-hop neighbourhood.
    """
    if isinstance(samples, NeighborSample):
        by_hop: dict[int, list[NodeRef]] = {}
        for e in samples.entries:
            by_hop.setdefault(min(max(1, e.hop), hops), []).append(e.node)
        return tuple(tuple(by_hop.get(h, ())) for h in range(1, max(by_hop, default=0) + 1))
    return tuple(tuple(e.node for e in s.entries) for s in samples)


@dataclass
class EncodeBatch:
    """Level-flattened compute structure for a batch of seeds.

    Level 0 holds the B seeds; level j the sampled hop-j nodes of every seed
    (one slot per (seed, node)). ``edges[j]`` links level-j parents to their
    level-(j+1) children within the same seed's sample: ``edges[0]`` hangs
    every level-1 node under its seed, deeper links follow graph adjacency.
    """

    level_refs: list[list[NodeRef]]
    level_seed: list[np.ndarray]           # owning seed per slot
    edges: list[tuple[np.ndarray, np.ndarray]]  # (parent_slot, child_slot)
    missing_features: int = 0
    orphan_nodes: int = 0


def build_encode_batch(
    graph: HeteroGraph,
    seeds: Sequence[NodeRef],
    hop_lists: Sequence[Sequence[Sequence[NodeRef]]],
    depth: int,
) -> EncodeBatch:
    """Assemble levels and parent/child links for a batch.

    Hop-1 nodes hang under their seed: samplers draw them from the seed's
    own view, and a one-hop encoder aggregates a flattened PPR sample, which
    is chosen by score rather than adjacency. Hop-h nodes (h >= 2) attach
    to the hop-(h-1) nodes they are graph out-neighbors of; nodes with no
    sampled parent are dropped and counted.
    """
    level_refs: list[list[NodeRef]] = [list(seeds)]
    level_seed: list[list[int]] = [list(range(len(seeds)))]
    edges: list[tuple[list[int], list[int]]] = []
    orphans = 0
    for h in range(depth):
        refs_h: list[NodeRef] = []
        seed_h: list[int] = []
        parent_idx: list[int] = []
        child_idx: list[int] = []
        # slots of the previous level grouped by seed
        prev_slots: dict[int, list[int]] = {}
        for slot, s in enumerate(level_seed[h]):
            prev_slots.setdefault(s, []).append(slot)
        # each previous-level slot's view as a set of NodeRefs
        views = [set(graph.refs(graph.merged_neighbors(graph.key(ref)).keys))
                 for ref in level_refs[h]] if h else []
        for s in range(len(seeds)):
            entries = hop_lists[s][h] if h < len(hop_lists[s]) else ()
            parents = prev_slots.get(s, [])
            for ref in entries:
                links = [p for p in parents if ref in views[p]] if h else parents
                if not links:
                    orphans += 1
                    continue
                parent_idx += links
                child_idx += [len(refs_h)] * len(links)
                refs_h.append(ref)
                seed_h.append(s)
        level_refs.append(refs_h)
        level_seed.append(seed_h)
        edges.append((parent_idx, child_idx))

    return EncodeBatch(
        level_refs,
        [np.asarray(s, dtype=np.int64) for s in level_seed],
        [(np.asarray(p, dtype=np.int64), np.asarray(c, dtype=np.int64)) for p, c in edges],
        orphan_nodes=orphans,
    )


class SageEncoder:
    """Tape-based batched encoder for one tower (side) of the model."""

    def __init__(self, graph: HeteroGraph, config: ModelConfig):
        self.graph = graph
        self.config = config

    def project(
        self,
        taped: dict[str, ag.Tensor],
        side: str,
        refs: Sequence[NodeRef],
        with_ids: bool = True,
    ) -> tuple[ag.Tensor, int]:
        """Per-type feature projection, back in slot order, and the number of
        refs without features (projected from zeros). ``with_ids`` appends
        the id embedding when the config has them."""
        cfg = self.config
        by_type: dict[int, list[int]] = {}
        for i, ref in enumerate(refs):
            by_type.setdefault(ref.node_type, []).append(i)
        missing = 0
        parts = []
        for t in sorted(by_type):
            slots = by_type[t]
            index = np.array([refs[slot].index for slot in slots], dtype=np.int64)
            feats, stored = self.graph.feature_rows(t, index)
            missing += len(slots) - int(stored.sum())
            table = taped[f"{side}/id/{t}"] if with_ids and cfg.id_embeddings else None
            w, b = taped[f"{side}/proj/{t}/W"], taped[f"{side}/proj/{t}/b"]
            parts.append((slots, feats, w, b, table, index))
        return ag.project(parts, len(refs)), missing

    def _aggregate(
        self,
        taped: dict[str, ag.Tensor],
        side: str,
        layer: int,
        parents: ag.Tensor,
        children: ag.Tensor | None,
        edge: tuple[np.ndarray, np.ndarray],
    ) -> ag.Tensor:
        cfg = self.config
        n_parents = parents.shape[0]
        parent_idx, child_idx = edge
        if cfg.aggregator == "mean":
            if children is None or len(child_idx) == 0:
                return ag.constant(np.zeros((n_parents, parents.shape[1])))
            return ag.gather_mean(children, child_idx, parent_idx, n_parents)

        # attention variants: self_attention adds a parent self-edge
        if cfg.aggregator == "self_attention":
            if children is None:
                children_ext = parents
                child_idx = np.arange(n_parents, dtype=np.int64)
                parent_idx = np.arange(n_parents, dtype=np.int64)
            else:
                n_children = children.shape[0]
                children_ext = ag.concat([children, parents], axis=0)
                self_child = n_children + np.arange(n_parents, dtype=np.int64)
                parent_idx = np.concatenate([parent_idx, np.arange(n_parents, dtype=np.int64)])
                child_idx = np.concatenate([child_idx, self_child])
        else:
            children_ext = children

        if children_ext is None or len(child_idx) == 0:
            return parents  # empty neighborhood: fall back to the center

        wq = taped[f"{side}/att/{layer}/Wq"]
        wk = taped[f"{side}/att/{layer}/Wk"]
        d_att = wq.shape[1]
        q = ag.matmul(parents, wq)
        child_rows = ag.gather_rows(children_ext, child_idx)
        k = ag.matmul(child_rows, wk)
        q_per_edge = ag.gather_rows(q, parent_idx)
        scores = ag.div(
            ag.tsum(ag.mul(q_per_edge, k), axis=1), ag.constant(np.sqrt(d_att))
        )
        att = ag.segment_softmax(scores, parent_idx, n_parents)
        weighted = ag.mul(child_rows, ag.reshape(att, (-1, 1)))
        pooled = ag.segment_sum(weighted, parent_idx, n_parents)
        # parents with no edges keep their own embedding
        counts = np.bincount(parent_idx, minlength=n_parents)
        empty = (counts == 0).astype(np.float64).reshape(-1, 1)
        if empty.any():
            pooled = ag.add(
                ag.mul(pooled, ag.constant(1.0 - empty)), ag.mul(parents, ag.constant(empty))
            )
        return pooled

    def encode(
        self,
        taped: dict[str, ag.Tensor],
        side: str,
        batch: EncodeBatch,
    ) -> ag.Tensor:
        """Embeddings for the level-0 seeds, shape (B, embedding_dim)."""
        cfg = self.config
        depth = len(batch.level_refs) - 1
        emb = {}
        for j in range(depth + 1):
            if len(batch.level_refs[j]):
                emb[(j, 0)], missing = self.project(taped, side, batch.level_refs[j])
                batch.missing_features += missing
        for k in range(1, cfg.hops + 1):
            for j in range(0, min(depth, cfg.hops - k) + 1):
                if (j, k - 1) not in emb:
                    continue
                parents = emb[(j, k - 1)]
                children = emb.get((j + 1, k - 1))
                edge = batch.edges[j] if j < len(batch.edges) else (
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
                )
                agg = self._aggregate(taped, side, k, parents, children, edge)
                emb[(j, k)] = ag.concat_affine_tanh(
                    [parents, agg], taped[f"{side}/combine/{k}/W"], taped[f"{side}/combine/{k}/b"]
                )
        return emb[(0, cfg.hops)]


def sage_encode(
    graph: HeteroGraph,
    seed: NodeRef | tuple[int, int],
    samples: NeighborSample | Sequence[NeighborSample],
    store: ParamStore,
    config: ModelConfig,
    side: str = "src",
) -> np.ndarray:
    """Encode one node given its sampled neighborhood (deterministic)."""
    seed_ref = graph.resolve(seed)
    hops = hops_from_samples(samples, config.hops)
    batch = build_encode_batch(graph, [seed_ref], [hops], config.hops)
    encoder = SageEncoder(graph, config)
    taped = {name: ag.constant(arr) for name, arr in store.items()}
    out = encoder.encode(taped, config.side_for(side), batch)
    return out.data[0].copy()
