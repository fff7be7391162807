"""Neighbor sampling strategies over a HeteroGraph.

The fan-out draws are a pure function of (graph, arguments, rng_seed): RNG
streams are counter-based (Philox) keyed by ``mix64(rng_seed, node_type,
node_id, hop)``, never by position in a batch, so batched, threaded, and
partitioned executions all draw the same samples. The PPR samplers draw
nothing: their samples are functions of the graph and their arguments.

All strategies read one view per node from an adjacency provider
(``AdjacencyProvider``): the in-memory ``HeteroGraph`` itself, or the
fan-out client's network-backed ``service.client.RemoteAdjacency``. Inside a
sampler a node is its provider's int64 key (``key(node)``); NodeRefs are made
only for what a sample returns (``refs(keys)``). A view
(``merged_neighbors(key)``, a ``graph.NeighborView``) holds a node's distinct
out-neighbours' keys in (node_type, node_id) order and their summed positive
weights. Keys sort like (node_type, node_id) on the graph but not on the
remote provider, so every order a sample shows goes through ``ext_order``.
``prefetch(keys)`` hints that views are needed next (the remote provider
fetches them in bulk; the graph ignores it, so callers pass a lazy iterable
the local path never walks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .graph import HeteroGraph, MissingNodeError, NeighborView, NodeRef, mix64

# The least restart probability: it bounds the work one seed can buy, at most
# 1,375 rounds of 2-hop PPR (``PPR_TOLERANCE``) and push mass decaying by 1%
# per step.
MIN_ALPHA = 0.01


@dataclass(frozen=True)
class PPRConfig:
    """Forward-push parameters.

    ``r_max`` bounds residual-per-weighted-degree at termination: pushing
    stops once r(v) <= r_max * wdeg(v) for all v, where wdeg is the sum of
    out-edge weights. ``max_pushes`` is a push budget: a round that would
    pass it pushes only its first due nodes in node order, and the sample is
    marked truncated.
    """

    alpha: float = 0.15
    r_max: float = 1e-4
    top_k: int = 200
    max_pushes: int = 50_000_000
    include_seed: bool = False

    def validate(self) -> None:
        if not (MIN_ALPHA <= self.alpha < 1.0):
            raise ValueError(f"alpha must be in [{MIN_ALPHA}, 1)")
        if self.r_max <= 0.0:
            raise ValueError("r_max must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class WalkConfig:
    """2-hop PPR parameters (``ppr_two_hop_random_walk``)."""

    alpha: float = 0.15
    top_k: int = 200
    include_seed: bool = False
    # Ignored: perfbench/nearline.py:67 still passes these; they go when the
    # benchmark stops passing them (ROADMAP item 1).
    num_walks: int = 0
    rng_seed: int = 0

    def validate(self) -> None:
        if not (MIN_ALPHA <= self.alpha < 1.0):
            raise ValueError(f"alpha must be in [{MIN_ALPHA}, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


class SampleEntry(NamedTuple):
    node: NodeRef
    score: float
    hop: int


@dataclass(frozen=True)
class NeighborSample:
    """Result of one sampling strategy for one seed."""

    seed: NodeRef | tuple[int, int]
    entries: tuple[SampleEntry, ...]
    strategy: str
    truncated: bool = False
    error: str | None = None


# -- adjacency providers -------------------------------------------------------


class AdjacencyProvider(Protocol):
    """What the samplers read, through these five methods only: ``HeteroGraph``
    or ``RemoteAdjacency``. A node is an int64 key, and distinct nodes have
    distinct keys. Views are shared and never modified. ``ext_order`` sorts
    distinct ascending keys by (node_type, node_id), or returns None where
    they already are so (the graph)."""

    def key(self, node: NodeRef | tuple[int, int]) -> int: ...

    def refs(self, keys: list[int]) -> list[NodeRef]: ...

    def merged_neighbors(self, key: int) -> NeighborView: ...

    def ext_order(self, keys: np.ndarray) -> np.ndarray | None: ...

    def prefetch(self, keys: Iterable[int]) -> None: ...


def _rng_for(rng_seed: int, node: NodeRef, hop: int | None = None) -> np.random.Generator:
    parts = (rng_seed, node.node_type, node.node_id)
    if hop is not None:
        parts = parts + (hop,)
    return np.random.Generator(np.random.Philox(key=mix64(*parts)))


# -- multi-hop fan-out sampling ------------------------------------------------

def _frontier_union(provider: AdjacencyProvider, frontier: list[int]) -> NeighborView:
    """Union of the frontier's views in (node_type, node_id) order, with
    summed weights, bit-equal to a dict merge because ``bincount`` adds in
    frontier order (and counts an empty union in int64, hence the cast). A
    one-node frontier's is its view."""
    if len(frontier) <= 1:
        return provider.merged_neighbors(frontier[0]) if frontier else _EMPTY_VIEW
    provider.prefetch(frontier)
    views = [provider.merged_neighbors(key) for key in frontier]
    keys, inv = np.unique(np.concatenate([view.keys for view in views]), return_inverse=True)
    weights = np.bincount(inv, np.concatenate([view.weights for view in views]))
    weights = weights.astype(float, copy=False)
    order = provider.ext_order(keys)
    if order is not None:
        keys, weights = keys[order], weights[order]
    return NeighborView(keys, weights)


_EMPTY_VIEW = NeighborView(np.empty(0, dtype=np.int64), np.empty(0))


def _weighted_draw_without_replacement(
    gen: np.random.Generator, weights: np.ndarray, k: int
) -> list[int]:
    """k successive proportional draws without replacement; the weights are
    positive and k is below their count."""
    remaining = weights.astype(np.float64).copy()
    picked: list[int] = []
    for _ in range(k):
        target = gen.random() * remaining.sum()
        cum = np.cumsum(remaining)
        idx = int(np.searchsorted(cum, target, side="right"))
        idx = min(idx, len(remaining) - 1)
        picked.append(idx)
        remaining[idx] = 0.0
    return picked


def multihop_sample_core(
    provider: AdjacencyProvider,
    seeds: Sequence[NodeRef | tuple[int, int]],
    fanouts: Sequence[int],
    rng_seed: int,
    strategy: str,
) -> list[list[NeighborSample]]:
    if not fanouts:
        raise ValueError("fanouts must be non-empty")
    out: list[list[NeighborSample]] = []
    for seed in seeds:
        try:
            seed_key = provider.key(seed)
        except MissingNodeError as exc:
            out.append([NeighborSample((seed[0], seed[1]), (), strategy, error=str(exc))])
            continue
        [seed_ref] = provider.refs([seed_key])
        hops: list[NeighborSample] = []
        frontier = [seed_key]
        for h, fanout in enumerate(fanouts):
            keys, weights = _frontier_union(provider, frontier)
            gen = _rng_for(rng_seed, seed_ref, h)
            if fanout <= 0:
                chosen: list[int] = []
            elif fanout >= len(weights):
                chosen = list(range(len(weights)))
            elif strategy == "random":
                chosen = sorted(gen.choice(len(weights), size=fanout, replace=False).tolist())
            else:
                chosen = sorted(_weighted_draw_without_replacement(gen, weights, fanout))
            frontier = keys[chosen].tolist()
            entries = tuple(map(SampleEntry, provider.refs(frontier), weights[chosen].tolist(),
                                repeat(h + 1)))
            hops.append(NeighborSample(seed_ref, entries, strategy))
        out.append(hops)
    return out


def sample_random_multihop(
    graph: HeteroGraph,
    seeds: Sequence[NodeRef | tuple[int, int]],
    fanouts: Sequence[int],
    rng_seed: int,
) -> list[list[NeighborSample]]:
    """Uniform without-replacement fan-out per hop over frontier unions.

    Hop h draws from the union of hop h-1 nodes' distinct neighbors; an
    undersized frontier is returned whole. Per-seed errors do not abort the
    batch.
    """
    return multihop_sample_core(graph, seeds, fanouts, rng_seed, "random")


def sample_weighted_multihop(
    graph: HeteroGraph,
    seeds: Sequence[NodeRef | tuple[int, int]],
    fanouts: Sequence[int],
    rng_seed: int,
) -> list[list[NeighborSample]]:
    """Fan-out like ``sample_random_multihop``, but each draw picks a
    candidate with probability proportional to its summed edge weight."""
    return multihop_sample_core(graph, seeds, fanouts, rng_seed, "weighted")


# -- forward push ---------------------------------------------------------------


class _PushState:
    """Per-seed forward-push state: estimates ``p`` and residuals ``r`` keyed
    by the provider's node keys, and ``touched``, the nodes whose residual
    changed since the last round. A round pushes in (node_type, node_id)
    order (``ext_order``), never in key order."""

    __slots__ = ("seed_key", "p", "r", "touched", "pushes", "truncated")

    def __init__(self, seed_key: int):
        self.seed_key = seed_key
        self.p: dict[int, float] = {}
        self.r: dict[int, float] = {seed_key: 1.0}
        self.touched: set[int] = {seed_key}
        self.pushes = 0
        self.truncated = False

    def round(self, provider: AdjacencyProvider, wdeg: dict, config: PPRConfig) -> None:
        """Push every touched node that is due (r > r_max * wdeg) in node
        order, each with its residual at push time. ``wdeg`` caches weighted
        degrees by node for the whole batch."""
        r, p, alpha, r_max = self.r, self.p, config.alpha, config.r_max
        due = []
        for node in self.touched:
            d = wdeg.get(node)
            if d is None:
                d = wdeg[node] = _wdeg(provider.merged_neighbors(node).weights)
            if r[node] > r_max * d:
                due.append(node)
        due = _ext_sorted(provider, due)
        budget = config.max_pushes - self.pushes
        if len(due) > budget:
            del due[budget:]
            self.truncated = True
        self.pushes += len(due)
        touched = self.touched = set()
        for node in due:
            rv = r[node]
            keys, weights = provider.merged_neighbors(node)
            keys = keys.tolist()
            p[node] = p.get(node, 0.0) + alpha * rv
            if not keys:
                # dangling: a weight-1 self-loop returns the spread to the node
                r[node] = (1.0 - alpha) * rv
                touched.add(node)
                continue
            r[node] = 0.0
            scale = (1.0 - alpha) * rv / wdeg[node]
            for nkey, w in zip(keys, weights.tolist()):
                r[nkey] = r.get(nkey, 0.0) + scale * w
            touched.update(keys)


def _ext_sorted(provider: AdjacencyProvider, keys: list[int]) -> list[int]:
    """Distinct ``keys`` in (node_type, node_id) order."""
    keys.sort()
    order = provider.ext_order(np.array(keys, dtype=np.int64))
    return keys if order is None else [keys[i] for i in order.tolist()]


def _wdeg(weights: np.ndarray) -> float:
    # dangling nodes act as weight-1 self-loops; fsum of a list is 4x faster
    # than ndarray.sum on views this short
    return math.fsum(weights.tolist()) if len(weights) else 1.0


def _hop_labels(
    provider: AdjacencyProvider, state: _PushState, nodes: list[int]
) -> dict[int, int]:
    """BFS depth from the seed over the pushed nodes, until ``nodes`` are labelled.

    A node has an estimate only once pushed, and gets residual only from a
    pushed neighbour, so every pushed node is reached. The BFS re-reads the
    pushed nodes' views, which the provider already holds.
    """
    pushed = state.p
    depth = {state.seed_key: 0}
    missing = set(nodes) - depth.keys()
    frontier = [state.seed_key]
    d = 0
    while frontier and missing:
        d += 1
        nxt: list[int] = []
        for node in frontier:
            for nkey in provider.merged_neighbors(node).keys.tolist():
                if nkey in pushed and nkey not in depth:
                    depth[nkey] = d
                    missing.discard(nkey)
                    nxt.append(nkey)
        frontier = nxt
    return depth


def ppr_forward_push(
    provider: AdjacencyProvider,
    seed: NodeRef | tuple[int, int],
    config: PPRConfig,
) -> NeighborSample:
    """Forward-push PPR approximation, top_k nodes by estimate.

    Maintains estimate p and residual r with r(seed)=1. Each round pushes
    every node v with r(v) > r_max*wdeg(v), in (node_type, node_id) order:
    p(v) += alpha*r(v), and the rest spreads over out-neighbors proportional
    to edge weight (a dangling node keeps it). Stops when no node is due, or
    at max_pushes with the truncated flag set.
    """
    return ppr_forward_push_batch(provider, [seed], config)[0]


def _finalize_push(
    provider: AdjacencyProvider, state: _PushState, config: PPRConfig
) -> NeighborSample:
    """The top_k by estimate, ties in (node_type, node_id) order: the sort by
    score is stable over the nodes in that order."""
    p, seed_key = state.p, state.seed_key
    ranked = sorted(_ext_sorted(provider, list(p)), key=lambda n: -p[n])
    keep = [n for n in ranked if config.include_seed or n != seed_key][: config.top_k]
    hops = _hop_labels(provider, state, keep)
    refs = provider.refs([seed_key] + keep)
    entries = tuple(SampleEntry(ref, float(p[n]), hops[n]) for ref, n in zip(refs[1:], keep))
    return NeighborSample(refs[0], entries, "ppr-push", truncated=state.truncated)


def ppr_forward_push_batch(
    provider: AdjacencyProvider,
    seeds: Sequence[NodeRef | tuple[int, int]],
    config: PPRConfig,
) -> list[NeighborSample]:
    """Forward push for many seeds at once; each seed's result is
    bit-identical to pushing that seed alone (``ppr_forward_push``).

    A round pushes the due nodes of every active seed after one shared
    ``prefetch`` of their touched nodes. Per-seed push order (and therefore
    floating-point arithmetic order) does not depend on the other seeds.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    config.validate()
    states: list[_PushState | None] = []
    errors: dict[int, NeighborSample] = {}
    wdeg: dict[int, float] = {}
    for i, seed in enumerate(seeds):
        try:
            seed_key = provider.key(seed)
        except MissingNodeError as exc:
            errors[i] = NeighborSample((seed[0], seed[1]), (), "ppr-push", error=str(exc))
            states.append(None)
            continue
        states.append(_PushState(seed_key))
    active = [st for st in states if st is not None]
    while active:
        provider.prefetch(chain.from_iterable(st.touched for st in active))
        for st in active:
            st.round(provider, wdeg, config)
        active = [st for st in active if st.touched and not st.truncated]
    out: list[NeighborSample] = []
    for i, st in enumerate(states):
        if st is None:
            out.append(errors[i])
        else:
            out.append(_finalize_push(provider, st, config))
    return out


# -- 2-hop PPR ---------------------------------------------------------------------

PPR_TOLERANCE = 1e-6  # bound on each 2-hop PPR score's error


def ppr_two_hop_random_walk(
    provider: AdjacencyProvider,
    seed: NodeRef | tuple[int, int],
    config: WalkConfig,
) -> NeighborSample:
    """Exact personalized PageRank on the seed's 2-hop ball.

    The ball is the seed, its out-neighbours (hop 1) and theirs (hop 2). A
    step leaves a member along an out-edge with probability proportional to
    the edge's weight; an edge that leaves the ball restarts at the seed, and
    a dangling member loops on itself. The scores solve
    pi = alpha*e_seed + (1-alpha)*pi P for that P, by R rounds of power
    iteration from pi = alpha*e_seed, normalised to sum to 1. Each round
    adds the next term of the series, so the normalised scores are within
    (1-alpha)^R of the exact ones; R is the least round count with
    (1-alpha)^R <= ``PPR_TOLERANCE``. The top_k members by score come back,
    ties in (node_type, node_id) order, so a sample depends on the graph
    alone. (The name is that of the restart-walk estimate this replaced;
    ``perfbench/layers.py`` traces the function by it.)

    Members are ordered by node, so both providers add every score's terms
    in the same order and give bit-equal results. The work per round is
    linear in the ball's edges; no n-by-n matrix is built.
    """
    config.validate()
    try:
        seed_key = provider.key(seed)
    except MissingNodeError as exc:
        return NeighborSample((seed[0], seed[1]), (), "ppr-2hop", error=str(exc))

    seed_view = provider.merged_neighbors(seed_key)
    one_hop = seed_view.keys.tolist()
    provider.prefetch(one_hop)
    read = {seed_key: seed_view} | {key: provider.merged_neighbors(key) for key in one_hop}
    keys = np.unique(np.concatenate([[seed_key]] + [view.keys for view in read.values()]))
    order = provider.ext_order(keys)
    order = np.arange(len(keys)) if order is None else order
    members = keys[order].tolist()  # in node order
    local = np.empty(len(keys), dtype=np.int64)  # key position -> member index
    local[order] = np.arange(len(keys))
    seed_local = int(local[np.searchsorted(keys, seed_key)])

    provider.prefetch(members)
    nbrs, weights = zip(*[read.get(key) or provider.merged_neighbors(key) for key in members])
    n = len(members)
    lengths = np.fromiter(map(len, nbrs), np.int64, n)
    row = np.repeat(np.arange(n), lengths)
    nbr, weight = np.concatenate(nbrs), np.concatenate(weights)
    at = np.minimum(np.searchsorted(keys, nbr), len(keys) - 1)
    inside = keys[at] == nbr
    outside = ~inside
    # a member's edges that leave the ball become one edge to the seed, a
    # dangling member gets a weight-1 loop, and an extra node n keeps alpha
    # on a loop and adds it to the seed every round
    leave = np.bincount(row[outside], weight[outside], minlength=n)
    out, dangling = np.flatnonzero(leave), np.flatnonzero(lengths == 0)
    src = np.concatenate([row[inside], out, dangling, [n, n]])
    dst = np.concatenate([local[at[inside]], np.full(len(out), seed_local), dangling,
                          [seed_local, n]])
    weight = np.concatenate([weight[inside], leave[out], np.ones(len(dangling) + 2)])
    step = (1.0 - config.alpha) * weight / np.bincount(src, weight)[src]
    step[-2:] = 1.0

    x = np.zeros(n + 1)
    x[[seed_local, n]] = config.alpha
    for _ in range(math.ceil(math.log(PPR_TOLERANCE) / math.log1p(-config.alpha))):
        x = np.bincount(dst, x[src] * step)
    scores = x[:n] / x[:n].sum()

    ranked = np.argsort(-scores, kind="stable").tolist()
    if not config.include_seed:
        ranked.remove(seed_local)
    top = [members[i] for i in ranked[: config.top_k]]
    hops = [0 if key == seed_key else 1 if key in read else 2 for key in top]  # read: hops 0, 1
    refs = provider.refs([seed_key] + top)
    entries = tuple(map(SampleEntry, refs[1:], scores[ranked[: config.top_k]].tolist(), hops))
    return NeighborSample(refs[0], entries, "ppr-2hop")


# -- temporal sampling -----------------------------------------------------------


def sample_temporal_last_n(
    graph: HeteroGraph,
    node: NodeRef | tuple[int, int],
    edge_type: int,
    before_ts: int | float,
    n: int | None,
) -> list[tuple[NodeRef, int]]:
    """The n most recent edges before ``before_ts``, ascending in time.

    ``before_ts=math.inf`` and ``n=None`` are the full-adjacency sentinels.
    """
    if n is not None and n < 1:
        raise ValueError("n must be >= 1 (or None for all)")
    ref = graph.resolve(node)
    cut = graph.temporal_cut(ref, edge_type, before_ts)
    lo = 0 if n is None else max(0, len(cut) - n)
    out = []
    for i in range(lo, len(cut)):
        out.append(
            (
                NodeRef(int(cut.dst_type[i]), int(cut.dst_id[i]), int(cut.dst_index[i])),
                int(cut.timestamp[i]),
            )
        )
    return out
