"""Plain numpy reference math for the taped model and the samplers.

Each function here restates one op of the library without the autograd tape
(or, for PPR, densely), so tests can check the library against it: the
aggregators of the SAGE layer, the temporal sequence head and its long-term
pairing, the link decoders and their losses, exact personalized PageRank
(on the whole graph, and on a seed's 2-hop ball with the restart walk that
once estimated it), the size-weighted aggregation of micro-batch
gradients, the merged neighbour view, the union of a sampling frontier's
views, the parent links of an encode batch, the one-edge insert of an
epoch swap, the unfused tape chains behind each fused op of
``lignn.model.autograd``, and graph ingest and shard routing one row at a
time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from lignn.graph import (
    MAX_NODE_ID,
    MAX_NODE_TYPE,
    AdjacencySlice,
    EdgeKind,
    GraphBuildReport,
    GraphSchema,
    HeteroGraph,
    MissingNodeError,
    NodeRef,
    _CSRBlock,
)
from lignn.samplers import NeighborSample, SampleEntry, WalkConfig, _rng_for
from lignn.service.partition import PartitionMap
from lignn.model import autograd as ag
from lignn.model.params import TemporalConfig
from lignn.model.temporal import (
    build_prefix_causal_mask,
    sinusoidal_positions,
    timestamp_positions,
)


# -- SAGE aggregators -------------------------------------------------------------


def mean_aggregate(
    neighbor_embeddings: Sequence[np.ndarray], weights: Sequence[float] | None = None
) -> tuple[np.ndarray, bool]:
    """(Weighted) arithmetic mean; empty input gives (zeros-flagged, True).

    The zero vector for the empty case takes its dimension from weights-less
    callers via an empty (0,)-dim guard, so callers should handle the flag.
    """
    if len(neighbor_embeddings) == 0:
        return np.zeros(0), True
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in neighbor_embeddings])
    if weights is None:
        return mat.mean(axis=0), False
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != mat.shape[0]:
        raise ValueError("weights length must match neighbor count")
    total = w.sum()
    if total <= 0:
        raise ValueError("weight sum must be positive")
    return (mat * w[:, None]).sum(axis=0) / total, False


def attention_aggregate(
    center: np.ndarray,
    neighbor_embeddings: Sequence[np.ndarray],
    w_query: np.ndarray,
    w_key: np.ndarray,
    include_center: bool = False,
) -> tuple[np.ndarray, bool]:
    """Scaled dot-product attention pool over the neighbor set.

    score_i = (center W_q) . (n_i W_k) / sqrt(d_att); output is the
    softmax-weighted sum of the neighbor embeddings themselves. The
    self-attention variant adds the center to the key/value set. An empty
    neighborhood returns the center embedding, flagged.
    """
    center = np.asarray(center, dtype=np.float64)
    values = [np.asarray(v, dtype=np.float64) for v in neighbor_embeddings]
    if include_center:
        values = values + [center]
    if len(values) == 0:
        return center.copy(), True
    mat = np.stack(values)
    d_att = w_query.shape[1]
    q = center @ w_query
    scores = (mat @ w_key) @ q / np.sqrt(d_att)
    shifted = np.exp(scores - scores.max())
    att = shifted / shifted.sum()
    return att @ mat, False


# -- temporal head ------------------------------------------------------------------


class TemporalSequence(NamedTuple):
    tokens: np.ndarray        # (H+N, d) = H reshaped encoder tokens + N activities
    mask: np.ndarray          # (H+N, H+N) bool, pad columns disabled
    positions: np.ndarray     # (H+N, d) additive positional table (zeros on H block)
    activity_real: np.ndarray  # (N,) bool, False on left-padded slots


def assemble_temporal_sequence(
    sage_output: np.ndarray,
    activities: Sequence[np.ndarray],
    config: TemporalConfig,
    ages_ms: Sequence[float] | None = None,
) -> TemporalSequence:
    """Reshape the encoder output into H tokens and splice in activities.

    The H*d encoder vector splits row-major into H tokens of dim d.
    Activities are truncated to the most recent N and left-padded with zero
    tokens; pad slots lose their attention columns (rows keep the H tokens,
    so every row still attends something) and are excluded from losses via
    ``activity_real``.
    """
    config.validate()
    h, d, n = config.heads, config.token_dim, config.seq_len
    sage_output = np.asarray(sage_output, dtype=np.float64)
    if sage_output.shape != (h * d,):
        raise ValueError(f"encoder output must have shape ({h * d},)")
    head_tokens = sage_output.reshape(h, d)

    acts = [np.asarray(a, dtype=np.float64) for a in activities]
    for a in acts:
        if a.shape != (d,):
            raise ValueError(f"activity token dim {a.shape} != ({d},)")
    acts = acts[-n:]
    if ages_ms is not None:
        ages = list(ages_ms)[-n:]
    pad = n - len(acts)
    act_block = np.zeros((n, d), dtype=np.float64)
    if acts:
        act_block[pad:] = np.stack(acts)
    real = np.zeros(n, dtype=bool)
    real[pad:] = True

    tokens = np.concatenate([head_tokens, act_block], axis=0)

    positions = np.zeros((h + n, d), dtype=np.float64)
    if config.positional_mode == "sinusoidal":
        positions[h:] = sinusoidal_positions(n, d)
    elif config.positional_mode == "timestamp":
        if ages_ms is None:
            raise ValueError("timestamp positional mode needs ages_ms")
        rows = timestamp_positions(ages, d) if acts else np.zeros((0, d))
        positions[h + pad :] = rows

    mask = build_prefix_causal_mask(h, n, config.mask_mode)
    pad_cols = np.concatenate([np.zeros(h, dtype=bool), ~real])
    mask[:, pad_cols] = False
    return TemporalSequence(tokens, mask, positions, real)


class AttentionParams(NamedTuple):
    w_query: np.ndarray  # (d, d)
    w_key: np.ndarray
    w_value: np.ndarray


def masked_attention_forward(
    tokens: np.ndarray, mask: np.ndarray, params: AttentionParams
) -> np.ndarray:
    """Single-layer scaled dot-product attention with exact mask exclusion.

    out_i = sum over allowed j of softmax(q_i . k_j / sqrt(d)) v_j; masked
    entries carry exactly zero weight (their values never enter the max
    shift, the normalizer, or the output).
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    t, d = tokens.shape
    if mask.shape != (t, t):
        raise ValueError(f"mask shape {mask.shape} != ({t}, {t})")
    if not mask.any(axis=1).all():
        raise ValueError("attention mask has a row with no allowed entries")
    q = tokens @ params.w_query
    k = tokens @ params.w_key
    v = tokens @ params.w_value
    scores = (q @ k.T) / np.sqrt(d)
    mx = np.where(mask, scores, -np.inf).max(axis=1, keepdims=True)
    shifted = np.where(mask, scores - mx, 0.0)  # masked values never enter exp
    e = np.where(mask, np.exp(shifted), 0.0)
    att = e / e.sum(axis=1, keepdims=True)
    return att @ v


def long_term_target_pairs(config: TemporalConfig) -> list[tuple[int, int]]:
    """(prediction, target) positions in activity-index space.

    The output embedding at the last history position (N1 - 1) predicts each
    future activity embedding at N1..N-1; absolute token indices add H.
    """
    config.validate()
    n1, n2 = config.history_len, config.future_len
    if n2 == 0:
        return []
    return [(n1 - 1, t) for t in range(n1, n1 + n2)]


# -- decoders and losses --------------------------------------------------------------


def decode_cosine(src_embedding: np.ndarray, dst_embedding: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs are an error."""
    u = np.asarray(src_embedding, dtype=np.float64)
    v = np.asarray(dst_embedding, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("embedding dims differ")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for zero-norm embedding")
    return float(u @ v / (nu * nv))


class InBatchResult(NamedTuple):
    logits: np.ndarray  # (B, B)
    loss: float


def decode_in_batch_negatives(
    batch_src: np.ndarray, batch_dst: np.ndarray, temperature: float = 1.0
) -> InBatchResult:
    """Every other row of the batch serves as a negative.

    logits[i][j] = src_i . dst_j / temperature; the loss is mean softmax
    cross-entropy with diagonal targets. Needs B >= 2 (no negatives
    otherwise).
    """
    src = np.asarray(batch_src, dtype=np.float64)
    dst = np.asarray(batch_dst, dtype=np.float64)
    if src.ndim != 2 or src.shape != dst.shape:
        raise ValueError("expected matching (B, d) batches")
    if src.shape[0] < 2:
        raise ValueError("in-batch negatives need B >= 2")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = src @ dst.T / temperature
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    loss = float(np.mean(lse - np.diag(logits)))
    return InBatchResult(logits, loss)


class BCEResult(NamedTuple):
    loss: float
    grad: float  # d loss / d score


def bce_loss(score: float, label: int) -> BCEResult:
    """Sigmoid binary cross entropy in log-sum-exp form.

    loss = softplus(s) - y*s; gradient sigmoid(s) - y. Stable for any s.
    """
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    s = float(score)
    softplus = max(s, 0.0) + np.log1p(np.exp(-abs(s)))
    z = np.exp(-abs(s))
    sig = 1.0 / (1.0 + z) if s >= 0 else z / (1.0 + z)
    return BCEResult(float(softplus - label * s), float(sig - label))


# -- exact PPR ------------------------------------------------------------------------


class GlobalIndex:
    """Flat index over all nodes of all types, in (type, index) order."""

    def __init__(self, graph: HeteroGraph):
        self.graph = graph
        self.types = graph.node_types
        self.offsets: dict[int, int] = {}
        total = 0
        for t in self.types:
            self.offsets[t] = total
            total += graph.num_nodes(t)
        self.n = total

    def gidx(self, ref: NodeRef) -> int:
        return self.offsets[ref.node_type] + ref.index

    def ref(self, gidx: int) -> NodeRef:
        for t in reversed(self.types):
            if gidx >= self.offsets[t]:
                return self.graph.node_ref_by_index(t, gidx - self.offsets[t])
        raise IndexError(gidx)


class PPRExactResult(NamedTuple):
    scores: np.ndarray  # dense over GlobalIndex order
    l1_change: float
    index: GlobalIndex

    def score_of(self, ref: NodeRef) -> float:
        return float(self.scores[self.index.gidx(ref)])


def _transition_matrix(graph: HeteroGraph, gindex: GlobalIndex) -> np.ndarray:
    P = np.zeros((gindex.n, gindex.n), dtype=np.float64)
    for t in gindex.types:
        for i in range(graph.num_nodes(t)):
            ref = graph.node_ref_by_index(t, i)
            g = gindex.gidx(ref)
            refs, weights = merged_view(graph, ref)
            total = float(weights.sum()) if len(refs) else 0.0
            if total <= 0.0:
                P[g, g] = 1.0  # dangling node keeps its mass
            else:
                for nref, w in zip(refs, weights):
                    P[g, gindex.gidx(nref)] += float(w) / total
    return P


def ppr_exact(
    graph: HeteroGraph,
    seed: NodeRef | tuple[int, int],
    alpha: float,
    num_iterations: int = 500,
) -> PPRExactResult:
    """Power iteration of pi <- alpha*e_seed + (1-alpha)*pi P (dense, oracle).

    Dangling nodes self-loop so P stays row-stochastic. Intended for small
    graphs; cost is O(n^2) per iteration.
    """
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    seed_ref = graph.resolve(seed)
    gindex = GlobalIndex(graph)
    P = _transition_matrix(graph, gindex)
    e = np.zeros(gindex.n)
    e[gindex.gidx(seed_ref)] = 1.0
    pi = e.copy()
    l1 = math.inf
    for _ in range(num_iterations):
        nxt = alpha * e + (1.0 - alpha) * (pi @ P)
        l1 = float(np.abs(nxt - pi).sum())
        pi = nxt
    return PPRExactResult(pi, l1, gindex)


def ppr_two_hop_dense(
    graph: HeteroGraph, seed: tuple[int, int], alpha: float
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], int]]:
    """Exact PPR on the seed's 2-hop ball by a dense solve, with hop labels,
    both keyed by (node_type, node_id). Reads only ``merged_view``.

    The ball is the seed, its out-neighbours (hop 1) and theirs (hop 2). A
    step along an edge that leaves the ball restarts at the seed, and a
    dangling node loops on itself. Solves pi (I - (1-alpha) P) = alpha e_seed.
    """
    seed_ref = graph.resolve(seed)
    hops = {seed_ref.ext(): 0}
    one_hop = merged_view(graph, seed_ref)[0]
    for ref in one_hop:
        hops.setdefault(ref.ext(), 1)
    for ref in one_hop:
        for nref in merged_view(graph, ref)[0]:
            hops.setdefault(nref.ext(), 2)
    members = sorted(hops)
    local = {ext: i for i, ext in enumerate(members)}
    P = np.zeros((len(members), len(members)))
    for i, ext in enumerate(members):
        refs, weights = merged_view(graph, graph.resolve(ext))
        if not refs:
            P[i, i] = 1.0
            continue
        for nref, w in zip(refs, weights / weights.sum()):
            P[i, local.get(nref.ext(), local[seed_ref.ext()])] += w
    e = np.zeros(len(members))
    e[local[seed_ref.ext()]] = alpha
    pi = np.linalg.solve((np.eye(len(members)) - (1.0 - alpha) * P).T, e)
    return dict(zip(members, pi.tolist())), hops


class _Ball:
    """2-hop ball around a seed, flattened to a local CSR for the walk; local
    indices follow NodeRef order, which is (node_type, node_id) order."""

    def __init__(self, provider, seed_ref: NodeRef):
        views = {seed_ref: provider.merged_neighbors(seed_ref)}
        one_hop = views[seed_ref].refs
        provider.prefetch(one_hop)
        for ref in one_hop:
            views[ref] = provider.merged_neighbors(ref)
        members = set(views)
        for view in views.values():
            members.update(view.refs)
        self.refs = sorted(members)
        self.local = {ref: i for i, ref in enumerate(self.refs)}
        self.seed_local = self.local[seed_ref]
        self.one_hop = set(one_hop)
        provider.prefetch(self.refs)

        indptr = [0]
        dest: list[int] = []
        cum: list[float] = []
        for i, ref in enumerate(self.refs):
            refs, weights, _ = views.get(ref) or provider.merged_neighbors(ref)
            if len(refs) == 0:
                # dangling: self-loop
                dest.append(i)
                cum.append(1.0)
            else:
                total = float(weights.sum())
                c = 0.0
                for nref, w in zip(refs, weights.tolist()):
                    c += w / total
                    # leaving the ball restarts the walk at the seed
                    dest.append(self.local.get(nref, self.seed_local))
                    cum.append(min(c, 1.0))
                cum[-1] = 1.0
            indptr.append(len(dest))
        self.indptr = np.array(indptr, dtype=np.int64)
        self.dest = np.array(dest, dtype=np.int64)
        # globally sorted search array: row index + within-row cumulative weight
        row_of = np.repeat(np.arange(len(self.refs)), np.diff(self.indptr))
        self.search = row_of.astype(np.float64) + np.array(cum, dtype=np.float64)

    def step(self, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
        slots = np.searchsorted(self.search, pos.astype(np.float64) + u, side="left")
        return self.dest[slots]


def ppr_two_hop_walk(
    provider,
    seed: NodeRef | tuple[int, int],
    config: WalkConfig,
    num_walks: int,
    rng_seed: int,
) -> NeighborSample:
    """Restart-walk PPR estimate confined to the seed's 2-hop ball.

    Simulates num_walks alpha-restart walk segments; any step that would
    leave the 2-hop ball restarts at the seed instead. Scores are visit
    fractions (they sum to 1 over all visited nodes); the top_k by score
    among ball nodes are returned, ties in (node_type, node_id) order.
    """
    config.validate()
    try:
        seed_ref = provider.resolve(seed)
    except MissingNodeError as exc:
        return NeighborSample((seed[0], seed[1]), (), "ppr-2hop", error=str(exc))

    ball = _Ball(provider, seed_ref)
    gen = _rng_for(rng_seed, seed_ref)
    counts = np.zeros(len(ball.refs), dtype=np.int64)
    pos = np.full(num_walks, ball.seed_local, dtype=np.int64)
    counts[ball.seed_local] += num_walks  # step 0 of every walk
    total = num_walks
    while len(pos):
        survive = gen.random(len(pos)) >= config.alpha
        pos = pos[survive]
        if not len(pos):
            break
        pos = ball.step(pos, gen.random(len(pos)))
        np.add.at(counts, pos, 1)
        total += len(pos)

    scores = counts / float(total)
    entries: list[SampleEntry] = []
    for i in np.argsort(-scores, kind="stable").tolist():
        if scores[i] <= 0.0:
            break
        if i == ball.seed_local:
            if not config.include_seed:
                continue
            hop = 0
        else:
            hop = 1 if ball.refs[i] in ball.one_hop else 2
        entries.append(SampleEntry(ball.refs[i], float(scores[i]), hop))
        if len(entries) == config.top_k:
            break
    return NeighborSample(seed_ref, tuple(entries), "ppr-2hop")


# -- gradient aggregation -------------------------------------------------------------


def local_gradient_aggregate(
    micro_gradients: Sequence[dict[str, np.ndarray]],
    micro_batch_sizes: Sequence[int],
) -> dict[str, np.ndarray]:
    """Size-weighted mean of micro-batch gradients.

    For any loss that is a size-weighted mean of per-example losses this
    equals the concatenated-batch gradient exactly.
    """
    if len(micro_gradients) == 0:
        raise ValueError("need at least one micro gradient")
    if len(micro_gradients) != len(micro_batch_sizes):
        raise ValueError("sizes must align with gradients")
    names = list(micro_gradients[0])
    total = float(sum(micro_batch_sizes))
    out: dict[str, np.ndarray] = {}
    for name in names:
        shape = micro_gradients[0][name].shape
        acc = np.zeros(shape, dtype=np.float64)
        for grads, size in zip(micro_gradients, micro_batch_sizes):
            g = grads[name]
            if g.shape != shape:
                raise ValueError(f"shape mismatch for {name}: {g.shape} vs {shape}")
            acc += (size / total) * g
        out[name] = acc
    return out


# -- epoch swap -----------------------------------------------------------------------


def run_with_edge(
    run: AdjacencySlice, dst: NodeRef, weight: float, timestamp: int
) -> AdjacencySlice:
    """One adjacency run with one edge inserted or updated, by numpy inserts.

    The edge goes in timestamp order, before existing edges of the same
    timestamp; a (dst, timestamp) already in the run keeps the max weight.
    """
    ts_list = run.timestamp.tolist()
    pos = bisect_left(ts_list, timestamp)
    # scan ties on timestamp for an existing (dst, ts) edge
    dup = -1
    j = pos
    while j < len(ts_list) and ts_list[j] == timestamp:
        if int(run.dst_type[j]) == dst.node_type and int(run.dst_id[j]) == dst.node_id:
            dup = j
            break
        j += 1
    if dup >= 0:
        new = AdjacencySlice(*(a.copy() for a in run))
        new.weight[dup] = max(new.weight[dup], weight)
    else:
        new = AdjacencySlice(
            np.insert(run.dst_type, pos, dst.node_type),
            np.insert(run.dst_id, pos, np.uint64(dst.node_id)),
            np.insert(run.dst_index, pos, dst.index),
            np.insert(run.weight, pos, weight),
            np.insert(run.timestamp, pos, timestamp),
        )
    return new


def fold_edges(
    graph: HeteroGraph, edges: Sequence[tuple[NodeRef, int, NodeRef, float, int]]
) -> dict[tuple[int, int, int], AdjacencySlice]:
    """(src_type, edge_type, src index) -> run after inserting ``edges`` in order."""
    runs: dict[tuple[int, int, int], AdjacencySlice] = {}
    for src, edge_type, dst, weight, timestamp in edges:
        key = (src.node_type, edge_type, src.index)
        if key not in runs:
            runs[key] = graph.adjacency(src, edge_type)
        runs[key] = run_with_edge(runs[key], dst, weight, timestamp)
    return runs


# -- merged neighbour view --------------------------------------------------------------


def merged_view(graph: HeteroGraph, node: NodeRef) -> tuple[list[NodeRef], np.ndarray]:
    """Distinct out-neighbours of ``node`` sorted by (node_type, node_id), by a
    dict merge over its adjacency runs in edge-type order: parallel edges sum
    their weights. Never reads the graph's merged CSR."""
    acc: dict[tuple[int, int], float] = {}
    for et in graph.edge_types:
        run = graph.adjacency(node, et)
        for key, w in zip(zip(run.dst_type.tolist(), run.dst_id.tolist()), run.weight.tolist()):
            acc[key] = acc.get(key, 0.0) + w
    keys = sorted(acc)
    return [graph.node_ref(*k) for k in keys], np.array([acc[k] for k in keys])


def frontier_union(provider, frontier: Sequence[NodeRef]) -> tuple[list[NodeRef], np.ndarray]:
    """Distinct neighbours of the ``frontier`` nodes sorted by (node_type,
    node_id), by a dict merge over their ``merged_neighbors`` views in
    frontier order: a neighbour of several frontier nodes sums its weights
    in that order. Reads only ``merged_neighbors``, never the samplers'
    union or the key arrays."""
    acc: dict[tuple[int, int], float] = {}
    ref_of: dict[tuple[int, int], NodeRef] = {}
    for node in frontier:
        refs, weights, _ = provider.merged_neighbors(node)
        for ref, w in zip(refs, weights.tolist()):
            acc[ref.ext()] = acc.get(ref.ext(), 0.0) + w
            ref_of[ref.ext()] = ref
    keys = sorted(acc)
    return [ref_of[k] for k in keys], np.array([acc[k] for k in keys], dtype=np.float64)


# -- encode-batch links ------------------------------------------------------------------


def encode_links(graph: HeteroGraph, seeds, hop_lists, depth: int):
    """``(level_refs, level_seed, edges, orphans)`` of an encode batch, by a
    loop over (parent, child) pairs with ext-keyed neighbour sets: hop-1
    nodes hang under their seed, a deeper node under every slot of its
    seed's previous level whose merged view holds it, and a node with no
    such slot is an orphan."""
    level_refs, level_seed, edges, orphans = [list(seeds)], [list(range(len(seeds)))], [], 0
    for h in range(depth):
        refs_h, seed_h, parent_idx, child_idx = [], [], [], []
        for s in range(len(seeds)):
            parents = [p for p, owner in enumerate(level_seed[h]) if owner == s]
            for ref in (hop_lists[s][h] if h < len(hop_lists[s]) else ()):
                links = parents if h == 0 else [
                    p for p in parents
                    if ref.ext() in {r.ext() for r in graph.merged_neighbors(level_refs[h][p])[0]}
                ]
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
    return level_refs, level_seed, edges, orphans


# -- unfused tape chains -------------------------------------------------------------------
#
# Each takes the arguments of the fused op of the same name and records the
# chain of primitives the fused op replaced, one tape node per primitive.


def tanh(a: ag.Tensor) -> ag.Tensor:
    y = np.tanh(a.data)
    return ag.Tensor(y, parents=(a,), vjp=lambda g: (g * (1.0 - y * y),))


def segment_mean(x: ag.Tensor, segment_ids: np.ndarray, num_segments: int) -> ag.Tensor:
    """Mean per segment, zero rows for empty segments."""
    denom = np.zeros(num_segments, dtype=np.float64)
    np.add.at(denom, segment_ids, 1.0)
    safe = np.where(denom == 0.0, 1.0, denom).reshape(-1, 1)
    total = ag.segment_sum(x, segment_ids, num_segments)
    return ag.mul(total, ag.constant(1.0 / safe))


def project(parts, num_rows: int) -> ag.Tensor:
    """Per type: constant features times W plus b, id-embedding rows
    concatenated; blocks stacked in type order, then gathered into slot order."""
    blocks, perm = [], []
    for slots, feats, w, b, table, index in parts:
        proj = ag.add(ag.matmul(ag.constant(feats), w), b)
        if table is not None:
            proj = ag.concat([proj, ag.gather_rows(table, index)], axis=1)
        blocks.append(proj)
        perm.extend(slots)
    assert len(perm) == num_rows
    stacked = blocks[0] if len(blocks) == 1 else ag.concat(blocks, axis=0)
    inv = np.empty(len(perm), dtype=np.int64)
    inv[np.asarray(perm)] = np.arange(len(perm))
    return ag.gather_rows(stacked, inv)


def gather_mean(rows, index: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> ag.Tensor:
    return segment_mean(ag.gather_rows(rows, index), segment_ids, num_segments)


def concat_affine_tanh(parts, w: ag.Tensor, b: ag.Tensor) -> ag.Tensor:
    return tanh(ag.add(ag.matmul(ag.concat(parts, axis=1), w), b))


# -- row-at-a-time ingest and routing ----------------------------------------------------
# ``build_graph`` and ``shard_edge_lines`` as they were before ingest read
# columns: one row at a time through the scalar parsers and ``mix64``.


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


def build_graph_rowwise(
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
        kind = schema.edge_kinds.get(et)
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


def shard_edge_lines_rowwise(lines, pmap: PartitionMap, shard: int):
    """Edge rows whose source this shard owns (client routes by source)."""
    for raw in lines:
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.split("\t")
        try:
            node = (int(parts[0]), int(parts[1]))
        except (ValueError, IndexError):
            continue
        if pmap.owner(node) == shard:
            yield raw
