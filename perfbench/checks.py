"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct. The checks recompute what they can from first principles (plain
numpy for densification) and otherwise compare against lignn's documented
contracts (remote sampling equals in-process sampling).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

# -- offline -------------------------------------------------------------------


def nearest_rank(values: np.ndarray, quantile: float) -> int:
    ordered = np.sort(values)
    return int(ordered[max(1, math.ceil(quantile * len(ordered))) - 1])


def check_densify(graph, table, config, result, sample: Sequence[int]) -> list[str]:
    """Thresholds, edge direction, per-node cap and exact top-k for a sample.

    ``sample`` picks low nodes by position in (node_type, node_id) order;
    their top-k is recomputed with plain numpy cosine similarity.
    """
    problems: list[str] = []
    degree = {
        (t, int(nid)): int(d)
        for t in graph.node_types
        for nid, d in zip(graph.node_ids(t), graph.out_degrees(t, config.edge_types))
    }
    degs = np.array(list(degree.values()))
    t_low = nearest_rank(degs, config.degree_lower_quantile)
    t_high = nearest_rank(degs, config.degree_upper_quantile)
    if (t_low, t_high) != (result.low_threshold, result.high_threshold):
        problems.append(f"thresholds {(result.low_threshold, result.high_threshold)} != {(t_low, t_high)}")

    per_low = Counter()
    for low, high in result.edges:
        per_low[low.ext()] += 1
        if degree[low.ext()] > t_low or degree[high.ext()] < t_high:
            problems.append(f"edge {low.ext()}->{high.ext()} is not low->high")
            break
    if per_low and max(per_low.values()) > config.k:
        problems.append(f"a low node got {max(per_low.values())} > k={config.k} edges")

    high = sorted(k for k, d in degree.items() if d >= t_high and table.covers(k))
    lows = sorted(k for k, d in degree.items() if d <= t_low and table.covers(k))
    mat = np.stack([table.get(k) for k in high])
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    by_low: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for low, h in result.edges:
        by_low.setdefault(low.ext(), []).append(h.ext())
    index = {t: {int(nid): i for i, nid in enumerate(graph.node_ids(t))} for t in graph.node_types}
    for pos in sample:
        key = lows[pos % len(lows)]
        q = table.get(key)
        sims = unit @ (q / np.linalg.norm(q))
        # ties break by (node_type, dense index), as documented by exact_knn
        order = np.lexsort((
            [index[t][i] for t, i in high], [t for t, _ in high], -sims,
        ))
        want = {high[j] for j in order[: config.k]}
        if set(by_low.get(key, [])) != want:
            problems.append(f"top-{config.k} of {key} differs from numpy cosine")
    for low, h in result.edges[:50]:
        adj = result.graph.adjacency(result.graph.resolve(low), result.edge_type)
        if not any(int(t) == h.node_type and int(i) == h.node_id
                   for t, i in zip(adj.dst_type, adj.dst_id)):
            problems.append(f"edge {low.ext()}->{h.ext()} missing from the new graph")
            break
    return problems


def check_training(history, store, auc_floor: float) -> list[str]:
    problems = []
    for m in history:
        if not math.isfinite(m.train_loss):
            problems.append(f"epoch {m.epoch} loss {m.train_loss}")
        if not m.auc > auc_floor:
            problems.append(f"epoch {m.epoch} val_auc {m.auc:.4f} <= {auc_floor}")
    for name, arr in store.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"parameter {name} is not finite")
    return problems


# -- nearline ------------------------------------------------------------------


def check_nearline(report, embeddings, events, known: set, dim: int) -> list[str]:
    """Every event is processed or skipped; versions count processed events."""
    problems = []
    if report.processed + len(report.skipped) != len(events):
        problems.append(
            f"processed {report.processed} + skipped {len(report.skipped)} != {len(events)}"
        )
    expected = Counter()
    for ev in events:
        if ev.member in known and ev.item in known:
            expected[ev.member] += 1
            expected[ev.item] += 1
    stored = embeddings.keys()
    if set(stored) != set(expected):
        problems.append(f"{len(set(stored) ^ set(expected))} nodes differ from the event set")
    for key in stored:
        row = embeddings.get(key)
        if row.version != expected.get(key, 0):
            problems.append(f"{key} version {row.version} != {expected.get(key, 0)} events")
            break
        if row.vector.shape != (dim,) or not np.all(np.isfinite(row.vector)):
            problems.append(f"{key} vector is not finite with dim {dim}")
            break
    return problems


# -- remote --------------------------------------------------------------------


def sample_key(sample) -> tuple:
    """A NeighborSample by external ids: comparable across graphs."""
    return (
        sample.error,
        sample.truncated,
        tuple((e.node.node_type, e.node.node_id, e.score, e.hop) for e in sample.entries),
    )


def wire_sample_key(resp) -> tuple:
    return (
        int(resp.status),
        resp.truncated,
        tuple((e.node.node_type, e.node.node_id, e.score, e.hop) for e in resp.entries),
    )
