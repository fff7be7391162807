"""Seeded synthetic inputs for the benchmark.

Everything is a pure function of ``(seed, Sizes)``. The program under test
only ever sees the text rows produced here (TSV edge and node rows, record
rows, event rows, embedding rows), through its own public parsers and
builders.

The graph is a member/item heterograph:

* node type 0 = member, node type 1 = item;
* edge type 0 = engagement, member -> item and item -> member, timestamped;
* edge type 1 = affinity, member <-> member;
* edge type 2 = affinity, reserved for densification's artificial edges.

Members and items carry a latent vector. A member engages items with
probability proportional to Zipf popularity times latent similarity. A
training record's label is the sign of the item's first latent axis (an item
quality), so node features, which are the latent plus noise, carry a signal
the link predictor learns within one epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MEMBER, ITEM = 0, 1
ENGAGEMENT, AFFINITY, ARTIFICIAL = 0, 1, 2
FEATURE_DIM = 8
LATENT_DIM = 4
EMBED_DIM = 8
EVENT_KINDS = ("click", "apply", "like", "connect")

SCHEMA_TEXT = f"""\
edge.{ENGAGEMENT} = engagement
edge.{AFFINITY} = affinity
edge.{ARTIFICIAL} = affinity
features.{MEMBER} = {FEATURE_DIM}
features.{ITEM} = {FEATURE_DIM}
"""

# Malformed rows the parser already rejects with a named reason. Out-of-range
# node ids are deliberately absent: they crash build_graph today.
_BAD_EDGE_ROWS = (
    "0\t1\t0\n",                          # too few columns
    "0\tx\t0\t1\t5\t1.0\t7\n",            # non-numeric id
    "0\t1\t9\t1\t5\t1.0\t7\n",            # unknown edge type
    "0\t1\t0\t1\t5\t-1.0\t7\n",           # nonpositive weight
    "0\t1\t0\t1\t5\tnan\t7\n",            # non-finite weight
)


MALFORMED_SHARE = 0.01    # of edge rows
FEATURELESS_SHARE = 0.02  # of nodes that have edges
UNKNOWN_EVENT_SHARE = 0.01
LATE_EVENT_SHARE = 0.01


@dataclass(frozen=True)
class Sizes:
    members: int
    items: int
    engagements_per_member: float = 6.0
    affinity_per_member: int = 2
    records: int = 0
    events: int = 0
    streams: int = 1  # event streams of ``events`` rows each
    zipf_exponent: float = 1.1


@dataclass(frozen=True)
class Inputs:
    schema_text: str
    edge_rows: tuple[str, ...]
    node_rows: tuple[str, ...]
    embedding_rows: tuple[str, ...]
    record_rows: tuple[str, ...]
    event_rows: tuple[str, ...]
    malformed_rows: int
    members: tuple[int, ...]
    items: tuple[int, ...]


def _fmt(vec: np.ndarray) -> str:
    return ",".join(f"{x:.6f}" for x in vec)


def _zipf_weights(rng: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    ranks = rng.permutation(n) + 1
    w = 1.0 / ranks.astype(np.float64) ** exponent
    return w / w.sum()


def generate(seed: int, sizes: Sizes) -> Inputs:
    rng = np.random.default_rng(seed)
    m, n = sizes.members, sizes.items
    member_ids = np.sort(rng.choice(10**9, size=m, replace=False)).astype(np.int64)
    item_ids = np.sort(rng.choice(10**9, size=n, replace=False)).astype(np.int64)
    zm = rng.normal(size=(m, LATENT_DIM))
    zi = rng.normal(size=(n, LATENT_DIM))
    zm /= np.linalg.norm(zm, axis=1, keepdims=True)
    zi /= np.linalg.norm(zi, axis=1, keepdims=True)
    popularity = _zipf_weights(rng, n, sizes.zipf_exponent)

    # engagement preference: popularity x exp(3 * cosine)
    pref = popularity[None, :] * np.exp(3.0 * (zm @ zi.T))
    pref /= pref.sum(axis=1, keepdims=True)
    cum = np.cumsum(pref, axis=1)

    t0 = 1_600_000_000_000
    edge_rows: list[str] = []
    engaged = np.zeros(n, dtype=bool)
    degree = 1 + rng.poisson(sizes.engagements_per_member - 1.0, size=m)
    for a in range(m):
        picks = np.searchsorted(cum[a], rng.random(degree[a]), side="right")
        picks = np.minimum(picks, n - 1)
        engaged[picks] = True
        stamps = np.sort(t0 + rng.integers(0, 10**8, size=len(picks)))
        weights = rng.uniform(0.5, 1.5, size=len(picks))
        for b, ts, w in zip(picks, stamps, weights):
            mid, iid = int(member_ids[a]), int(item_ids[b])
            edge_rows.append(f"{MEMBER}\t{mid}\t{ENGAGEMENT}\t{ITEM}\t{iid}\t{w:.6f}\t{ts}\n")
            edge_rows.append(f"{ITEM}\t{iid}\t{ENGAGEMENT}\t{MEMBER}\t{mid}\t{w:.6f}\t{ts}\n")
    for a in range(m):
        for b in rng.integers(0, m, size=sizes.affinity_per_member):
            if b == a:
                continue
            w = rng.uniform(0.2, 1.0)
            ua, ub = int(member_ids[a]), int(member_ids[b])
            edge_rows.append(f"{MEMBER}\t{ua}\t{AFFINITY}\t{MEMBER}\t{ub}\t{w:.6f}\t0\n")
            edge_rows.append(f"{MEMBER}\t{ub}\t{AFFINITY}\t{MEMBER}\t{ua}\t{w:.6f}\t0\n")

    bad = int(round(MALFORMED_SHARE * len(edge_rows)))
    for k, pos in enumerate(sorted(rng.integers(0, len(edge_rows), size=bad))[::-1]):
        edge_rows.insert(int(pos), _BAD_EDGE_ROWS[k % len(_BAD_EDGE_ROWS)])

    # features = latent + noise, padded with noise; a few nodes that have
    # edges (so they still exist in the graph) get none
    node_rows: list[str] = []
    embedding_rows: list[str] = []
    has_edges = (np.ones(m, dtype=bool), engaged)
    for ntype, ids, z, linked in zip((MEMBER, ITEM), (member_ids, item_ids), (zm, zi), has_edges):
        feats = np.concatenate(
            [z + 0.3 * rng.normal(size=z.shape),
             0.3 * rng.normal(size=(len(ids), FEATURE_DIM - LATENT_DIM))], axis=1)
        emb = np.concatenate(
            [z + 0.2 * rng.normal(size=z.shape),
             0.2 * rng.normal(size=(len(ids), EMBED_DIM - LATENT_DIM))], axis=1)
        featureless = (rng.random(len(ids)) < FEATURELESS_SHARE) & linked
        for j, nid in enumerate(ids):
            if not featureless[j]:
                node_rows.append(f"{ntype}\t{int(nid)}\t{_fmt(feats[j])}\n")
            embedding_rows.append(f"{ntype}\t{int(nid)}\t{_fmt(emb[j])}\n")

    # training records: a member pool with repeats (so grouping has work),
    # items by popularity, label = sign of the item's first latent axis
    record_rows: list[str] = []
    if sizes.records:
        pool = rng.choice(m, size=max(1, sizes.records // 3), replace=False)
        who = rng.choice(pool, size=sizes.records)
        what = rng.choice(n, size=sizes.records, p=popularity)
        score = zi[what, 0] + 0.1 * rng.normal(size=sizes.records)
        stamps = t0 + 10**8 + np.sort(rng.integers(0, 10**7, size=sizes.records))
        for a, b, s, ts in zip(who, what, score, stamps):
            record_rows.append(
                f"{MEMBER}\t{int(member_ids[a])}\t{ITEM}\t{int(item_ids[b])}"
                f"\t{int(s > 0)}\t{int(ts)}\n"
            )

    # ordered event streams, one after the other in ``event_rows``, with a
    # few late and a few unknown-node events; each stream's last fifth repeats
    # its first fifth's interactions, so the two fifths do the same work and
    # differ only in how much the stream has grown the graph
    event_rows: list[str] = []
    for _ in range(sizes.streams if sizes.events else 0):
        fifth = sizes.events // 5
        who = rng.integers(0, m, size=sizes.events)
        what = rng.choice(n, size=sizes.events, p=popularity)
        kinds = rng.integers(0, len(EVENT_KINDS), size=sizes.events)
        stamps = t0 + 2 * 10**8 + 1000 * np.arange(sizes.events)
        late = rng.random(sizes.events) < LATE_EVENT_SHARE
        unknown = rng.random(sizes.events) < UNKNOWN_EVENT_SHARE
        for arr in (who, what, kinds, late, unknown):
            arr[sizes.events - fifth:] = arr[:fifth]
        for k in range(sizes.events):
            ts = int(stamps[k]) - (5000 if late[k] and k else 0)
            mid = int(member_ids[who[k]]) if not unknown[k] else 10**9 + k
            event_rows.append(
                f"{ts}\t{EVENT_KINDS[kinds[k]]}\t{MEMBER}\t{mid}\t{ITEM}\t{int(item_ids[what[k]])}\n"
            )

    return Inputs(
        schema_text=SCHEMA_TEXT,
        edge_rows=tuple(edge_rows),
        node_rows=tuple(node_rows),
        embedding_rows=tuple(embedding_rows),
        record_rows=tuple(record_rows),
        event_rows=tuple(event_rows),
        malformed_rows=bad,
        members=tuple(int(x) for x in member_ids),
        items=tuple(int(x) for x in item_ids),
    )
