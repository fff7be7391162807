"""End-to-end trainer: counting sampler, grouped epochs, adaptive schedule,
validation AUC and metrics log."""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .graph import HeteroGraph, NodeRef
from .model import LinkPredictionModel, ModelConfig, PairBatch, ParamStore
from .model.encoder import hops_from_samples
from .pipeline import (
    AdaptiveState,
    TrainingRecord,
    adaptive_step,
    group_and_slice,
    grouped_step,
    mlp_init,
)
from .samplers import (
    PPRConfig,
    WalkConfig,
    ppr_forward_push,
    ppr_two_hop_random_walk,
    sample_random_multihop,
    sample_temporal_last_n,
    sample_weighted_multihop,
)


def binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC by the rank statistic, ties get average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r_pos = ranks[labels].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


SAMPLER_WALKS = 2000  # restart walks per ppr-2hop training query


class GraphSampler:
    """Neighborhood sampler with per-role query/fetch counters.

    Counters are locked so threads may share an instance.
    Evaluation queries are tracked separately and excluded from the
    training fetch totals.

    ``fetch`` memoizes each (node_type, index, neighbour count) across roles:
    exact, as the graph never changes and a sample is a pure function of
    (rng_seed, node, hop). Callers share the returned tuples. ``memo_hits``
    and ``truncated`` (push samples whose last round was cut at
    ``max_pushes``) count beside ``queries``. A ``ppr-push`` entry deeper than
    ``hops`` is clamped into the last hop, where no sampled node of the hop
    before links to it, so the encoder counts it as an orphan.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        strategy: str = "random",
        rng_seed: int = 0,
        hops: int = 1,
    ):
        if strategy not in ("random", "weighted", "ppr-push", "ppr-2hop"):
            raise ValueError(f"unknown sampling strategy {strategy}")
        self.graph = graph
        self.strategy = strategy
        self.rng_seed = rng_seed
        self.hops = hops
        self.queries: dict[str, int] = {}
        self.neighbors_fetched = 0
        self.memo_hits = 0
        self.truncated = 0
        self._memo: dict[tuple[int, int, int], tuple[tuple[tuple[NodeRef, ...], ...], bool]] = {}
        self._lock = threading.Lock()

    def fetch(self, ref: NodeRef, neighbor_count: int, role: str) -> tuple[tuple[NodeRef, ...], ...]:
        """One engine query: the sampled compute graph for one node."""
        key = (ref.node_type, ref.index, neighbor_count)
        hit = key in self._memo
        if not hit:
            fanouts = [neighbor_count] * self.hops
            if self.strategy == "random":
                [sample] = sample_random_multihop(self.graph, [ref], fanouts, self.rng_seed)
            elif self.strategy == "weighted":
                [sample] = sample_weighted_multihop(self.graph, [ref], fanouts, self.rng_seed)
            elif self.strategy == "ppr-push":
                sample = ppr_forward_push(self.graph, ref, PPRConfig(top_k=neighbor_count))
            else:  # ppr-2hop
                cfg = WalkConfig(num_walks=SAMPLER_WALKS, top_k=neighbor_count, rng_seed=self.rng_seed)
                sample = ppr_two_hop_random_walk(self.graph, ref, cfg)
            truncated = self.strategy == "ppr-push" and sample.truncated  # only a push stops early
            self._memo[key] = (hops_from_samples(sample, self.hops), truncated)
        out, truncated = self._memo[key]
        with self._lock:
            self.queries[role] = self.queries.get(role, 0) + 1
            if role != "eval":
                self.neighbors_fetched += sum(len(h) for h in out)
            self.memo_hits += hit
            self.truncated += truncated
        return out


@dataclass
class TrainSettings:
    epochs: int = 5
    lr: float = 0.1
    group_size: int = 4
    gradient_step: int = 1
    neighbor_count: int = 20
    strategy: str = "random"
    rng_seed: int = 0
    adaptive: AdaptiveState | None = None
    mlp_init_epochs: int = 0
    val_fraction: float = 0.2
    activity_edge_type: int = 0
    metrics_path: str | None = None


@dataclass
class EpochMetrics:
    """One epoch's line of the metrics log. ``memo_hits`` and ``truncated``
    count the sampler's fetches during the epoch, validation included;
    ``orphans`` and ``missing_features`` sum the training steps' forward
    ``aux``; ``inbatch_skips`` counts slices the in-batch decoder skipped for
    holding one real pair."""

    epoch: int
    auc: float | None  # None when the validation split holds one label
    neighbor_count: int
    ge_queries: int
    train_loss: float
    memo_hits: int
    truncated: int
    orphans: int
    missing_features: int
    inbatch_skips: int

    def as_json(self) -> str:
        return json.dumps(asdict(self))


def split_records(
    records: Sequence[TrainingRecord], val_fraction: float, seed: int
) -> tuple[list[TrainingRecord], list[TrainingRecord]]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_val = int(len(records) * val_fraction)
    val_idx = set(order[:n_val].tolist())
    train = [r for i, r in enumerate(records) if i not in val_idx]
    val = [r for i, r in enumerate(records) if i in val_idx]
    return train, val


class Trainer:
    def __init__(
        self,
        graph: HeteroGraph,
        config: ModelConfig,
        settings: TrainSettings,
        store: ParamStore | None = None,
    ):
        self.graph = graph
        self.config = config.with_graph(graph) if not config.feature_dims else config
        self.settings = settings
        self.sampler = GraphSampler(
            graph, settings.strategy, settings.rng_seed, hops=self.config.hops
        )
        self.model = LinkPredictionModel(graph, self.config, store)
        self.history: list[EpochMetrics] = []

    # -- batch building -------------------------------------------------------

    def _activities_for(self, member: NodeRef, before_ts: int) -> tuple[list[NodeRef], list[float]]:
        cfg = self.config.temporal
        assert cfg is not None
        events = sample_temporal_last_n(
            self.graph, member, self.settings.activity_edge_type, before_ts, cfg.seq_len
        )
        refs = [ref for ref, _ in events]
        ages = [float(max(0, before_ts - ts)) for _, ts in events]
        return refs, ages

    def eval_batch(self, records: Sequence[TrainingRecord], neighbor_count: int) -> PairBatch:
        src_refs = [self.graph.resolve(r.member) for r in records]
        dst_refs = [self.graph.resolve(r.item) for r in records]
        src_hops = [self.sampler.fetch(r, neighbor_count, "eval") for r in src_refs]
        dst_hops = [self.sampler.fetch(r, neighbor_count, "eval") for r in dst_refs]
        batch = PairBatch(
            src_refs=src_refs,
            dst_refs=dst_refs,
            labels=np.array([r.label for r in records], dtype=np.float64),
            mask=np.ones(len(records), dtype=bool),
            src_hops=src_hops,
            dst_hops=dst_hops,
        )
        if self.config.temporal is not None:
            acts = [self._activities_for(ref, rec.timestamp) for ref, rec in zip(src_refs, records)]
            batch.activity_refs = [a[0] for a in acts]
            batch.activity_ages = [a[1] for a in acts]
            k = self.config.temporal.dst_neighbor_count
            if k > 0:
                batch.dst_neighbor_refs = [
                    (hops[0] if hops else [])[:k] for hops in dst_hops
                ]
        return batch

    def validation_auc(self, val_records: Sequence[TrainingRecord], neighbor_count: int) -> float:
        scores: list[float] = []
        labels: list[int] = []
        for lo in range(0, len(val_records), 256):
            chunk = val_records[lo : lo + 256]
            batch = self.eval_batch(chunk, neighbor_count)
            scores.extend(self.model.pair_scores(batch).tolist())
            labels.extend(r.label for r in chunk)
        return binary_auc(np.array(scores), np.array(labels))

    # -- training loop ----------------------------------------------------------

    def train(self, records: Sequence[TrainingRecord]) -> list[EpochMetrics]:
        s = self.settings
        train_recs, val_recs = split_records(records, s.val_fraction, s.rng_seed)
        adaptive = s.adaptive
        scorable = len({bool(r.label) for r in val_recs}) == 2
        if adaptive is not None and not scorable:
            raise ValueError(
                "adaptive neighbor counts need validation AUC, but the validation "
                "split holds only one label"
            )
        if s.mlp_init_epochs > 0:
            self.model.store = mlp_init(
                train_recs, self.graph, self.config, epochs=s.mlp_init_epochs, lr=s.lr
            )
        eval_count = adaptive.final_count if adaptive else s.neighbor_count
        rng = np.random.default_rng(s.rng_seed)
        metrics_fh = open(s.metrics_path, "w", encoding="utf-8") if s.metrics_path else None
        activity_fn = self._activities_for if self.config.temporal is not None else None
        try:
            for epoch in range(1, s.epochs + 1):
                count = adaptive.current_count if adaptive else s.neighbor_count
                order = rng.permutation(len(train_recs))
                epoch_recs = [train_recs[i] for i in order]
                losses: list[float] = []
                hits, truncated = self.sampler.memo_hits, self.sampler.truncated
                aux_sums = {"orphans": 0, "missing_features": 0, "inbatch_skips": 0}
                for batch in group_and_slice(epoch_recs, s.group_size):
                    losses.extend(
                        grouped_step(
                            self.model,
                            batch,
                            s.gradient_step,
                            s.lr,
                            lambda ref, role: self.sampler.fetch(ref, count, role),
                            activity_fn=activity_fn,
                            aux_sums=aux_sums,
                        )
                    )

                auc = self.validation_auc(val_recs, eval_count) if scorable else None
                if adaptive is not None:
                    adaptive = adaptive_step(adaptive, auc)
                m = EpochMetrics(
                    epoch=epoch,
                    auc=auc,
                    neighbor_count=count,
                    ge_queries=sum(
                        v for k, v in self.sampler.queries.items() if k != "eval"
                    ),
                    train_loss=float(np.mean(losses)) if losses else 0.0,
                    memo_hits=self.sampler.memo_hits - hits,
                    truncated=self.sampler.truncated - truncated,
                    **aux_sums,
                )
                self.history.append(m)
                if metrics_fh:
                    metrics_fh.write(m.as_json() + "\n")
        finally:
            if metrics_fh:
                metrics_fh.close()
        if adaptive is not None:
            self.settings = replace(s, adaptive=adaptive)
        return self.history
