"""Training-throughput machinery: grouping & slicing of member/item records,
the adaptive neighbor-count controller, the grouped training step and
MLP-init."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph import MASK64, HeteroGraph, NodeRef
from .model import LinkPredictionModel, ModelConfig, PairBatch, ParamStore, init_params

DUMMY_ITEM_ID = MASK64  # reserved sentinel for padded slots; never a graph node id


class TrainingRecord(NamedTuple):
    member_type: int
    member_id: int
    item_type: int
    item_id: int
    label: int
    timestamp: int

    @property
    def member(self) -> tuple[int, int]:
        return (self.member_type, self.member_id)

    @property
    def item(self) -> tuple[int, int]:
        return (self.item_type, self.item_id)


def parse_records(lines: Iterable[str]) -> list[TrainingRecord]:
    """records.tsv: member_type, member_id, item_type, item_id, label, ts."""
    out = []
    for raw in lines:
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != 6:
            raise ValueError(f"bad record row: {raw!r}")
        out.append(TrainingRecord(*(int(p) for p in parts)))
    return out


@dataclass(frozen=True)
class GroupedBatch:
    """One member with group_size item slots; padded slots have mask False."""

    member: tuple[int, int]
    items: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]
    mask: tuple[bool, ...]
    timestamps: tuple[int, ...]


def group_and_slice(
    records: Iterable[TrainingRecord], group_size: int
) -> Iterator[GroupedBatch]:
    """Group records by member and slice into fixed-size padded batches.

    Members appear in first-occurrence order; a member's items keep input
    order. The final partial batch pads with the dummy item id, label 0,
    mask False.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    by_member: dict[tuple[int, int], list[TrainingRecord]] = {}
    for rec in records:
        by_member.setdefault(rec.member, []).append(rec)
    for member, recs in by_member.items():
        for lo in range(0, len(recs), group_size):
            chunk = recs[lo : lo + group_size]
            pad = group_size - len(chunk)
            items = tuple(r.item for r in chunk) + ((chunk[0].item_type, DUMMY_ITEM_ID),) * pad
            labels = tuple(r.label for r in chunk) + (0,) * pad
            mask = (True,) * len(chunk) + (False,) * pad
            stamps = tuple(r.timestamp for r in chunk) + (0,) * pad
            yield GroupedBatch(member, items, labels, mask, stamps)


class QueryCounts(NamedTuple):
    before_member: int
    before_item: int
    after_member: int
    after_item: int

    @property
    def before_total(self) -> int:
        return self.before_member + self.before_item

    @property
    def after_total(self) -> int:
        return self.after_member + self.after_item

    @property
    def reduction(self) -> float:
        return self.before_total / max(1, self.after_total)


def engine_query_count(records: Sequence[TrainingRecord], group_size: int) -> QueryCounts:
    """Closed-form graph-engine query counts before/after grouping.

    Ungrouped training queries member and item once per pair. Grouped
    training queries each member once per batch (ceil(count/group_size))
    and each item once.
    """
    counts: dict[tuple[int, int], int] = {}
    for rec in records:
        counts[rec.member] = counts.get(rec.member, 0) + 1
    n = len(records)
    after_member = sum(-(-c // group_size) for c in counts.values())
    return QueryCounts(n, n, after_member, n)


# -- adaptive neighbor sampling ---------------------------------------------------


@dataclass(frozen=True)
class AdaptiveState:
    """Controller state for the neighbor-count schedule.

    The count grows by ``stride`` when the metric stalls (fails to improve
    by more than the current tolerance) or on every ``min_update_freq``-th
    epoch, capped at ``final_count``; the tolerance decays every epoch.
    """

    current_count: int = 2
    final_count: int = 200
    tolerance: float = 1e-3
    tolerance_decay: float = 0.95
    stride: int = 20
    min_update_freq: int = 5
    last_metric: float = 0.0
    epoch: int = 0

    def validate(self) -> None:
        if not (1 <= self.current_count <= self.final_count):
            raise ValueError("need 1 <= current_count <= final_count")
        if self.tolerance < 0 or self.stride < 1 or self.min_update_freq < 1:
            raise ValueError("bad adaptive parameters")


def adaptive_step(state: AdaptiveState, current_metric: float) -> AdaptiveState:
    """One epoch of the schedule; returns the next state."""
    if not np.isfinite(current_metric):
        raise ValueError("metric must be finite")
    state.validate()
    epoch = state.epoch + 1
    count = state.current_count
    if current_metric <= state.last_metric + state.tolerance or epoch % state.min_update_freq == 0:
        count = min(count + state.stride, state.final_count)
    return replace(
        state,
        current_count=count,
        last_metric=current_metric,
        tolerance=state.tolerance * state.tolerance_decay,
        epoch=epoch,
    )


# -- grouped training step ---------------------------------------------------------


SampleFn = Callable[[NodeRef, str], Sequence[Sequence[NodeRef]]]  # (node, role)
ActivityFn = Callable[[NodeRef, int], tuple[list[NodeRef], list[float]]]


def grouped_step(
    model: LinkPredictionModel,
    batch: GroupedBatch,
    gradient_step: int,
    lr: float,
    sample_fn: SampleFn,
    activity_fn: ActivityFn | None = None,
    aux_sums: dict[str, int] | None = None,
) -> list[float]:
    """Train on one grouped batch with the configured number of updates.

    The member compute graph is fetched once for the whole batch; items are
    fetched once each. Items are then split into ``gradient_step`` contiguous
    slices of group_size / gradient_step and each slice does forward, masked
    loss, backward, update. gradient_step=1 is one averaged update;
    gradient_step=group_size is per-pair updates. With ``activity_fn`` the
    member's activity sequence is cut at the slice's earliest real timestamp
    (no future leakage into the sequence). Each update adds its forward's
    ``aux`` counts into ``aux_sums``, for the keys it holds. Under the
    in-batch decoder a slice with one real pair has no negative and is
    skipped, counted in ``aux_sums["inbatch_skips"]``.
    """
    group_size = len(batch.items)
    if gradient_step < 1 or group_size % gradient_step != 0:
        raise ValueError("gradient_step must divide group_size")
    slice_size = group_size // gradient_step

    graph = model.graph
    member_ref = graph.resolve(batch.member)
    member_hops = sample_fn(member_ref, "member")
    item_refs: list[NodeRef | None] = []
    item_hops: dict[int, Sequence[Sequence[NodeRef]]] = {}
    for j, (item, real) in enumerate(zip(batch.items, batch.mask)):
        if not real:
            item_refs.append(None)
            continue
        ref = graph.resolve(item)
        item_refs.append(ref)
        item_hops[j] = sample_fn(ref, "item")

    filler = next((r for r in item_refs if r is not None), member_ref)
    in_batch = model.config.decoder.kind == "in_batch_negative"
    losses = []
    for i in range(gradient_step):
        sl = slice(i * slice_size, (i + 1) * slice_size)
        mask = np.array(batch.mask[sl], dtype=bool)
        if not mask.any():
            continue  # all-padded slice: nothing to learn from
        if in_batch and mask.sum() == 1:
            if aux_sums is not None:
                aux_sums["inbatch_skips"] = aux_sums.get("inbatch_skips", 0) + 1
            continue
        refs = [r if r is not None else filler for r in item_refs[sl]]
        hops = [item_hops.get(i * slice_size + j, []) for j in range(slice_size)]
        pair = PairBatch(
            src_refs=[member_ref],
            dst_refs=refs,
            labels=np.array(batch.labels[sl], dtype=np.float64),
            mask=mask,
            src_hops=[member_hops],
            dst_hops=hops,
            src_slot=np.zeros(slice_size, dtype=np.int64),
        )
        if activity_fn is not None:
            cut_ts = min(t for t, m in zip(batch.timestamps[sl], mask) if m)
            act_refs, act_ages = activity_fn(member_ref, cut_ts)
            pair.activity_refs = [act_refs]
            pair.activity_ages = [act_ages]
        loss, aux = model.step(pair, lr)
        losses.append(loss)
        for key in aux_sums or ():
            aux_sums[key] += aux.get(key, 0)
    return losses


# -- MLP-init -----------------------------------------------------------------------


def mlp_init(
    records: Sequence[TrainingRecord],
    graph: HeteroGraph,
    config: ModelConfig,
    epochs: int = 3,
    lr: float = 0.1,
    batch_size: int = 64,
) -> ParamStore:
    """Two-tower feature-only pretraining of the projection layers.

    Trains a zero-hop link predictor (no graph queries at all) and seeds a
    full parameter store with the learned projections; everything else keeps
    its fresh initialization.
    """
    zero_cfg = replace(
        config.with_graph(graph), hops=0, temporal=None, id_embeddings=False
    )
    pre = LinkPredictionModel(graph, zero_cfg)
    if epochs > 0:
        for _ in range(epochs):
            for lo in range(0, len(records), batch_size):
                chunk = records[lo : lo + batch_size]
                if len(chunk) < 2:
                    continue
                batch = PairBatch(
                    src_refs=[graph.resolve(r.member) for r in chunk],
                    dst_refs=[graph.resolve(r.item) for r in chunk],
                    labels=np.array([r.label for r in chunk], dtype=np.float64),
                    mask=np.ones(len(chunk), dtype=bool),
                    src_hops=[[] for _ in chunk],
                    dst_hops=[[] for _ in chunk],
                )
                pre.step(batch, lr)
    full = init_params(config.with_graph(graph))
    for name in pre.store.names():
        if "/proj/" in name:
            full[name] = pre.store[name].copy()
    return full
