"""Full link-prediction model: twin towers, decoders, temporal head.

Forward passes are pure functions of (params, batch): all sampling happens
when the batch is built, so losses are deterministic and finite-difference
checkable. Backward runs on the autograd tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graph import HeteroGraph, NodeRef
from . import autograd as ag
from .encoder import EncodeBatch, SageEncoder, build_encode_batch
from .params import ModelConfig, ParamStore, init_params
from .temporal import build_prefix_causal_mask, sinusoidal_positions, timestamp_positions


@dataclass
class PairBatch:
    """One training/eval batch of (src, dst, label) pairs.

    ``src_refs`` (and the per-src fields) hold unique source slots; pair i
    reads its source embedding from slot ``src_slot[i]`` (identity when
    omitted), so a grouped member is encoded once however many items share
    it. ``mask`` marks real pairs; padded slots never contribute to losses.
    Temporal fields are per-src activity sequences (chronological) and,
    optionally, per-dst sampled neighbors.
    """

    src_refs: list[NodeRef]
    dst_refs: list[NodeRef]
    labels: np.ndarray
    mask: np.ndarray
    src_hops: list[Sequence[Sequence[NodeRef]]]
    dst_hops: list[Sequence[Sequence[NodeRef]]]
    src_slot: np.ndarray | None = None
    activity_refs: list[list[NodeRef]] = field(default_factory=list)
    activity_ages: list[list[float]] = field(default_factory=list)
    dst_neighbor_refs: list[Sequence[NodeRef]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.dst_refs)

    def slots(self) -> np.ndarray:
        if self.src_slot is None:
            return np.arange(len(self.dst_refs), dtype=np.int64)
        return np.asarray(self.src_slot, dtype=np.int64)


class ForwardResult:
    def __init__(self, loss: ag.Tensor, scores: np.ndarray, aux: dict):
        self.loss = loss
        self.scores = scores
        self.aux = aux


class LinkPredictionModel:
    def __init__(self, graph: HeteroGraph, config: ModelConfig, store: ParamStore | None = None):
        if not config.feature_dims:
            config = config.with_graph(graph)
        config.validate()
        self.graph = graph
        self.config = config
        self.store = store if store is not None else init_params(config)
        self.encoder = SageEncoder(graph, config)

    # -- helpers ------------------------------------------------------------

    def _taped(self, trainable: bool) -> dict[str, ag.Tensor]:
        wrap = ag.parameter if trainable else ag.constant
        return {name: wrap(arr) for name, arr in self.store.items()}

    def _padded_token_block(
        self,
        taped: dict[str, ag.Tensor],
        side: str,
        per_row_refs: list[list[NodeRef]],
        width: int,
        left_pad: bool,
    ) -> tuple[ag.Tensor, np.ndarray]:
        """(B, width, d) tokens from ragged per-row ref lists plus real-mask.

        Rows are projected once by the encoder's projection, without id
        embeddings and with missing features left uncounted, then scattered
        into padded slots through a gather against an appended zero row
        (differentiable).
        """
        b = len(per_row_refs)
        flat: list[NodeRef] = []
        index = np.zeros((b, width), dtype=np.int64)
        real = np.zeros((b, width), dtype=bool)
        for i, refs in enumerate(per_row_refs):
            refs = refs[-width:] if left_pad else refs[:width]
            offset = width - len(refs) if left_pad else 0
            for j, ref in enumerate(refs):
                index[i, offset + j] = len(flat)
                real[i, offset + j] = True
                flat.append(ref)
        d = self.config.projection_dim
        if flat:
            proj, _ = self.encoder.project(taped, side, flat, with_ids=False)
            padded_src = ag.concat([proj, ag.constant(np.zeros((1, d)))], axis=0)
        else:
            padded_src = ag.constant(np.zeros((1, d)))
        index[~real] = len(flat)  # zero row
        block = ag.gather_rows(padded_src, index.reshape(-1))
        return ag.reshape(block, (b, width, d)), real

    # -- towers ---------------------------------------------------------------

    def _encode_tower(
        self,
        taped: dict[str, ag.Tensor],
        position: str,
        refs: Sequence[NodeRef],
        hops: Sequence[Sequence[Sequence[NodeRef]]],
    ) -> tuple[ag.Tensor, EncodeBatch]:
        batch = build_encode_batch(self.graph, list(refs), hops, self.config.hops)
        emb = self.encoder.encode(taped, self.config.side_for(position), batch)
        return emb, batch

    def _temporal_member(
        self,
        taped: dict[str, ag.Tensor],
        sage_out: ag.Tensor,
        batch: PairBatch,
        slot_real: np.ndarray,
    ) -> tuple[ag.Tensor, ag.Tensor, np.ndarray]:
        """Temporal head over source slots: (member_emb (S,d), lt_loss, real)."""
        cfg = self.config.temporal
        assert cfg is not None
        b = len(batch.src_refs)
        h, d, n = cfg.heads, cfg.token_dim, cfg.seq_len
        side = self.config.side_for("src")

        head_tokens = ag.reshape(sage_out, (b, h, d))
        act_block, act_real = self._padded_token_block(
            taped, side, batch.activity_refs, n, left_pad=True
        )
        # positions are additive signal only; long-term targets use the raw tokens
        lt_targets = act_block

        positions = np.zeros((b, n, d))
        if cfg.positional_mode == "sinusoidal":
            positions[:] = sinusoidal_positions(n, d)
        elif cfg.positional_mode == "timestamp":
            for i, ages in enumerate(batch.activity_ages):
                ages = ages[-n:]
                if ages:
                    positions[i, n - len(ages):] = timestamp_positions(ages, d)
        act_block = ag.add(act_block, ag.constant(positions))

        seq_parts = [head_tokens, act_block]
        extra = cfg.dst_neighbor_count
        extra_real = np.zeros((b, 0), dtype=bool)
        if extra > 0:
            dstn_block, extra_real = self._padded_token_block(
                taped, side, batch.dst_neighbor_refs, extra, left_pad=False
            )
            seq_parts.append(dstn_block)
        tokens = ag.concat(seq_parts, axis=1)

        t_total = h + n + extra
        base_mask = build_prefix_causal_mask(h, n + extra, cfg.mask_mode)
        mask = np.broadcast_to(base_mask, (b, t_total, t_total)).copy()
        pad_cols = np.concatenate(
            [np.zeros((b, h), dtype=bool), ~act_real, ~extra_real], axis=1
        )
        mask &= ~pad_cols[:, None, :]

        q = ag.matmul(tokens, taped[f"{side}/tformer/Wq"])
        k = ag.matmul(tokens, taped[f"{side}/tformer/Wk"])
        v = ag.matmul(tokens, taped[f"{side}/tformer/Wv"])
        scores = ag.div(
            ag.matmul(q, ag.swapaxes(k, 1, 2)), ag.constant(np.sqrt(d))
        )
        att = ag.masked_softmax(scores, mask)
        out = ag.matmul(att, v)

        member_emb = ag.tmean(out[:, :h, :], axis=1)

        # long-term loss: output at the last history slot predicts each
        # future activity's pre-attention embedding (cosine form)
        n1, n2 = cfg.history_len, cfg.future_len
        if n2 == 0 or cfg.long_term_weight == 0.0:
            return member_emb, ag.constant(0.0), act_real
        pred = out[:, h + n1 - 1, :]  # (S, d)
        targets = lt_targets[:, n1:, :]  # (S, N2, d)
        pair_mask = (
            act_real[:, n1:] & act_real[:, n1 - 1 : n1] & slot_real[:, None]
        ).astype(np.float64)
        # keep padded-target norms away from zero; they are masked out anyway
        guard = np.zeros((b, n2, d))
        guard[:, :, 0] = 1.0 - pair_mask
        safe_targets = ag.add(targets, ag.constant(guard))
        dots = ag.tsum(ag.mul(ag.reshape(pred, (b, 1, d)), safe_targets), axis=2)
        pred_norm = ag.sqrt(ag.tsum(ag.mul(pred, pred), axis=1, keepdims=True))
        tgt_norm = ag.sqrt(ag.tsum(ag.mul(safe_targets, safe_targets), axis=2))
        cos = ag.div(dots, ag.mul(pred_norm, tgt_norm))
        one_minus = ag.sub(ag.constant(1.0), cos)
        denom = max(1.0, float(pair_mask.sum()))
        lt = ag.div(ag.tsum(ag.mul(one_minus, ag.constant(pair_mask))), ag.constant(denom))
        return member_emb, lt, act_real

    # -- decoders ---------------------------------------------------------------

    def _pair_scores(
        self, taped: dict[str, ag.Tensor], src: ag.Tensor, dst: ag.Tensor
    ) -> ag.Tensor:
        """Per-pair decoder score column (B, 1)."""
        kind = self.config.decoder.kind
        if kind == "mlp":
            parts = [src, dst]
            i = 0
            while f"dec/mlp/{i}/W" in self.store:
                w, b = taped[f"dec/mlp/{i}/W"], taped[f"dec/mlp/{i}/b"]
                parts = [ag.concat_affine_tanh(parts, w, b)]
                i += 1
            x = parts[0] if len(parts) == 1 else ag.concat(parts, axis=1)
            return ag.add(ag.matmul(x, taped["dec/mlp/out/W"]), taped["dec/mlp/out/b"])
        if kind == "in_batch_negative":
            dots = ag.tsum(ag.mul(src, dst), axis=1, keepdims=True)
            return ag.div(dots, ag.constant(self.config.decoder.temperature))
        # cosine
        dots = ag.tsum(ag.mul(src, dst), axis=1, keepdims=True)
        nu = ag.sqrt(ag.tsum(ag.mul(src, src), axis=1, keepdims=True))
        nv = ag.sqrt(ag.tsum(ag.mul(dst, dst), axis=1, keepdims=True))
        return ag.div(dots, ag.mul(nu, nv))

    def _decoder_loss(
        self,
        taped: dict[str, ag.Tensor],
        src: ag.Tensor,
        dst: ag.Tensor,
        batch: PairBatch,
    ) -> tuple[ag.Tensor, ag.Tensor]:
        """(loss scalar, per-pair scores (B,1))."""
        mask = batch.mask.astype(np.float64).reshape(-1, 1)
        labels = batch.labels.astype(np.float64).reshape(-1, 1)
        scores = self._pair_scores(taped, src, dst)
        if self.config.decoder.kind == "in_batch_negative":
            real = np.flatnonzero(batch.mask)
            if len(real) < 2:
                raise ValueError("in-batch negatives need >= 2 real pairs")
            s = ag.gather_rows(src, real)
            t = ag.gather_rows(dst, real)
            logits = ag.div(
                ag.matmul(s, ag.swapaxes(t, 0, 1)),
                ag.constant(self.config.decoder.temperature),
            )
            logp = ag.log_softmax(logits)
            eye = np.eye(len(real))
            loss = ag.neg(ag.div(ag.tsum(ag.mul(logp, ag.constant(eye))), ag.constant(float(len(real)))))
            return loss, scores
        # bce over masked pairs: softplus(s) - y*s
        per_pair = ag.sub(ag.softplus(scores), ag.mul(ag.constant(labels), scores))
        denom = max(1.0, float(batch.mask.sum()))
        loss = ag.div(ag.tsum(ag.mul(per_pair, ag.constant(mask))), ag.constant(denom))
        return loss, scores

    # -- public api ---------------------------------------------------------------

    def forward(self, batch: PairBatch, trainable: bool = False) -> ForwardResult:
        taped = self._taped(trainable)
        result = self._forward_taped(taped, batch)
        return result

    def _forward_taped(self, taped: dict[str, ag.Tensor], batch: PairBatch) -> ForwardResult:
        slots = batch.slots()
        if len(batch.src_refs) != len(batch.dst_refs) and batch.src_slot is None:
            raise ValueError("src/dst length mismatch without src_slot mapping")
        src_emb, src_b = self._encode_tower(taped, "src", batch.src_refs, batch.src_hops)
        dst_emb, dst_b = self._encode_tower(taped, "dst", batch.dst_refs, batch.dst_hops)
        aux: dict = {
            "missing_features": src_b.missing_features + dst_b.missing_features,
            "orphans": src_b.orphan_nodes + dst_b.orphan_nodes,
        }
        # a slot is live when at least one real pair reads it
        slot_real = np.zeros(len(batch.src_refs), dtype=bool)
        slot_real[slots[batch.mask]] = True
        if self.config.temporal is not None:
            cfg = self.config.temporal
            identity_slots = np.array_equal(slots, np.arange(len(batch)))
            if cfg.dst_neighbor_count > 0 and not identity_slots:
                raise ValueError("dst-neighbor tokens require ungrouped (identity-slot) batches")
            member_emb, lt_loss, act_real = self._temporal_member(
                taped, src_emb, batch, slot_real
            )
            member_pair = ag.gather_rows(member_emb, slots)
            item_tokens = ag.reshape(dst_emb, (len(batch), cfg.heads, cfg.token_dim))
            item_emb = ag.tmean(item_tokens, axis=1)
            main_loss, scores = self._decoder_loss(taped, member_pair, item_emb, batch)
            loss = ag.add(main_loss, ag.mul(ag.constant(cfg.long_term_weight), lt_loss))
            aux["long_term_loss"] = float(lt_loss.data)
        else:
            src_pair = ag.gather_rows(src_emb, slots)
            loss, scores = self._decoder_loss(taped, src_pair, dst_emb, batch)
        return ForwardResult(loss, scores.data.reshape(-1).copy(), aux)

    def loss_and_grads(self, batch: PairBatch) -> tuple[float, dict[str, np.ndarray], ForwardResult]:
        taped = self._taped(trainable=True)
        result = self._forward_taped(taped, batch)
        result.loss.backward()
        grads = {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in taped.items()
        }
        return float(result.loss.data), grads, result

    def step(self, batch: PairBatch, lr: float) -> tuple[float, dict]:
        """One SGD update; returns the loss and the forward's ``aux``."""
        loss, grads, result = self.loss_and_grads(batch)
        self.store.sgd_step(grads, lr)
        return loss, result.aux

    def pair_scores(self, batch: PairBatch) -> np.ndarray:
        return self.forward(batch).scores
