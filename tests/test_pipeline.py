"""Grouping & slicing, adaptive schedule, MLP-init, gradient aggregation, AUC."""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lignn import samplers, training
from lignn.model import (
    DecoderKind,
    LinkPredictionModel,
    ModelConfig,
    PairBatch,
    TemporalConfig,
    build_encode_batch,
    sage_encode,
)
from lignn.pipeline import (
    DUMMY_ITEM_ID,
    AdaptiveState,
    GroupedBatch,
    TrainingRecord,
    adaptive_step,
    engine_query_count,
    group_and_slice,
    grouped_step,
    mlp_init,
    parse_records,
)
from lignn.training import GraphSampler, Trainer, TrainSettings, binary_auc

from conftest import build, edge_row, node_row
from oracles import local_gradient_aggregate


def rec(member_id, item_id, label=1, ts=0) -> TrainingRecord:
    return TrainingRecord(0, member_id, 1, item_id, label, ts)


class TestGroupAndSlice:
    def test_ten_interactions_two_batches(self):
        records = [rec(1, 100 + i) for i in range(10)]
        batches = list(group_and_slice(records, 5))
        assert len(batches) == 2
        assert all(sum(b.mask) == 5 for b in batches)

    def test_three_interactions_padded(self):
        records = [rec(1, 100 + i) for i in range(3)]
        [batch] = list(group_and_slice(records, 5))
        assert batch.mask == (True, True, True, False, False)
        assert batch.items[3][1] == DUMMY_ITEM_ID
        assert batch.labels[3:] == (0, 0)

    def test_order_within_member_preserved(self):
        records = [rec(1, 100), rec(2, 555), rec(1, 101), rec(1, 102)]
        batches = list(group_and_slice(records, 2))
        member1 = [b for b in batches if b.member == (0, 1)]
        flat = [item[1] for b in member1 for item, m in zip(b.items, b.mask) if m]
        assert flat == [100, 101, 102]

    def test_flatten_reproduces_input_multiset(self):
        rng = np.random.default_rng(3)
        records = [
            rec(int(rng.integers(0, 40)), int(rng.integers(100, 160)), int(rng.integers(0, 2)))
            for _ in range(1000)
        ]
        batches = list(group_and_slice(records, 4))
        flat = []
        for b in batches:
            for item, label, m in zip(b.items, b.labels, b.mask):
                if m:
                    flat.append((b.member, item, label))
        expected = sorted((r.member, r.item, r.label) for r in records)
        assert sorted(flat) == expected

    @given(st.integers(1, 7), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30)), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_multiset_identity_property(self, group_size, raw):
        records = [rec(m, 100 + i) for m, i in raw]
        batches = list(group_and_slice(records, group_size))
        flat = sorted(
            (b.member, item) for b in batches
            for item, m in zip(b.items, b.mask) if m
        )
        assert flat == sorted((r.member, r.item) for r in records)
        for b in batches:
            assert any(b.mask)  # at least one real slot

    def test_parse_records(self):
        lines = ["# header\n", "0\t7\t1\t42\t1\t1234\n"]
        [r] = parse_records(lines)
        assert r == TrainingRecord(0, 7, 1, 42, 1, 1234)


class TestQueryCounts:
    def test_paper_example_ten_to_two(self):
        records = [rec(1, 100 + i) for i in range(10)]
        counts = engine_query_count(records, 5)
        assert counts.before_member == 10
        assert counts.after_member == 2

    def test_group_size_one_no_reduction(self):
        records = [rec(i % 3, 100 + i) for i in range(12)]
        counts = engine_query_count(records, 1)
        assert counts.after_member == counts.before_member
        assert counts.after_total == counts.before_total

    def test_items_counted_once_each(self):
        records = [rec(1, 100 + i) for i in range(7)]
        counts = engine_query_count(records, 4)
        assert counts.after_item == 7
        assert counts.after_member == 2  # ceil(7/4)


class TestAdaptive:
    def base(self) -> AdaptiveState:
        return AdaptiveState(
            current_count=2, final_count=200, tolerance=1e-3,
            tolerance_decay=0.95, stride=20, min_update_freq=5,
            last_metric=0.5, epoch=0,
        )

    def test_improving_metric_holds_count(self):
        state = adaptive_step(self.base(), 0.6)  # improves well beyond tolerance
        assert state.current_count == 2
        assert state.last_metric == 0.6
        assert state.epoch == 1

    def test_stalled_metric_adds_stride(self):
        state = adaptive_step(self.base(), 0.5001)  # within tolerance: stalled
        assert state.current_count == 22

    def test_forced_update_at_min_freq(self):
        state = self.base()
        for auc in (0.6, 0.7, 0.8, 0.9):  # epochs 1-4: improving, hold
            state = adaptive_step(state, auc)
            assert state.current_count == 2
        state = adaptive_step(state, 0.95)  # epoch 5: forced
        assert state.current_count == 22

    def test_capped_at_final(self):
        state = replace(self.base(), current_count=195, final_count=200)
        state = adaptive_step(state, state.last_metric)  # stall
        assert state.current_count == 200
        state = adaptive_step(state, state.last_metric)
        assert state.current_count == 200

    def test_tolerance_decays_every_epoch(self):
        state = adaptive_step(self.base(), 0.9)
        assert state.tolerance == pytest.approx(1e-3 * 0.95)

    def test_monotone_never_decreases(self):
        rng = np.random.default_rng(7)
        state = self.base()
        prev = state.current_count
        for _ in range(30):
            state = adaptive_step(state, float(rng.uniform(0.4, 0.9)))
            assert state.current_count >= prev
            assert state.current_count <= state.final_count
            prev = state.current_count

    def test_nonfinite_metric_rejected(self):
        with pytest.raises(ValueError):
            adaptive_step(self.base(), float("nan"))


def toy_graph(rng, n_members=12, n_items=12):
    rows = []
    for m in range(n_members):
        for j in range(3):
            rows.append(edge_row(0, m, 0, 1, 100 + (m + j) % n_items, 1.0, ts=j + 1))
    nodes = [node_row(0, m, rng.normal(size=4)) for m in range(n_members)]
    nodes += [node_row(1, 100 + i, rng.normal(size=4)) for i in range(n_items)]
    return build(rows, nodes)[0]


class TestGroupedStep:
    def _setup(self):
        rng = np.random.default_rng(11)
        graph = toy_graph(rng)
        cfg = ModelConfig(out_dim=6, hops=1, init_seed=1).with_graph(graph)
        model = LinkPredictionModel(graph, cfg)
        sampler = GraphSampler(graph, "random", rng_seed=0, hops=1)
        return graph, model, sampler

    def test_gradient_step_must_divide(self):
        graph, model, sampler = self._setup()
        batch = GroupedBatch((0, 1), ((1, 100), (1, 101), (1, 102), (1, 103)),
                             (1, 0, 1, 0), (True,) * 4, (0,) * 4)
        with pytest.raises(ValueError):
            grouped_step(model, batch, 3, 0.1, lambda r, role: sampler.fetch(r, 3, role))

    def test_one_update_vs_four_updates(self):
        graph, model, sampler = self._setup()
        batch = GroupedBatch((0, 1), ((1, 100), (1, 101), (1, 102), (1, 103)),
                             (1, 0, 1, 0), (True,) * 4, (0,) * 4)
        losses1 = grouped_step(model, batch, 1, 0.0, lambda r, role: sampler.fetch(r, 3, role))
        losses4 = grouped_step(model, batch, 4, 0.0, lambda r, role: sampler.fetch(r, 3, role))
        assert len(losses1) == 1
        assert len(losses4) == 4

    def test_member_queried_once_per_batch(self):
        graph, model, sampler = self._setup()
        batch = GroupedBatch((0, 1), ((1, 100), (1, 101), (1, 102), (1, 103)),
                             (1, 0, 1, 0), (True,) * 4, (0,) * 4)
        grouped_step(model, batch, 4, 0.0, lambda r, role: sampler.fetch(r, 3, role))
        assert sampler.queries["member"] == 1
        assert sampler.queries["item"] == 4

    def test_masked_loss_equals_unpadded_recomputation(self):
        graph, model, sampler = self._setup()
        padded = GroupedBatch((0, 1), ((1, 100), (1, 101), (1, 0xFFFFFFFFFFFFFFFF), (1, 0xFFFFFFFFFFFFFFFF)),
                              (1, 0, 0, 0), (True, True, False, False), (0,) * 4)
        unpadded = GroupedBatch((0, 1), ((1, 100), (1, 101)), (1, 0), (True, True), (0, 0))
        fetch = lambda r, role: sampler.fetch(r, 3, role)
        [loss_padded] = grouped_step(model, padded, 1, 0.0, fetch)
        [loss_real] = grouped_step(model, unpadded, 1, 0.0, fetch)
        assert loss_padded == pytest.approx(loss_real, abs=1e-12)

    def test_in_batch_decoder_skips_a_slice_with_one_real_pair(self):
        graph, _, sampler = self._setup()
        cfg = ModelConfig(out_dim=6, hops=1, init_seed=1,
                          decoder=DecoderKind("in_batch_negative")).with_graph(graph)
        model = LinkPredictionModel(graph, cfg)
        batch = GroupedBatch((0, 1), ((1, 100), (1, 101), (1, 102), (1, DUMMY_ITEM_ID)),
                             (1, 0, 1, 0), (True, True, True, False), (0,) * 4)
        sums = {"orphans": 0, "missing_features": 0, "inbatch_skips": 0}
        fetch = lambda r, role: sampler.fetch(r, 3, role)
        assert len(grouped_step(model, batch, 2, 0.1, fetch, aux_sums=sums)) == 1
        assert sums["inbatch_skips"] == 1
        assert len(grouped_step(model, batch, 1, 0.1, fetch, aux_sums=sums)) == 1
        assert sums["inbatch_skips"] == 1


def memo_world(featureless=0):
    """16 members and 12 items with engagements both ways and member
    affinities, so two-hop samples reach past the seed's own view; 60
    records, both labels. The first ``featureless`` members have no stored
    features."""
    rng = np.random.default_rng(23)
    rows = []
    for m in range(16):
        for j in rng.choice(12, size=4, replace=False).tolist():
            rows.append(edge_row(0, m, 0, 1, 100 + j, 1.0, ts=int(rng.integers(1, 50))))
            rows.append(edge_row(1, 100 + j, 0, 0, m, 0.5, ts=int(rng.integers(1, 50))))
        rows.append(edge_row(0, m, 1, 0, (5 * m + 1) % 16, 0.25))
    nodes = [node_row(0, m, rng.normal(size=4)) for m in range(16)][featureless:]
    nodes += [node_row(1, 100 + i, rng.normal(size=4)) for i in range(12)]
    graph, _ = build(rows, nodes)
    records = [rec(int(m), 100 + int(rng.integers(0, 12)), label=int(m) % 2, ts=60)
               for m in rng.integers(0, 16, size=60)]
    return graph, records


class TestSamplerMemo:
    """``GraphSampler`` samples each (node, neighbour count) once per trainer."""

    def _trainer(self, tmp_path, tag, epochs=1, strategy="random", featureless=0, **model):
        graph, records = memo_world(featureless)
        settings = TrainSettings(
            epochs=epochs, lr=0.2, group_size=4, neighbor_count=3, rng_seed=3,
            val_fraction=0.3, metrics_path=str(tmp_path / f"{tag}.jsonl"), strategy=strategy,
        )
        config = ModelConfig(out_dim=6, hops=2, init_seed=1, **model)
        return Trainer(graph, config, settings), records

    def test_one_core_call_per_distinct_node_and_count(self, tmp_path, monkeypatch):
        calls = []
        core = samplers.multihop_sample_core

        def counting_core(provider, seeds, fanouts, *args, **kwargs):
            calls.extend((s.node_type, s.index, fanouts[0]) for s in seeds)
            return core(provider, seeds, fanouts, *args, **kwargs)

        monkeypatch.setattr(samplers, "multihop_sample_core", counting_core)
        trainer, records = self._trainer(tmp_path, "memo")
        trainer.train(records)
        sampler = trainer.sampler
        assert sorted(calls) == sorted(set(calls)) == sorted(sampler._memo)
        # every requested query is still counted, eval included
        assert set(sampler.queries) == {"member", "item", "eval"}
        assert sum(sampler.queries.values()) == len(calls) + sampler.memo_hits
        assert (len(calls), sampler.memo_hits) == (28, 68)
        assert sampler.truncated == 0

    def test_outputs_equal_a_run_without_the_memo(self, tmp_path):
        runs, hits = [], []
        for cleared in (False, True):
            trainer, records = self._trainer(tmp_path, f"cleared{cleared}", epochs=2)
            sampler = trainer.sampler
            if cleared:
                def fetch_cleared(*args, fetch=sampler.fetch, memo=sampler._memo):
                    memo.clear()
                    return fetch(*args)

                sampler.fetch = fetch_cleared
            history = trainer.train(records)
            ckpt = tmp_path / f"cleared{cleared}.ckpt"
            trainer.model.store.save(str(ckpt))
            # the memo's own hit count is the one field that may differ
            lines = [json.loads(line) for line in (tmp_path / f"cleared{cleared}.jsonl").read_text().splitlines()]
            epoch_hits = [line.pop("memo_hits") for line in lines]
            assert epoch_hits == [m.memo_hits for m in history]
            history = [replace(m, memo_hits=0) for m in history]
            runs.append((history, lines, ckpt.read_bytes(), sampler.queries))
            hits.append((sampler.memo_hits, sum(epoch_hits)))
        assert runs[0] == runs[1]
        assert hits[0][0] == hits[0][1] > 0 and hits[1] == (0, 0)

    def test_epoch_metrics_count_the_epoch(self, tmp_path, monkeypatch):
        """Per-epoch memo hits and truncated pushes add up to the sampler's
        totals, and orphans and missing features to the training steps' aux."""
        monkeypatch.setattr(training, "PPRConfig",
                            lambda top_k: samplers.PPRConfig(top_k=top_k, max_pushes=20))
        trainer, records = self._trainer(tmp_path, "epochs", 2, "ppr-push", featureless=3)
        trainer.settings = replace(trainer.settings, neighbor_count=8)  # entries past hop 2: orphans
        sums = {"orphans": 0, "missing_features": 0}
        step = LinkPredictionModel.step

        def counting_step(model, batch, lr):
            loss, aux = step(model, batch, lr)
            for key in sums:
                sums[key] += aux[key]
            return loss, aux

        monkeypatch.setattr(LinkPredictionModel, "step", counting_step)
        history = trainer.train(records)
        sampler = trainer.sampler
        totals = {key: sum(getattr(m, key) for m in history) for key in
                  ("memo_hits", "truncated", "orphans", "missing_features")}
        assert totals == {"memo_hits": sampler.memo_hits, "truncated": sampler.truncated, **sums}
        assert all(totals.values())
        assert all(m.memo_hits for m in history)
        lines = [json.loads(line) for line in (tmp_path / "epochs.jsonl").read_text().splitlines()]
        assert [list(line) for line in lines] == [[
            "epoch", "auc", "neighbor_count", "ge_queries", "train_loss",
            "memo_hits", "truncated", "orphans", "missing_features", "inbatch_skips",
        ]] * 2

    def test_in_batch_decoder_trains_past_single_pair_slices(self, tmp_path):
        trainer, records = self._trainer(tmp_path, "inbatch", 2,
                                         decoder=DecoderKind("in_batch_negative"))
        history = trainer.train(records)
        groups = list(group_and_slice(records, 4))
        assert all(np.isfinite(m.train_loss) for m in history)
        # the validation split leaves members with one record in the epoch
        assert all(m.inbatch_skips > 0 for m in history)
        assert all(m.inbatch_skips <= len(groups) for m in history)

    def test_truncated_counts_each_query_of_a_cut_push(self, monkeypatch):
        graph, _ = memo_world()
        monkeypatch.setattr(training, "PPRConfig",
                            lambda top_k: samplers.PPRConfig(top_k=top_k, max_pushes=2))
        sampler = GraphSampler(graph, "ppr-push", hops=2)
        member = graph.node_ref(0, 3)
        for role in ("member", "eval"):
            sampler.fetch(member, 3, role)
        assert (sampler.truncated, sampler.memo_hits) == (2, 1)

    def test_threads_share_one_sampler(self):
        graph, _ = memo_world()
        refs = [graph.node_ref_by_index(t, i) for t in (0, 1) for i in range(graph.num_nodes(t))]
        serial = GraphSampler(graph, "random", rng_seed=3, hops=2)
        expect = [serial.fetch(ref, 3, "item") for ref in refs]
        shared = GraphSampler(graph, "random", rng_seed=3, hops=2)
        results: list[list] = [[] for _ in range(8)]

        def read(k):
            for i in np.random.default_rng(k).permutation(len(refs)).tolist() * 2:
                results[k].append((i, shared.fetch(refs[i], 3, "item")))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert all(hops == expect[i] for rows in results for i, hops in rows)
        total = 8 * 2 * len(refs)
        assert shared.queries == {"item": total}
        assert shared.neighbors_fetched == 16 * serial.neighbors_fetched
        # racing misses of one key may each sample it; the memo keeps one
        assert len(refs) == len(shared._memo) <= total - shared.memo_hits <= 8 * len(refs)

    def test_shared_hop_lists_are_read_only(self, tmp_path):
        temporal = TemporalConfig(heads=3, token_dim=2, seq_len=4, future_len=1,
                                  dst_neighbor_count=2)
        trainer, records = self._trainer(tmp_path, "read-only", temporal=temporal)
        graph, sampler = trainer.graph, trainer.sampler
        member = graph.node_ref(0, 3)
        hops = sampler.fetch(member, 3, "member")
        assert sampler.fetch(member, 3, "eval") is hops
        assert sampler.fetch(member, 2, "member") != hops
        assert [type(h) for h in (hops, *hops)] == [tuple] * 3
        with pytest.raises(TypeError):
            hops[1][0] = member
        with pytest.raises(AttributeError):
            hops[0].append(member)
        # every consumer takes the shared tuples as they are
        batch = build_encode_batch(graph, [member], [hops], 2)
        assert sum(len(level) for level in batch.level_refs[1:]) + batch.orphan_nodes == 6
        group = GroupedBatch((0, 3), ((1, 100), (1, 101)), (1, 0), (True, True), (60, 60))
        model = LinkPredictionModel(graph, replace(trainer.config, temporal=None))
        fetch = lambda ref, role: sampler.fetch(ref, 3, role)  # noqa: E731
        assert len(grouped_step(model, group, 2, 0.1, fetch)) == 2
        pairs = trainer.eval_batch(records[:5], 3)
        assert pairs.dst_neighbor_refs == [h[0][:2] for h in pairs.dst_hops]
        assert np.all(np.isfinite(trainer.model.pair_scores(pairs)))
        [sample] = samplers.sample_random_multihop(graph, [member], [3, 3], 3)
        embedding = sage_encode(graph, member, sample, trainer.model.store, trainer.config)
        assert np.all(np.isfinite(embedding))


class TestMlpInit:
    def _linearly_separable(self, rng, n=200):
        # feature-aligned members/items: positive pairs share sign
        rows, nodes, records = [], [], []
        for i in range(n):
            sign = 1.0 if i % 2 == 0 else -1.0
            nodes.append(node_row(0, i, sign * np.abs(rng.normal(size=4))))
            nodes.append(node_row(1, 1000 + i, sign * np.abs(rng.normal(size=4))))
            records.append(rec(i, 1000 + i, label=1))
            j = (i + 1) % n  # opposite sign item
            records.append(rec(i, 1000 + j, label=0))
            rows.append(edge_row(0, i, 0, 1, 1000 + i, 1.0))
        graph, _ = build(rows, nodes)
        return graph, records

    def test_zero_epochs_identical_to_fresh_init(self):
        rng = np.random.default_rng(13)
        graph, records = self._linearly_separable(rng)
        cfg = ModelConfig(out_dim=6, hops=1, init_seed=5).with_graph(graph)
        from lignn.model import init_params

        fresh = init_params(cfg)
        seeded = mlp_init(records, graph, cfg, epochs=0)
        assert fresh.names() == seeded.names()
        for name in fresh.names():
            np.testing.assert_array_equal(fresh[name], seeded[name])

    def test_post_init_zero_hop_auc(self):
        rng = np.random.default_rng(17)
        graph, records = self._linearly_separable(rng)
        cfg = ModelConfig(out_dim=6, hops=1, init_seed=5, lr_sensitive=False) if False else ModelConfig(out_dim=6, hops=1, init_seed=5)
        cfg = cfg.with_graph(graph)
        store = mlp_init(records[: len(records) // 2], graph, cfg, epochs=5, lr=0.5)
        zero_cfg = replace(cfg, hops=0, id_embeddings=False)
        model = LinkPredictionModel(graph, zero_cfg, store)
        held_out = records[len(records) // 2 :]
        batch = PairBatch(
            src_refs=[graph.resolve(r.member) for r in held_out],
            dst_refs=[graph.resolve(r.item) for r in held_out],
            labels=np.array([r.label for r in held_out], dtype=np.float64),
            mask=np.ones(len(held_out), dtype=bool),
            src_hops=[[] for _ in held_out],
            dst_hops=[[] for _ in held_out],
        )
        auc = binary_auc(model.pair_scores(batch), np.array([r.label for r in held_out]))
        assert auc > 0.9

    def test_no_sampler_queries(self):
        rng = np.random.default_rng(19)
        graph, records = self._linearly_separable(rng)
        cfg = ModelConfig(out_dim=6, hops=1).with_graph(graph)
        sampler = GraphSampler(graph, "random")
        mlp_init(records, graph, cfg, epochs=2)
        assert sampler.queries == {}  # mlp_init never touches the sampler


class TestLocalGradientAggregate:
    def test_single_identity(self):
        g = {"w": np.array([1.0, 2.0])}
        out = local_gradient_aggregate([g], [7])
        np.testing.assert_array_equal(out["w"], g["w"])

    def test_zero_gradients(self):
        gs = [{"w": np.zeros(3)} for _ in range(4)]
        out = local_gradient_aggregate(gs, [1, 2, 3, 4])
        np.testing.assert_array_equal(out["w"], np.zeros(3))

    def test_shape_mismatch_error(self):
        with pytest.raises(ValueError):
            local_gradient_aggregate(
                [{"w": np.zeros(3)}, {"w": np.zeros(4)}], [1, 1]
            )

    def test_equals_concatenated_batch_gradient_linear_model(self):
        # mean-squared loss of a linear model: grad of concat == weighted mean
        rng = np.random.default_rng(23)
        w = rng.normal(size=4)
        X1, y1 = rng.normal(size=(3, 4)), rng.normal(size=3)
        X2, y2 = rng.normal(size=(5, 4)), rng.normal(size=5)

        def grad(X, y):
            return {"w": 2.0 * X.T @ (X @ w - y) / len(y)}

        agg = local_gradient_aggregate([grad(X1, y1), grad(X2, y2)], [3, 5])
        Xc, yc = np.vstack([X1, X2]), np.concatenate([y1, y2])
        np.testing.assert_allclose(agg["w"], grad(Xc, yc)["w"], atol=1e-12)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_model_micro_batches_equal_concat(self, grouped):
        rng = np.random.default_rng(29)
        graph = toy_graph(rng)
        cfg = ModelConfig(out_dim=6, hops=1, init_seed=2).with_graph(graph)
        model = LinkPredictionModel(graph, cfg)
        sampler = GraphSampler(graph, "random", rng_seed=1, hops=1)

        def batch_for(pairs):
            # grouped: every pair reads the one shared member slot
            members = [graph.resolve(p[0]) for p in pairs[: 1 if grouped else None]]
            return PairBatch(
                src_refs=members,
                dst_refs=[graph.resolve(p[1]) for p in pairs],
                labels=np.array([p[2] for p in pairs], dtype=np.float64),
                mask=np.ones(len(pairs), dtype=bool),
                src_hops=[sampler.fetch(m, 3, "member") for m in members],
                dst_hops=[sampler.fetch(graph.resolve(p[1]), 3, "item") for p in pairs],
                src_slot=np.zeros(len(pairs), dtype=np.int64) if grouped else None,
            )

        pairs = [((0, 0 if grouped else m), (1, 100 + m), m % 2) for m in range(6)]
        b1, b2 = batch_for(pairs[:2]), batch_for(pairs[2:])
        _, g1, _ = model.loss_and_grads(b1)
        _, g2, _ = model.loss_and_grads(b2)
        agg = local_gradient_aggregate([g1, g2], [2, 4])
        _, gc, _ = model.loss_and_grads(batch_for(pairs))
        for name in agg:
            np.testing.assert_allclose(agg[name], gc[name], rtol=1e-10, atol=1e-12)


class TestBinaryAuc:
    def test_perfect_separation(self):
        assert binary_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_random_is_half_with_ties(self):
        assert binary_auc(np.ones(10), np.array([1] * 5 + [0] * 5)) == pytest.approx(0.5)

    def test_matches_sklearn_formula_small_case(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        # hand-computed: pairs (pos,neg): (0.35>0.1)=1, (0.35>0.4)=0, (0.8>both)=2 -> 3/4
        assert binary_auc(scores, labels) == pytest.approx(0.75)
