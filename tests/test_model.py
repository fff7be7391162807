"""Model: the oracles, the taped encoder, decoders and temporal head checked
against them, checkpoint, gradient smoke checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lignn.model import (
    DecoderKind,
    LinkPredictionModel,
    ModelConfig,
    PairBatch,
    ParamStore,
    TemporalConfig,
    build_encode_batch,
    hops_from_samples,
    init_params,
    sage_encode,
)
from lignn.model import autograd as ag
from lignn.samplers import sample_random_multihop
from lignn.training import GraphSampler

from conftest import build, edge_row, node_row, random_weighted_digraph
from fdcheck import central_diff, max_relative_error
from oracles import (
    AttentionParams,
    encode_links,
    assemble_temporal_sequence,
    attention_aggregate,
    bce_loss,
    decode_cosine,
    decode_in_batch_negatives,
    long_term_target_pairs,
    masked_attention_forward,
    mean_aggregate,
)


class TestMeanAggregate:
    def test_two_unit_vectors(self):
        out, empty = mean_aggregate([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(out, [0.5, 0.5])
        assert not empty

    def test_single_neighbor_identity(self):
        v = np.array([0.3, -0.7, 2.0])
        out, _ = mean_aggregate([v])
        np.testing.assert_allclose(out, v)

    def test_empty_flagged(self):
        _, empty = mean_aggregate([])
        assert empty

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(5)
        vecs = [rng.normal(size=6) * 10.0 ** rng.integers(-3, 4) for _ in range(10)]
        out, _ = mean_aggregate(vecs)
        oracle = np.array([math.fsum(v[j] for v in vecs) / len(vecs) for j in range(6)])
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_weighted_mean(self):
        out, _ = mean_aggregate([np.array([1.0, 0.0]), np.array([0.0, 1.0])], weights=[3.0, 1.0])
        np.testing.assert_allclose(out, [0.75, 0.25])


class TestAttentionAggregate:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.wq = rng.normal(size=(4, 3))
        self.wk = rng.normal(size=(4, 3))

    def test_identical_neighbors_pass_through(self):
        v = np.array([0.2, -0.4, 0.6, 0.1])
        center = np.array([1.0, 0.0, 0.0, 0.0])
        out, _ = attention_aggregate(center, [v, v, v], self.wq, self.wk)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_single_neighbor(self):
        v = np.array([0.5, 0.5, -0.5, 0.0])
        out, _ = attention_aggregate(np.ones(4), [v], self.wq, self.wk)
        np.testing.assert_allclose(out, v)

    def test_empty_returns_center_flagged(self):
        center = np.array([1.0, 2.0, 3.0, 4.0])
        out, empty = attention_aggregate(center, [], self.wq, self.wk)
        assert empty
        np.testing.assert_allclose(out, center)

    def test_matches_independent_softmax_oracle(self):
        rng = np.random.default_rng(11)
        center = rng.normal(size=4)
        neighbors = [rng.normal(size=4) for _ in range(5)]
        out, _ = attention_aggregate(center, neighbors, self.wq, self.wk)
        # independently coded softmax-weighted sum
        q = center @ self.wq
        raw = [float((n @ self.wk) @ q) / math.sqrt(3) for n in neighbors]
        exps = [math.exp(r) for r in raw]
        z = sum(exps)
        oracle = sum((e / z) * n for e, n in zip(exps, neighbors))
        np.testing.assert_allclose(out, oracle, atol=1e-10)

    def test_self_attention_includes_center(self):
        center = np.array([1.0, 0.0, 0.0, 0.0])
        out, _ = attention_aggregate(center, [], self.wq, self.wk, include_center=True)
        np.testing.assert_allclose(out, center)


def star_graph_with_features(n_leaves, rng, leaf_features=None):
    rows = [edge_row(0, 0, 0, 1, i + 1, 1.0) for i in range(n_leaves)]
    nodes = [node_row(0, 0, rng.normal(size=4))]
    for i in range(n_leaves):
        f = leaf_features if leaf_features is not None else rng.normal(size=4)
        nodes.append(node_row(1, i + 1, f))
    graph, _ = build(rows, nodes)
    return graph


def config_for(graph, **kw) -> ModelConfig:
    base = ModelConfig(out_dim=6, hops=1, attention_dim=4, init_seed=3, **kw)
    return base.with_graph(graph)


class TestSageEncode:
    def test_zero_hops_is_projection_only(self):
        rng = np.random.default_rng(13)
        graph = star_graph_with_features(3, rng)
        from dataclasses import replace

        cfg = replace(config_for(graph), hops=0)
        store = init_params(cfg)
        ref = graph.node_ref(0, 0)
        out = sage_encode(graph, ref, [], store, cfg)
        expected = graph.features_of(ref) @ store["enc/proj/0/W"] + store["enc/proj/0/b"][0]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        graph = star_graph_with_features(5, rng)
        cfg = config_for(graph)
        store = init_params(cfg)
        samples = sample_random_multihop(graph, [(0, 0)], [5], rng_seed=1)[0]
        out1 = sage_encode(graph, (0, 0), samples, store, cfg)
        # permute the hop entries
        from lignn.samplers import NeighborSample

        perm = NeighborSample(
            samples[0].seed, tuple(reversed(samples[0].entries)), samples[0].strategy
        )
        out2 = sage_encode(graph, (0, 0), [perm], store, cfg)
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    @pytest.mark.parametrize("aggregator", ["mean", "attention", "self_attention"])
    def test_matches_naive_recursion(self, aggregator):
        rng = np.random.default_rng(19)
        # two-level chain: 0 -> {1, 2, 5} -> ...; 5 has an empty neighborhood
        rows = [
            edge_row(0, 0, 0, 0, 1, 1.0),
            edge_row(0, 0, 0, 0, 2, 1.0),
            edge_row(0, 0, 0, 0, 5, 1.0),
            edge_row(0, 1, 0, 0, 3, 1.0),
            edge_row(0, 2, 0, 0, 3, 1.0),
            edge_row(0, 2, 0, 0, 4, 1.0),
        ]
        nodes = [node_row(0, i, rng.normal(size=4)) for i in range(6)]
        graph, _ = build(rows, nodes)
        from dataclasses import replace

        cfg = replace(config_for(graph), hops=2, aggregator=aggregator)
        store = init_params(cfg)
        samples = sample_random_multihop(graph, [(0, 0)], [3, 3], rng_seed=5)[0]
        assert [len(s.entries) for s in samples] == [3, 2]
        out = sage_encode(graph, (0, 0), samples, store, cfg)

        # independent naive recursion
        hop_sets = [
            [e.node for e in samples[0].entries],
            [e.node for e in samples[1].entries],
        ]

        def proj(ref):
            return graph.features_of(ref) @ store["enc/proj/0/W"] + store["enc/proj/0/b"][0]

        def children_of(ref, next_hop):
            outs = {r.ext() for r in graph.merged_neighbors(ref)[0]}
            return [c for c in next_hop if c.ext() in outs]

        def encode(ref, depth, layer):
            if layer == 0:
                return proj(ref)
            kids = children_of(ref, hop_sets[depth]) if depth < 2 else []
            h_self = encode(ref, depth, layer - 1)
            neighbors = [encode(c, depth + 1, layer - 1) for c in kids]
            if aggregator == "mean":
                agg, empty = mean_aggregate(neighbors)
                if empty:
                    agg = np.zeros_like(h_self)
            else:
                agg, _ = attention_aggregate(
                    h_self, neighbors, store[f"enc/att/{layer}/Wq"],
                    store[f"enc/att/{layer}/Wk"], include_center=aggregator == "self_attention",
                )
            w = store[f"enc/combine/{layer}/W"]
            b = store[f"enc/combine/{layer}/b"][0]
            return np.tanh(np.concatenate([h_self, agg]) @ w + b)

        oracle = encode(graph.node_ref(0, 0), 0, 2)
        np.testing.assert_allclose(out, oracle, rtol=1e-10, atol=1e-10)


def mixed_type_graph(rng):
    """Type-0 nodes with engagement, affinity and attribute edges."""
    rows = random_weighted_digraph(rng, 30, 2.0)
    rows += [edge_row(0, i, 1, 0, (i * 7 + 3) % 30, 0.4) for i in range(0, 30, 2)]
    rows += [edge_row(0, i, 2, 1, 900 + i % 4, 1.0) for i in range(0, 30, 3)]
    graph, _ = build(rows)
    return graph


class TestLevelOneLinks:
    """Level-1 nodes hang under their seed without an adjacency check."""

    def _assert_level_one_in_seed_view(self, graph, seed, hops):
        view = {r.ext() for r in graph.merged_neighbors(seed)[0]}
        assert {r.ext() for r in (hops[0] if hops else [])} <= view
        return len(hops[0]) if hops else 0

    @pytest.mark.parametrize("strategy,n_hops", [
        ("random", 1), ("random", 2), ("weighted", 2), ("ppr-push", 2), ("ppr-2hop", 2),
    ])
    def test_sampled_level_one_is_in_seed_view(self, strategy, n_hops):
        graph = mixed_type_graph(np.random.default_rng(4))
        sampler = GraphSampler(graph, strategy, rng_seed=5, hops=n_hops)
        placed = 0
        for i in range(graph.num_nodes(0)):
            seed = graph.node_ref_by_index(0, i)
            placed += self._assert_level_one_in_seed_view(
                graph, seed, sampler.fetch(seed, 4, "member"))
        assert placed > 0

    def test_hand_built_level_one_non_neighbor_hangs_under_seed(self):
        graph, _ = build([edge_row(0, 0, 0, 0, 1, 1.0), edge_row(0, 1, 0, 0, 2, 1.0),
                          edge_row(0, 5, 0, 0, 4, 1.0), edge_row(0, 3, 0, 0, 4, 1.0)])
        seed, n1, n2, n3, n5 = (graph.node_ref(0, i) for i in (0, 1, 2, 3, 5))
        assert n5 not in graph.merged_neighbors(seed)[0]
        batch = build_encode_batch(graph, [seed], [[[n5, n1], [n2, n3]]], 2)
        assert batch.level_refs[1] == [n5, n1]
        assert batch.edges[0][0].tolist() == [0, 0]
        assert batch.edges[0][1].tolist() == [0, 1]
        # level 2 still attaches by adjacency: 3 is no out-neighbour of 5 or 1
        assert batch.level_refs[2] == [n2]
        assert batch.edges[1][0].tolist() == [1]
        assert batch.orphan_nodes == 1


_LINK_GRAPH = mixed_type_graph(np.random.default_rng(4))
_LINK_NODES = [_LINK_GRAPH.node_ref_by_index(t, i)
               for t in _LINK_GRAPH.node_types for i in range(_LINK_GRAPH.num_nodes(t))]
_NODE = st.sampled_from(range(len(_LINK_NODES)))


class TestEncodeBatchLinks:
    @given(st.lists(st.tuples(_NODE, st.lists(st.lists(_NODE, max_size=6), max_size=3)),
                    max_size=4),
           st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_equals_pairwise_loop(self, seeded, depth):
        """The array membership test links exactly the pairs the loop over
        ext-keyed neighbour sets links, in the same order."""
        seeds = [_LINK_NODES[s] for s, _ in seeded]
        hop_lists = [tuple(tuple(_LINK_NODES[i] for i in level) for level in levels)
                     for _, levels in seeded]
        batch = build_encode_batch(_LINK_GRAPH, seeds, hop_lists, depth)
        refs, owners, edges, orphans = encode_links(_LINK_GRAPH, seeds, hop_lists, depth)
        assert batch.level_refs == refs
        assert [a.tolist() for a in batch.level_seed] == owners
        assert [(p.tolist(), c.tolist()) for p, c in batch.edges] == edges
        assert all(a.dtype == np.int64 for a in batch.level_seed)
        assert all(a.dtype == np.int64 for edge in batch.edges for a in edge)
        assert batch.orphan_nodes == orphans


class TestPPRHopLists:
    """A ppr-push sample's hop lists are no deeper than the encoder."""

    def test_ppr_push_entries_are_placed_or_counted(self):
        graph, _ = build(random_weighted_digraph(np.random.default_rng(21), 120, 2.0))
        sampler = GraphSampler(graph, "ppr-push", rng_seed=5, hops=2)
        seeds = [graph.node_ref_by_index(0, i) for i in range(graph.num_nodes(0))]
        hop_lists = [sampler.fetch(seed, 20, "member") for seed in seeds]
        assert max(len(hops) for hops in hop_lists) == 2
        batch = build_encode_batch(graph, seeds, hop_lists, 2)
        placed = sum(len(level) for level in batch.level_refs[1:])
        assert batch.orphan_nodes > 0
        assert placed + batch.orphan_nodes == sum(len(h) for hops in hop_lists for h in hops)


class TestDecoders:
    def test_cosine_trivials(self):
        u = np.array([1.0, 2.0, 3.0])
        assert decode_cosine(u, u) == pytest.approx(1.0)
        assert decode_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert decode_cosine(u, -u) == pytest.approx(-1.0)

    def test_cosine_scale_invariance(self):
        u, v = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        assert decode_cosine(3.0 * u, v) == pytest.approx(decode_cosine(u, 7.0 * v))

    def test_cosine_zero_norm_error(self):
        with pytest.raises(ValueError):
            decode_cosine(np.zeros(3), np.ones(3))

    def test_in_batch_orthonormal(self):
        eye = np.eye(3)
        res = decode_in_batch_negatives(eye, eye, temperature=1.0)
        np.testing.assert_allclose(res.logits, eye)
        expected = -math.log(math.e / (math.e + 2.0))
        assert res.loss == pytest.approx(expected, abs=1e-12)
        assert res.loss == pytest.approx(0.55144, abs=1e-5)

    def test_in_batch_all_equal(self):
        v = np.tile(np.array([0.3, 0.4]), (4, 1))
        res = decode_in_batch_negatives(v, v)
        assert res.loss == pytest.approx(math.log(4.0))

    def test_in_batch_duplicate_dst_columns(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(3, 4))
        dst = rng.normal(size=(3, 4))
        dst[2] = dst[1]
        res = decode_in_batch_negatives(src, dst)
        np.testing.assert_allclose(res.logits[:, 1], res.logits[:, 2])

    def test_in_batch_needs_two(self):
        with pytest.raises(ValueError):
            decode_in_batch_negatives(np.ones((1, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize("kind", ["cosine", "mlp", "in_batch_negative"])
    def test_forward_matches_oracles(self, kind):
        rng = np.random.default_rng(47)
        graph = bipartite_graph(rng)
        cfg = config_for(graph, decoder=DecoderKind(kind, mlp_hidden=(4,), temperature=0.7))
        model = LinkPredictionModel(graph, cfg)
        pairs = [((0, m), (1, 100 + (5 * m) % 6), m % 2) for m in range(5)]
        batch = make_batch(graph, cfg, pairs)
        batch.mask[3] = False
        result = model.forward(batch)
        src, dst = tower_outputs(model, batch)
        real = batch.mask
        if kind == "in_batch_negative":
            full = decode_in_batch_negatives(src, dst, temperature=0.7)
            np.testing.assert_allclose(result.scores, np.diag(full.logits), rtol=1e-10)
            expected = decode_in_batch_negatives(src[real], dst[real], temperature=0.7).loss
        else:
            if kind == "cosine":
                cosines = [decode_cosine(u, v) for u, v in zip(src, dst)]
                np.testing.assert_allclose(result.scores, cosines, rtol=1e-10)
            per_pair = [
                bce_loss(s, int(y)).loss for s, y in zip(result.scores, batch.labels)
            ]
            expected = float(np.mean(np.array(per_pair)[real]))
        assert float(result.loss.data) == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestBCE:
    def test_zero_score_positive_label(self):
        res = bce_loss(0.0, 1)
        assert res.loss == pytest.approx(math.log(2.0))
        assert res.grad == pytest.approx(-0.5)

    def test_saturated_positive(self):
        assert bce_loss(40.0, 1).loss == pytest.approx(0.0, abs=1e-12)

    def test_negative_label_softplus(self):
        res = bce_loss(1.5, 0)
        assert res.loss == pytest.approx(math.log1p(math.exp(1.5)), abs=1e-12)
        assert res.loss == pytest.approx(1.7014, abs=1e-4)

    def test_extreme_scores_stable(self):
        assert np.isfinite(bce_loss(800.0, 0).loss)
        assert np.isfinite(bce_loss(-800.0, 1).loss)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        store = ParamStore()
        store.add("a/W", rng.normal(size=(3, 4)))
        store.add("b", rng.normal(size=(7,)))
        path = tmp_path / "model.lgnn"
        store.save(str(path))
        loaded = ParamStore.load(str(path))
        assert loaded.names() == store.names()
        for name in store.names():
            np.testing.assert_array_equal(loaded[name], store[name])

    def test_magic_bytes(self, tmp_path):
        store = ParamStore()
        store.add("x", np.ones(2))
        path = tmp_path / "model.lgnn"
        store.save(str(path))
        with open(path, "rb") as fh:
            assert fh.read(4) == b"LGNN"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.lgnn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            ParamStore.load(str(path))


class TestParamAccounting:
    def test_dual_doubles_encoder_params(self):
        rng = np.random.default_rng(29)
        graph = star_graph_with_features(4, rng)
        from dataclasses import replace

        single = config_for(graph)
        dual = replace(single, encoder="dual")
        s_store = init_params(single)
        d_store = init_params(dual)

        def count(store, prefix=""):
            return sum(a.size for name, a in store.items() if name.startswith(prefix))

        s_count = count(s_store, "enc/")
        assert count(d_store, "src/") == s_count
        assert count(d_store, "dst/") == s_count
        assert count(d_store) == 2 * s_count

    def test_single_shares_towers(self):
        rng = np.random.default_rng(29)
        graph = star_graph_with_features(4, rng)
        cfg = config_for(graph)
        assert cfg.side_for("src") == cfg.side_for("dst") == "enc"


def bipartite_graph(rng, n_members=6, n_items=6, deg=3, extra_rows=()):
    rows = list(extra_rows)
    for m in range(n_members):
        for j in range(deg):
            rows.append(edge_row(0, m, 0, 1, 100 + (m * 7 + j) % n_items, 1.0, ts=10 * j + 1))
    nodes = [node_row(0, m, rng.normal(size=4)) for m in range(n_members)]
    nodes += [node_row(1, 100 + i, rng.normal(size=4)) for i in range(n_items)]
    graph, _ = build(rows, nodes)
    return graph


def make_batch(graph, config, pairs, rng_seed=0, fanouts=None):
    """PairBatch via random multihop sampling."""
    fanouts = fanouts or [3] * max(1, config.hops)
    src_refs = [graph.resolve(p[0]) for p in pairs]
    dst_refs = [graph.resolve(p[1]) for p in pairs]
    labels = np.array([p[2] for p in pairs], dtype=np.float64)
    src_samples = sample_random_multihop(graph, src_refs, fanouts, rng_seed)
    dst_samples = sample_random_multihop(graph, dst_refs, fanouts, rng_seed)
    return PairBatch(
        src_refs=src_refs,
        dst_refs=dst_refs,
        labels=labels,
        mask=np.ones(len(pairs), dtype=bool),
        src_hops=[hops_from_samples(s, config.hops) for s in src_samples],
        dst_hops=[hops_from_samples(s, config.hops) for s in dst_samples],
    )


def tower_outputs(model, batch):
    """The encoder outputs both towers feed the decoder, as plain arrays."""
    taped = {name: ag.constant(arr) for name, arr in model.store.items()}
    out = []
    for position, refs, hops in (
        ("src", batch.src_refs, batch.src_hops),
        ("dst", batch.dst_refs, batch.dst_hops),
    ):
        levels = build_encode_batch(model.graph, refs, hops, model.config.hops)
        out.append(model.encoder.encode(taped, model.config.side_for(position), levels).data)
    return out


class TestNetworkGradients:
    @pytest.mark.parametrize("aggregator", ["mean", "attention", "self_attention"])
    def test_fd_smoke_mean_cosine(self, aggregator):
        rng = np.random.default_rng(31)
        graph = bipartite_graph(rng)
        from dataclasses import replace

        cfg = replace(config_for(graph), aggregator=aggregator, out_dim=4, attention_dim=3)
        model = LinkPredictionModel(graph, cfg)
        pairs = [((0, 0), (1, 100), 1), ((0, 1), (1, 101), 0), ((0, 2), (1, 102), 1)]
        batch = make_batch(graph, cfg, pairs)
        _, grads, _ = model.loss_and_grads(batch)
        arrays = {n: model.store[n] for n in model.store.names()}
        numeric = central_diff(lambda: float(model.forward(batch).loss.data), arrays)
        err, name = max_relative_error(grads, numeric)
        assert err < 1e-4, f"{name}: {err}"

    def test_fd_temporal_with_id_embeddings(self):
        # item 106 has no node row, so its activity token has no features;
        # no tower reads it (only member 5 links to it)
        rng = np.random.default_rng(43)
        graph = bipartite_graph(rng, extra_rows=[edge_row(0, 5, 0, 1, 106, 1.0, ts=5)])
        temporal = TemporalConfig(heads=3, token_dim=2, seq_len=3, future_len=1,
                                  positional_mode="timestamp", dst_neighbor_count=2)
        cfg = config_for(graph, id_embeddings=True, id_dim=2, temporal=temporal)
        model = LinkPredictionModel(graph, cfg)
        pairs = [((0, 0), (1, 100), 1), ((0, 1), (1, 101), 0), ((0, 2), (1, 102), 1)]
        batch = make_batch(graph, cfg, pairs)
        ref = graph.resolve
        batch.activity_refs = [
            [ref((1, 106)), ref((1, 101)), ref((1, 102))],
            [ref((1, 103))],
            [ref((1, 104)), ref((1, 100))],
        ]
        batch.activity_ages = [[30.0, 20.0, 10.0], [5.0], [8.0, 1.0]]
        batch.dst_neighbor_refs = [[ref((0, 3)), ref((1, 106))], [], [ref((0, 4))]]
        _, grads, result = model.loss_and_grads(batch)
        assert result.aux["missing_features"] == 0
        assert result.aux["long_term_loss"] > 0.0
        arrays = {n: model.store[n] for n in model.store.names()}
        numeric = central_diff(lambda: float(model.forward(batch).loss.data), arrays)
        err, name = max_relative_error(grads, numeric)
        assert err < 1e-4, f"{name}: {err}"
        assert any(np.abs(grads[n]).max() > 0 for n in grads if "/id/" in n)
        assert np.abs(grads["enc/tformer/Wq"]).max() > 0

    def test_duplicated_batch_same_gradients(self):
        rng = np.random.default_rng(37)
        graph = bipartite_graph(rng)
        cfg = config_for(graph)
        model = LinkPredictionModel(graph, cfg)
        pairs = [((0, 0), (1, 100), 1), ((0, 1), (1, 101), 0)]
        b1 = make_batch(graph, cfg, pairs)
        b2 = make_batch(graph, cfg, pairs + pairs)
        _, g1, _ = model.loss_and_grads(b1)
        _, g2, _ = model.loss_and_grads(b2)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

    def test_saturated_batch_vanishing_gradient(self):
        rng = np.random.default_rng(41)
        graph = bipartite_graph(rng)
        from dataclasses import replace

        cfg = replace(config_for(graph), decoder=DecoderKind("mlp", mlp_hidden=(4,)))
        model = LinkPredictionModel(graph, cfg)
        # force the output layer to produce huge correct logits
        model.store["dec/mlp/out/W"] *= 0.0
        model.store["dec/mlp/out/b"][:] = 50.0
        pairs = [((0, 0), (1, 100), 1), ((0, 1), (1, 101), 1)]
        batch = make_batch(graph, cfg, pairs)
        loss, grads, _ = model.loss_and_grads(batch)
        assert loss < 1e-12
        total = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert total < 1e-6


class TestTemporalHead:
    @pytest.mark.parametrize("mask_mode", ["prefix_causal", "regular_causal"])
    @pytest.mark.parametrize("positional_mode", ["sinusoidal", "timestamp"])
    def test_matches_oracle(self, mask_mode, positional_mode):
        rng = np.random.default_rng(53)
        graph = bipartite_graph(rng)
        temporal = TemporalConfig(heads=3, token_dim=2, seq_len=4, future_len=2,
                                  mask_mode=mask_mode, positional_mode=positional_mode)
        cfg = config_for(graph, temporal=temporal)
        model = LinkPredictionModel(graph, cfg)
        pairs = [((0, m), (1, 100 + (m + 2) % 6), m % 2) for m in range(4)]
        batch = make_batch(graph, cfg, pairs)
        ref = graph.resolve
        # one row over-long (truncated), two left-padded, one empty
        batch.activity_refs = [
            [ref((1, 100 + k)) for k in (5, 1, 0, 3, 2)],
            [ref((1, 104))],
            [ref((1, 101)), ref((1, 103)), ref((1, 105))],
            [],
        ]
        batch.activity_ages = [[90.0, 40.0, 12.0, 3.0, 0.0], [7.0], [300.0, 20.0, 2.0], []]
        result = model.forward(batch)
        src, dst = tower_outputs(model, batch)

        side = cfg.side_for("src")
        h, d = temporal.heads, temporal.token_dim
        params = AttentionParams(*(model.store[f"{side}/tformer/{w}"] for w in ("Wq", "Wk", "Wv")))

        def token(node):
            w = model.store[f"{side}/proj/{node.node_type}/W"]
            b = model.store[f"{side}/proj/{node.node_type}/b"][0]
            return graph.features_of(node) @ w + b

        scores, lt_terms = [], []
        for i, (acts, ages) in enumerate(zip(batch.activity_refs, batch.activity_ages)):
            seq = assemble_temporal_sequence(src[i], [token(a) for a in acts], temporal, ages)
            out = masked_attention_forward(seq.tokens + seq.positions, seq.mask, params)
            item = dst[i].reshape(h, d).mean(axis=0)
            scores.append(decode_cosine(out[:h].mean(axis=0), item))
            for p, t in long_term_target_pairs(temporal):
                if seq.activity_real[p] and seq.activity_real[t]:
                    lt_terms.append(1.0 - decode_cosine(out[h + p], seq.tokens[h + t]))
        long_term = sum(lt_terms) / max(1, len(lt_terms))
        main = np.mean([bce_loss(s, int(y)).loss for s, y in zip(scores, batch.labels)])

        assert lt_terms
        np.testing.assert_allclose(result.scores, scores, rtol=1e-10)
        assert result.aux["long_term_loss"] == pytest.approx(long_term, rel=1e-10, abs=0.0)
        assert float(result.loss.data) == pytest.approx(main + long_term, rel=1e-10, abs=0.0)
