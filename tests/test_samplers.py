"""Sampling strategies: fan-out distributions, PPR approximations, temporal."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lignn import samplers
from lignn.graph import HeteroGraph, NodeRef
from lignn.samplers import (
    AdjacencyProvider,
    PPRConfig,
    WalkConfig,
    _frontier_union,
    ppr_forward_push,
    ppr_forward_push_batch,
    ppr_two_hop_random_walk,
    sample_random_multihop,
    sample_temporal_last_n,
    sample_weighted_multihop,
)
from lignn.service import GraphEngineClient, PartitionMap, RemoteAdjacency, RetryPolicy, serve

from conftest import build, edge_row, node_row, random_weighted_digraph
from oracles import frontier_union, ppr_exact, ppr_two_hop_dense, ppr_two_hop_walk


def star(n_leaves, weights=None):
    rows = []
    for i in range(n_leaves):
        w = 1.0 if weights is None else weights[i]
        rows.append(edge_row(0, 0, 0, 0, i + 1, w))
    graph, _ = build(rows)
    return graph


def two_cycle():
    graph, _ = build([edge_row(0, 0, 0, 0, 1, 1.0), edge_row(0, 1, 0, 0, 0, 1.0)])
    return graph


class TestRandomMultihop:
    def test_undersized_frontier_returns_all(self):
        graph = star(3)
        [[hop]] = sample_random_multihop(graph, [(0, 0)], [5], rng_seed=1)
        assert len(hop.entries) == 3

    def test_zero_fanout(self):
        graph = star(3)
        [[hop]] = sample_random_multihop(graph, [(0, 0)], [0], rng_seed=1)
        assert hop.entries == ()

    def test_deterministic_given_seed(self):
        graph = star(10)
        a = sample_random_multihop(graph, [(0, 0)], [4], rng_seed=7)
        b = sample_random_multihop(graph, [(0, 0)], [4], rng_seed=7)
        assert a[0][0].entries == b[0][0].entries
        c = sample_random_multihop(graph, [(0, 0)], [4], rng_seed=8)
        assert a[0][0].entries != c[0][0].entries

    def test_unknown_seed_is_isolated_error(self):
        graph = star(3)
        out = sample_random_multihop(graph, [(0, 999), (0, 0)], [2], rng_seed=1)
        assert out[0][0].error is not None
        assert out[1][0].error is None

    def test_star_frequencies_binomial(self):
        # each leaf appears with probability fanout/L; 10k reseeded draws
        leaves, fanout, trials = 8, 2, 10_000
        graph = star(leaves)
        counts = np.zeros(leaves)
        for t in range(trials):
            [[hop]] = sample_random_multihop(graph, [(0, 0)], [fanout], rng_seed=t)
            for e in hop.entries:
                counts[e.node.node_id - 1] += 1
        p = fanout / leaves
        sigma = math.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= 3.5 * sigma)

    def test_two_hop_uses_frontier_union(self):
        # path 0 -> 1 -> 2: hop 2 must come from neighbors of hop-1 nodes
        rows = [edge_row(0, 0, 0, 0, 1, 1.0), edge_row(0, 1, 0, 0, 2, 1.0)]
        graph, _ = build(rows)
        [hops] = sample_random_multihop(graph, [(0, 0)], [1, 1], rng_seed=0)
        assert [e.node.node_id for e in hops[0].entries] == [1]
        assert [e.node.node_id for e in hops[1].entries] == [2]
        assert [e.hop for e in hops[1].entries] == [2]


# -- frontier union -------------------------------------------------------------

_UNION_NODES = [(0, 1), (0, 2), (0, 3), (1, 7), (1, 8), (2, 4)]
# weights whose sums round differently in different orders
_UNION_WEIGHTS = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 2.5])
_UNION_EDGES = st.lists(st.tuples(  # edge types 0 and 1: parallel edges across types
    st.integers(0, 5), st.sampled_from([0, 1]), st.integers(0, 5), _UNION_WEIGHTS,
    st.sampled_from([0, 10]),
), max_size=30)
_UNION_ADDED = st.lists(st.tuples(  # overlay runs, in a new edge type too
    st.integers(0, 5), st.sampled_from([0, 1, 5]), st.integers(0, 5), _UNION_WEIGHTS,
    st.sampled_from([0, 10, 20]),
), max_size=12)


_PPR_NODES = [(i % 2, i) for i in range(8)]  # two node types
_PPR_EDGES = st.lists(st.tuples(  # three edge types: parallel edges across types
    st.integers(0, 7), st.sampled_from([0, 1, 2]), st.integers(0, 7), _UNION_WEIGHTS,
), max_size=24)


def ppr_graph(edges):
    """A graph over ``_PPR_NODES``; a node without out-edges dangles."""
    rows = [edge_row(*_PPR_NODES[s], et, *_PPR_NODES[d], w) for s, et, d, w in edges]
    graph, _ = build(rows, [node_row(*n, [0.0] * 4) for n in _PPR_NODES])
    return graph


@pytest.mark.parametrize("provider", [HeteroGraph, RemoteAdjacency])
def test_provider_defines_every_protocol_method(provider):
    methods = {name for name, value in vars(AdjacencyProvider).items()
               if callable(value) and not name.startswith("_")}
    assert methods and methods <= set(vars(provider))


def union_candidates(provider, frontier):
    """The library's union as (candidate refs, weights)."""
    refs, pos, weights = _frontier_union(provider, frontier)
    return [refs[p] for p in pos], weights


def assert_union_equals_oracle(provider, frontier):
    refs, weights = union_candidates(provider, frontier)
    orefs, oweights = frontier_union(provider, frontier)
    assert refs == orefs
    assert weights.dtype == np.float64
    assert weights.tobytes() == oweights.tobytes()
    return refs, weights


class TestFrontierUnion:
    """The array union equals the dict merge: same refs in the same order,
    bit-equal weights."""

    @given(_UNION_EDGES, _UNION_ADDED, st.lists(st.integers(0, 5), max_size=6))
    @example(  # one neighbour reached from three frontier nodes over both edge types
        [(0, 0, 5, 0.1, 0), (0, 1, 5, 0.2, 0), (1, 0, 5, 0.3, 0), (2, 1, 5, 1 / 3, 10)],
        [(2, 5, 5, 0.7, 20)], [0, 1, 2],
    )
    @settings(max_examples=150, deadline=None)
    def test_graph_provider(self, base, added, frontier):
        rows = [edge_row(*_UNION_NODES[s], et, *_UNION_NODES[d], w, ts=ts)
                for s, et, d, w, ts in base]
        nodes = [node_row(nt, nid, [0.0] * 4) for nt, nid in _UNION_NODES]
        graph, _ = build(rows, nodes)
        refs = [graph.node_ref(*n) for n in _UNION_NODES]
        graph = graph.with_added_edges(
            [(refs[s], et, refs[d], w, ts) for s, et, d, w, ts in added]
        )
        assert_union_equals_oracle(graph, [refs[i] for i in frontier])

    def test_one_node_frontier_is_its_view(self):
        graph = star(4)
        seed = graph.node_ref(0, 0)
        refs, pos, weights = _frontier_union(graph, [seed])
        view_refs, view_weights, _ = graph.merged_neighbors(seed)
        assert refs is view_refs and weights is view_weights
        assert list(pos) == [0, 1, 2, 3]

    @given(st.permutations(range(30)), st.lists(st.integers(0, 29), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_remote_provider(self, union_server, discovery, frontier):
        graph, pmap = union_server
        client = GraphEngineClient(pmap, RetryPolicy(max_attempts=3), sleep=lambda s: None)
        try:
            provider = RemoteAdjacency(client)
            # discovery indices, the remote keys, in an order unlike (node_type, node_id)
            nodes = [graph.node_ref_by_index(*_union_server_node(i)) for i in discovery]
            remote = [provider.resolve(n.ext()) for n in nodes]
            frontier = [remote[discovery.index(i)] for i in frontier]
            refs, weights = assert_union_equals_oracle(provider, frontier)
            local, lweights = union_candidates(graph, [graph.resolve(n) for n in frontier])
            assert [r.ext() for r in refs] == [r.ext() for r in local]
            assert weights.tobytes() == lweights.tobytes()
        finally:
            client.close()


def _union_server_node(i):
    """(node_type, index) of the i-th of the served graph's 30 nodes."""
    return (0, i) if i < 20 else (1, i - 20) if i < 26 else (2, i - 26)


@pytest.fixture(scope="module")
def union_server():
    """A served graph with three node types, parallel edges across edge types
    and overlay runs."""
    rng = np.random.default_rng(5)
    rows = [edge_row(0, int(rng.integers(0, 20)), int(rng.integers(0, 2)), *dst, float(w))
            for dst, w in zip(
                [(0, i % 20) for i in range(40)] + [(1, 100 + i % 6) for i in range(20)]
                + [(2, 500 + i % 4) for i in range(12)],
                rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7], size=72))]
    rows += [edge_row(1, 100 + i % 6, 0, 0, i, 0.3) for i in range(20)]
    rows += [edge_row(2, 500 + i, 1, 1, 100 + i, 0.1) for i in range(4)]
    graph, _ = build(rows)
    assert [graph.num_nodes(t) for t in (0, 1, 2)] == [20, 6, 4]
    refs = [graph.node_ref_by_index(*_union_server_node(i)) for i in range(30)]
    graph = graph.with_added_edges(
        [(refs[i], 1, refs[(7 * i) % 30], 1 / 3, 5) for i in range(0, 30, 2)]
    )
    server = serve(graph, "127.0.0.1:0", PartitionMap(("127.0.0.1:0",)), 0)
    server.pmap = PartitionMap((server.address,))
    yield graph, server.pmap
    server.stop()


class TestWeightedMultihop:
    def test_zero_weight_never_sampled(self):
        graph = star(2, weights=[1.0, 0.5])
        for t in range(50):
            [[hop]] = sample_weighted_multihop(graph, [(0, 0)], [1], rng_seed=t)
            assert len(hop.entries) == 1

    def test_equal_weights_uniform_chi_square(self):
        leaves, trials = 6, 10_000
        graph = star(leaves)
        counts = np.zeros(leaves)
        for t in range(trials):
            [[hop]] = sample_weighted_multihop(graph, [(0, 0)], [1], rng_seed=t)
            counts[hop.entries[0].node.node_id - 1] += 1
        expected = trials / leaves
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # df=5; P(chi2 > 20.5) ~ 0.001
        assert chi2 < 20.5

    def test_three_to_one_ratio(self):
        trials = 10_000
        graph = star(2, weights=[3.0, 1.0])
        first = 0
        for t in range(trials):
            [[hop]] = sample_weighted_multihop(graph, [(0, 0)], [1], rng_seed=t)
            first += hop.entries[0].node.node_id == 1
        p = 0.75
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(first - trials * p) <= 3.5 * sigma


class TestPPRExact:
    def test_isolated_node_self_loop(self):
        graph, _ = build([], ["0\t5\t0,0,0,0\n"])
        res = ppr_exact(graph, (0, 5), alpha=0.3)
        assert res.score_of(graph.node_ref(0, 5)) == pytest.approx(1.0)
        assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_cycle_closed_form(self):
        graph = two_cycle()
        res = ppr_exact(graph, (0, 0), alpha=0.5, num_iterations=200)
        # pi(s) = alpha / (1 - (1-alpha)^2)
        assert res.score_of(graph.node_ref(0, 0)) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert res.score_of(graph.node_ref(0, 1)) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_stochasticity(self):
        rng = np.random.default_rng(5)
        graph, _ = build(random_weighted_digraph(rng, 40, 3.0))
        res = ppr_exact(graph, (0, 0), alpha=0.15)
        assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.scores >= 0)

    def test_bad_iterations(self):
        graph = two_cycle()
        with pytest.raises(ValueError):
            ppr_exact(graph, (0, 0), alpha=0.5, num_iterations=0)


class TestForwardPush:
    def test_dangling_seed_accumulates_all_mass(self):
        graph, _ = build([], ["0\t5\t0,0,0,0\n"])
        cfg = PPRConfig(alpha=0.5, r_max=1e-6, top_k=5, include_seed=True)
        sample = ppr_forward_push(graph, (0, 5), cfg)
        assert len(sample.entries) == 1
        assert sample.entries[0].score == pytest.approx(1.0, abs=1e-6)
        assert not sample.truncated

    def test_two_cycle_matches_exact(self):
        graph = two_cycle()
        cfg = PPRConfig(alpha=0.5, r_max=1e-9, top_k=5, include_seed=True)
        sample = ppr_forward_push(graph, (0, 0), cfg)
        scores = {e.node.node_id: e.score for e in sample.entries}
        assert scores[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert scores[1] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_residual_bound_against_exact(self):
        rng = np.random.default_rng(17)
        lines = random_weighted_digraph(rng, 60, 4.0, symmetric=True)
        graph, _ = build(lines)
        r_max = 1e-6
        cfg = PPRConfig(alpha=0.15, r_max=r_max, top_k=10_000, include_seed=True)
        sample = ppr_forward_push(graph, (0, 0), cfg)
        exact = ppr_exact(graph, (0, 0), alpha=0.15, num_iterations=400)
        approx = {e.node.ext(): e.score for e in sample.entries}
        for gi in range(exact.index.n):
            ref = exact.index.ref(gi)
            wdeg = graph.merged_neighbors(ref)[1].sum() or 1.0
            diff = exact.scores[gi] - approx.get(ref.ext(), 0.0)
            assert diff >= -1e-12  # 0 up to float64 accumulation
            assert diff <= r_max * wdeg + 1e-15

    @given(
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from([0, 1]), st.integers(0, 7),
                           _UNION_WEIGHTS), max_size=24),
        st.integers(0, 7), st.floats(0.1, 0.9), st.floats(1e-6, 0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_push_invariant_against_exact(self, edges, seed, alpha, r_max):
        """Every push keeps pi = p + sum_u r(u) * pi_u, so 0 <= pi - p, the
        gaps sum to the residual left, and at the end r(u) <= r_max * wdeg(u)."""
        graph, nodes = ppr_graph(edges), _PPR_NODES
        states = []
        finalize = samplers._finalize_push

        def capture(provider, state, config):
            states.append(state)
            return finalize(provider, state, config)

        with mock.patch.object(samplers, "_finalize_push", capture):
            cfg = PPRConfig(alpha=alpha, r_max=r_max, top_k=100, include_seed=True)
            sample = ppr_forward_push(graph, nodes[seed], cfg)
        [state] = states
        assert not sample.truncated
        exact = ppr_exact(graph, nodes[seed], alpha=alpha)
        gap = np.array([exact.scores[exact.index.gidx(ref)] - state.p.get(ref, 0.0)
                        for ref in map(exact.index.ref, range(exact.index.n))])
        assert gap.min() >= -1e-12
        assert gap.sum() == pytest.approx(sum(state.r.values()), abs=1e-12)
        for ref, res in state.r.items():  # up to the rounding of the degree sum
            weights = graph.merged_neighbors(ref).weights
            assert res <= r_max * (weights.sum() if len(weights) else 1.0) * (1 + 1e-12)

    def test_truncation_flag(self):
        rng = np.random.default_rng(2)
        graph, _ = build(random_weighted_digraph(rng, 30, 3.0))
        cfg = PPRConfig(alpha=0.15, r_max=1e-9, top_k=5, max_pushes=3)
        sample = ppr_forward_push(graph, (0, 0), cfg)
        assert sample.truncated

    def test_seed_excluded_by_default(self):
        graph = two_cycle()
        sample = ppr_forward_push(graph, (0, 0), PPRConfig(alpha=0.5, r_max=1e-6, top_k=5))
        assert all(e.node.node_id != 0 for e in sample.entries)

    def test_unknown_seed_error(self):
        graph = two_cycle()
        sample = ppr_forward_push(graph, (0, 42), PPRConfig())
        assert sample.error is not None

    def test_hop_label_through_pushed_node_outside_top_k(self):
        # 0 -> 1 -> 2 with 2 dangling: 2 keeps all the mass it gets and
        # outranks 1, so top_k=1 keeps only 2, which is reached through 1
        graph, _ = build([edge_row(0, 0, 0, 0, 1, 1.0), edge_row(0, 1, 0, 0, 2, 1.0)])
        sample = ppr_forward_push(graph, (0, 0), PPRConfig(alpha=0.15, r_max=1e-6, top_k=1))
        assert [(e.node.node_id, e.hop) for e in sample.entries] == [(2, 2)]


class TestForwardPushBatch:
    def test_batch_of_one_equals_single(self):
        graph = two_cycle()
        cfg = PPRConfig(alpha=0.5, r_max=1e-8, top_k=5, include_seed=True)
        single = ppr_forward_push(graph, (0, 0), cfg)
        [batched] = ppr_forward_push_batch(graph, [(0, 0)], cfg)
        assert single.entries == batched.entries

    def test_batch_bit_identical_to_sequential(self):
        rng = np.random.default_rng(23)
        graph, _ = build(random_weighted_digraph(rng, 80, 4.0))
        cfg = PPRConfig(alpha=0.15, r_max=1e-5, top_k=50, include_seed=True)
        seeds = [(0, i) for i in range(10)]
        sequential = [ppr_forward_push(graph, s, cfg) for s in seeds]
        batched = ppr_forward_push_batch(graph, seeds, cfg)
        for a, b in zip(sequential, batched):
            assert len(a.entries) == len(b.entries)
            for ea, eb in zip(a.entries, b.entries):
                assert ea.node.ext() == eb.node.ext()
                assert ea.score == eb.score  # bit-identical, no tolerance

    def test_unknown_seed_isolated(self):
        rng = np.random.default_rng(29)
        graph, _ = build(random_weighted_digraph(rng, 20, 3.0))
        seeds = [(0, i) for i in range(9)] + [(0, 999)]
        out = ppr_forward_push_batch(graph, seeds, PPRConfig(r_max=1e-4))
        assert sum(1 for s in out if s.error is None) == 9
        assert out[9].error is not None


class TestTwoHopWalk:
    def test_isolated_seed(self):
        graph, _ = build([], ["0\t5\t0,0,0,0\n"])
        cfg = WalkConfig(include_seed=True)
        sample = ppr_two_hop_random_walk(graph, (0, 5), cfg)
        assert len(sample.entries) == 1
        assert sample.entries[0].score == pytest.approx(1.0)

    def test_two_hop_restriction_on_path(self):
        rows = [
            edge_row(0, 0, 0, 0, 1, 1.0),
            edge_row(0, 1, 0, 0, 2, 1.0),
            edge_row(0, 2, 0, 0, 3, 1.0),
        ]
        graph, _ = build(rows)
        cfg = WalkConfig(alpha=0.15, top_k=10)
        sample = ppr_two_hop_random_walk(graph, (0, 0), cfg)
        ids = {e.node.node_id for e in sample.entries}
        assert 3 not in ids  # three hops away
        assert ids == {1, 2}

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        graph, _ = build(random_weighted_digraph(rng, 40, 4.0))
        cfg = WalkConfig(top_k=10)
        a = ppr_two_hop_random_walk(graph, (0, 0), cfg)
        b = ppr_two_hop_random_walk(graph, (0, 0), cfg)
        assert a.entries == b.entries

    def test_scores_form_distribution(self):
        rng = np.random.default_rng(37)
        graph, _ = build(random_weighted_digraph(rng, 40, 4.0))
        cfg = WalkConfig(top_k=10_000, include_seed=True)
        sample = ppr_two_hop_random_walk(graph, (0, 0), cfg)
        assert sum(e.score for e in sample.entries) == pytest.approx(1.0, abs=1e-9)

    def test_hop_labels(self):
        rows = [edge_row(0, 0, 0, 0, 1, 1.0), edge_row(0, 1, 0, 0, 2, 1.0)]
        graph, _ = build(rows)
        cfg = WalkConfig(top_k=10)
        sample = ppr_two_hop_random_walk(graph, (0, 0), cfg)
        by_id = {e.node.node_id: e.hop for e in sample.entries}
        assert by_id[1] == 1
        assert by_id[2] == 2

    def test_overlap_with_exact_restricted(self):
        rng = np.random.default_rng(41)
        graph, _ = build(random_weighted_digraph(rng, 60, 6.0))
        sample = ppr_two_hop_random_walk(graph, (0, 0), WalkConfig(alpha=0.15, top_k=10))
        exact, _ = ppr_two_hop_dense(graph, (0, 0), alpha=0.15)
        ranked = sorted((k for k in exact if k != (0, 0)), key=lambda k: (-exact[k], k))
        assert [e.node.ext() for e in sample.entries] == ranked[:10]

    @given(_PPR_EDGES, st.integers(0, 7), st.floats(0.1, 0.9), st.booleans())
    @example(  # parallel edges 0 -> 1, 5 dangles, 2 -> 3 leaves the ball, 3 -> 0 lies outside it
        [(0, 0, 1, 0.7), (0, 1, 1, 0.3), (1, 2, 2, 2.5), (1, 0, 5, 0.1), (2, 0, 3, 1 / 3),
         (3, 1, 0, 0.2)], 0, 0.15, False,
    )
    @settings(max_examples=80, deadline=None)
    def test_scores_within_bound_of_dense_solve(self, edges, seed, alpha, include_seed):
        """Every ball member comes back (the seed only if asked for) with its
        hop label and a score within ``PPR_TOLERANCE`` of the dense solve,
        ranked by score with ties in node order."""
        graph, node = ppr_graph(edges), _PPR_NODES[seed]
        cfg = WalkConfig(alpha=alpha, top_k=100, include_seed=include_seed)
        sample = ppr_two_hop_random_walk(graph, node, cfg)
        exact, hops = ppr_two_hop_dense(graph, node, alpha)
        if not include_seed:
            del exact[node], hops[node]
        assert {e.node.ext(): e.hop for e in sample.entries} == hops
        for e in sample.entries:
            assert abs(e.score - exact[e.node.ext()]) <= samplers.PPR_TOLERANCE
        assert list(sample.entries) == sorted(sample.entries, key=lambda e: (-e.score, e.node))

    @given(_PPR_EDGES, st.integers(0, 7), st.floats(0.1, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_restart_walk_estimates_the_scores(self, edges, seed, alpha):
        """The restart walk this sampler replaced (``oracles.ppr_two_hop_walk``)
        estimates the same scores: at 50,000 walks every estimate is within
        0.02 (the largest error over 1,000 random graphs like these was 0.006)."""
        graph, node = ppr_graph(edges), _PPR_NODES[seed]
        cfg = WalkConfig(alpha=alpha, top_k=100, include_seed=True)
        sample = ppr_two_hop_random_walk(graph, node, cfg)
        walk = ppr_two_hop_walk(graph, node, cfg, num_walks=50_000, rng_seed=7)
        estimate = {e.node.ext(): e.score for e in walk.entries}
        for e in sample.entries:
            assert abs(estimate.get(e.node.ext(), 0.0) - e.score) <= 0.02

    def test_star_leaf_memory_is_bounded(self):
        # a leaf's ball is the whole star, 5,001 members: a dense 5,001 x
        # 5,001 matrix alone would take 200 MB
        leaves = range(1, 5001)
        graph, _ = build([edge_row(0, 0, 0, 0, i, 1.0) for i in leaves]
                         + [edge_row(0, i, 0, 0, 0, 1.0) for i in leaves])
        tracemalloc.start()
        try:
            sample = ppr_two_hop_random_walk(graph, (0, 1), WalkConfig(top_k=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # the hub, then the other leaves: their scores tie, so node order
        assert [(e.node.node_id, e.hop) for e in sample.entries] == [(0, 1)] + [
            (i, 2) for i in range(2, 11)]


class TestTemporalLastN:
    def _graph(self, stamps):
        rows = [edge_row(0, 1, 0, 1, 100 + i, 0.5, ts=t) for i, t in enumerate(stamps)]
        graph, _ = build(rows)
        return graph

    def test_fewer_than_n(self):
        graph = self._graph([10, 20, 30])
        out = sample_temporal_last_n(graph, (0, 1), 0, before_ts=100, n=10)
        assert [ts for _, ts in out] == [10, 20, 30]

    def test_before_first_event(self):
        graph = self._graph([10, 20, 30])
        assert sample_temporal_last_n(graph, (0, 1), 0, before_ts=5, n=3) == []

    def test_last_n_matches_linear_scan(self):
        rng = np.random.default_rng(43)
        stamps = sorted(int(t) for t in rng.integers(0, 10_000, size=100))
        graph = self._graph(stamps)
        t = stamps[70]
        out = sample_temporal_last_n(graph, (0, 1), 0, before_ts=t, n=10)
        oracle = [s for s in stamps if s < t][-10:]
        assert [ts for _, ts in out] == oracle

    def test_full_adjacency_sentinels(self):
        graph = self._graph([10, 20, 30])
        out = sample_temporal_last_n(graph, (0, 1), 0, before_ts=math.inf, n=None)
        assert len(out) == 3

    def test_unknown_node(self):
        graph = self._graph([10])
        from lignn.graph import MissingNodeError

        with pytest.raises(MissingNodeError):
            sample_temporal_last_n(graph, (0, 99), 0, before_ts=5, n=1)
