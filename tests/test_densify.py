"""Densification: degree quantiles, exact KNN, artificial edge placement."""

from __future__ import annotations

import numpy as np
import pytest

from lignn.densify import (
    DensifyConfig,
    DensifyError,
    ExternalEmbeddingTable,
    degree_threshold,
    densify,
    exact_knn,
)
from lignn import densify as densify_module
from lignn.graph import NodeRef

from conftest import build, edge_row


def graph_with_degrees(degrees):
    """Node i of type 0 gets out-degree degrees[i] toward type-1 sinks."""
    rows = []
    for i, d in enumerate(degrees):
        for j in range(d):
            rows.append(edge_row(0, i, 0, 1, 1000 + j, 0.5))
    # sinks exist implicitly as edge endpoints
    graph, _ = build(rows)
    return graph


class TestDegreeThreshold:
    def test_all_equal(self):
        # a directed ring of type-0 nodes, each linked to its next three
        n = 8
        graph, _ = build([edge_row(0, i, 0, 0, (i + j) % n, 0.5) for i in range(n)
                          for j in (1, 2, 3)])
        assert graph.node_types == [0]
        assert graph.out_degrees(0).tolist() == [3] * n
        for q in (0.0, 0.3, 0.9, 1.0):
            assert degree_threshold(graph, q) == 3

    def test_nearest_rank_1_to_100(self):
        graph = graph_with_degrees(list(range(1, 101)))
        # type-1 sink nodes all have degree 0 and would shift the quantile;
        # compute over a graph whose only nodes are the sources
        degs = np.sort(np.concatenate([graph.out_degrees(t) for t in graph.node_types]))
        rank = max(1, int(np.ceil(0.9 * len(degs))))
        assert degree_threshold(graph, 0.9) == int(degs[rank - 1])

    def test_quantile_zero_is_minimum(self):
        graph = graph_with_degrees([2, 5, 9])
        assert degree_threshold(graph, 0.0) == 0  # sinks have degree 0

    def test_pure_source_distribution(self):
        # degrees 1..100 exactly when every node has out-edges
        rows = []
        for i in range(1, 101):
            for j in range(i):
                rows.append(edge_row(0, i, 0, 0, (i + j + 1) % 101, 0.5))
        graph, _ = build(rows)
        degs = np.sort(graph.out_degrees(0))
        rank = max(1, int(np.ceil(0.9 * len(degs))))
        expected = int(degs[rank - 1])
        assert degree_threshold(graph, 0.9) == expected

    def test_empty_graph_error(self):
        graph, _ = build([])
        with pytest.raises(DensifyError):
            degree_threshold(graph, 0.5)


def make_table(vectors):
    table = ExternalEmbeddingTable(len(next(iter(vectors.values()))))
    for (nt, nid), vec in vectors.items():
        table.put(nt, nid, vec)
    return table


class TestExactKnn:
    def test_identical_vector_ranks_first(self):
        table = make_table({(0, 1): [1, 0], (0, 2): [0, 1], (0, 3): [0.5, 0.5]})
        cands = [NodeRef(0, 1, 0), NodeRef(0, 2, 1), NodeRef(0, 3, 2)]
        top = exact_knn(table, cands, np.array([1.0, 0.0]), k=1)
        assert top[0].node_id == 1

    def test_tie_break_by_index(self):
        table = make_table({(0, 1): [1, 0], (0, 2): [1, 0]})
        cands = [NodeRef(0, 2, 5), NodeRef(0, 1, 3)]
        top = exact_knn(table, cands, np.array([0.0, 1.0]), k=2)
        assert [c.node_id for c in top] == [1, 2]  # both cos 0, index order 3 < 5

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(13)
        vecs = {(0, i): rng.normal(size=8) for i in range(500)}
        table = make_table(vecs)
        cands = [NodeRef(0, i, i) for i in range(500)]
        query = rng.normal(size=8)
        top = exact_knn(table, cands, query, k=10)
        qn = np.linalg.norm(query)
        sims = {
            i: float(vecs[(0, i)] @ query / (np.linalg.norm(vecs[(0, i)]) * qn))
            for i in range(500)
        }
        oracle = sorted(range(500), key=lambda i: (-sims[i], i))[:10]
        assert [c.node_id for c in top] == oracle

    def test_zero_norm_query_error(self):
        table = make_table({(0, 1): [1, 0]})
        with pytest.raises(ValueError):
            exact_knn(table, [NodeRef(0, 1, 0)], np.zeros(2), k=1)

    def test_zero_norm_candidate_excluded(self):
        table = make_table({(0, 1): [0, 0], (0, 2): [1, 0]})
        cands = [NodeRef(0, 1, 0), NodeRef(0, 2, 1)]
        top = exact_knn(table, cands, np.array([1.0, 0.0]), k=5)
        assert [c.node_id for c in top] == [2]

    def test_fewer_candidates_than_k(self):
        table = make_table({(0, 1): [1, 0]})
        top = exact_knn(table, [NodeRef(0, 1, 0)], np.array([1.0, 0.0]), k=10)
        assert len(top) == 1


class TestDensify:
    # degree shape: six degree-0 sinks, node 1 at degree 1, node 2 at degree 6,
    # so quantiles (0.8, 0.95) put node 1 in the low set and node 2 in the high set
    def _two_node_setup(self):
        rows = [edge_row(0, 1, 0, 1, 100, 0.5)]
        rows += [edge_row(0, 2, 0, 1, 100 + j, 0.5) for j in range(6)]
        graph, _ = build(rows)
        vectors = {(0, 1): [1.0, 0.0], (0, 2): [0.9, 0.1]}
        for nid in range(100, 106):
            vectors[(1, nid)] = [0.0, 1.0]
        return graph, make_table(vectors)

    def test_one_low_one_high(self):
        graph, table = self._two_node_setup()
        cfg = DensifyConfig(0.8, 0.95, k=1, artificial_edge_type=9)
        result = densify(graph, table, cfg)
        lows = {e[0].ext() for e in result.edges}
        assert (0, 1) in lows
        pair = [e for e in result.edges if e[0].ext() == (0, 1)]
        assert pair[0][1].ext() == (0, 2)

    def test_artificial_edges_in_graph(self):
        graph, table = self._two_node_setup()
        cfg = DensifyConfig(0.8, 0.95, k=1, artificial_edge_type=9)
        result = densify(graph, table, cfg)
        ref = result.graph.node_ref(0, 1)
        adj = result.graph.adjacency(ref, 9)
        assert len(adj) == 1
        assert adj.weight[0] == 1.0

    def test_existing_edge_does_not_block_artificial(self):
        # low node already linked to its top-1 high node under edge type 0
        rows = [edge_row(0, 1, 0, 0, 2, 0.5)]
        rows += [edge_row(0, 2, 0, 1, 100 + j, 0.5) for j in range(6)]
        graph, _ = build(rows)
        vectors = {(0, 1): [1.0, 0.0], (0, 2): [1.0, 0.0]}
        for nid in range(100, 106):
            vectors[(1, nid)] = [0.0, 1.0]
        cfg = DensifyConfig(0.8, 0.95, k=1, artificial_edge_type=9)
        result = densify(graph, make_table(vectors), cfg)
        pair = [e for e in result.edges if e[0].ext() == (0, 1)]
        assert pair and pair[0][1].ext() == (0, 2)

    def test_uncovered_low_node_skipped(self):
        graph, table = self._two_node_setup()
        table2 = ExternalEmbeddingTable(2)
        table2.put(0, 2, [0.9, 0.1])  # only the high node covered
        cfg = DensifyConfig(0.8, 0.95, k=1, artificial_edge_type=9)
        result = densify(graph, table2, cfg)
        assert any(reason == "low_node_uncovered" for _, _, reason in result.skipped)

    def test_empty_high_set_error(self):
        rows = [edge_row(0, 1, 0, 1, 100, 0.5)]
        graph, _ = build(rows)
        table = ExternalEmbeddingTable(2)  # nothing covered
        with pytest.raises(DensifyError):
            densify(graph, table, DensifyConfig(0.3, 0.9, k=1))

    def _planted_clusters(self, rng, n_low=40, n_high=20, clusters=4):
        """Low/high nodes with one-hot-ish cluster indicator embeddings.

        High nodes share 12 sink targets and lows share one, keeping the
        degree-0 sink population small enough that the default quantiles
        (0.3, 0.9) land on thresholds 1 and 12.
        """
        rows = []
        vectors = {}
        high_cluster = {}
        for h in range(n_high):
            c = h % clusters
            high_cluster[(0, h)] = c
            for j in range(12):  # high out-degree, shared sinks
                rows.append(edge_row(0, h, 0, 1, 5000 + j, 0.5))
            vec = np.zeros(clusters)
            vec[c] = 1.0
            vectors[(0, h)] = vec + rng.normal(scale=0.05, size=clusters)
        low_cluster = {}
        for i in range(n_low):
            nid = 100 + i
            c = i % clusters
            low_cluster[(0, nid)] = c
            rows.append(edge_row(0, nid, 0, 1, 6000, 0.5))  # degree 1
            vec = np.zeros(clusters)
            vec[c] = 1.0
            vectors[(0, nid)] = vec + rng.normal(scale=0.05, size=clusters)
        graph, _ = build(rows)
        return graph, make_table(vectors), low_cluster, high_cluster

    def test_planted_clusters_stay_within_cluster(self):
        rng = np.random.default_rng(19)
        graph, table, low_cluster, high_cluster = self._planted_clusters(rng)
        cfg = DensifyConfig(0.3, 0.9, k=3, artificial_edge_type=9)
        result = densify(graph, table, cfg)
        assert result.edges
        for low, high in result.edges:
            if low.ext() in low_cluster:
                assert high_cluster[high.ext()] == low_cluster[low.ext()]

    def test_low_to_high_direction_only(self):
        rng = np.random.default_rng(19)
        graph, table, low_cluster, high_cluster = self._planted_clusters(rng)
        cfg = DensifyConfig(0.3, 0.9, k=3, artificial_edge_type=9)
        result = densify(graph, table, cfg)
        for low, high in result.edges:
            assert low.ext() in low_cluster or graph.out_degree(low) <= result.low_threshold
            assert high.ext() in high_cluster

    def test_out_degree_increases_by_k(self):
        rng = np.random.default_rng(19)
        graph, table, low_cluster, _ = self._planted_clusters(rng)
        cfg = DensifyConfig(0.3, 0.9, k=3, artificial_edge_type=9)
        result = densify(graph, table, cfg)
        for (nt, nid) in low_cluster:
            ref = result.graph.node_ref(nt, nid)
            assert result.graph.out_degree(ref, edge_types={9}) == 3

    def test_result_independent_of_input_order(self):
        rng = np.random.default_rng(19)
        graph, table, _, _ = self._planted_clusters(rng)
        cfg = DensifyConfig(0.3, 0.9, k=3, artificial_edge_type=9)
        a = densify(graph, table, cfg)
        b = densify(graph, table, cfg)
        assert [(l.ext(), h.ext()) for l, h in a.edges] == [
            (l.ext(), h.ext()) for l, h in b.edges
        ]


class TestBulkTopK:
    """``densify`` ranks every low node like ``exact_knn`` over the high set."""

    def _tie_setup(self):
        # high: type 0 ids 1..3 and type 1 ids 1..2 at degree 6; low: type 0
        # ids 10..13 at degree 1; six uncovered type-2 sinks at degree 0.
        # Quantiles (0.6, 0.7) give thresholds 1 and 6.
        rows = []
        for nt, nid in [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]:
            rows += [edge_row(nt, nid, 0, 2, 100 + j, 0.5) for j in range(6)]
        rows += [edge_row(0, nid, 0, 2, 100, 0.5) for nid in range(10, 14)]
        graph, _ = build(rows)
        table = make_table({
            (0, 1): [0.0, 1.0, 0.0],
            (0, 2): [0.0, 0.0, 0.0],   # zero-norm high node
            (0, 3): [1.0, 0.0, 0.0],   # exact tie with (1, 1) across types
            (1, 1): [1.0, 0.0, 0.0],
            (1, 2): [1.0, 1.0, 0.0],
            (0, 10): [1.0, 0.0, 0.0],
            (0, 11): [0.0, 1.0, 0.0],
            (0, 12): [1.0, 1.0, 1.0],
            (0, 13): [-1.0, 0.0, 0.0],
        })
        return graph, table

    def test_edges_equal_exact_knn_per_low_node(self):
        graph, table = self._tie_setup()
        cfg = DensifyConfig(0.6, 0.7, k=50, artificial_edge_type=9)  # k > 4 candidates
        result = densify(graph, table, cfg)
        assert (result.low_threshold, result.high_threshold) == (1, 6)
        high = [graph.node_ref_by_index(t, i) for t in graph.node_types
                for i, d in enumerate(graph.out_degrees(t)) if d >= 6]
        want = []
        for nid in range(10, 14):
            low = graph.node_ref(0, nid)
            want += [(low, h) for h in exact_knn(table, high, table.get(low), cfg.k)]
        assert result.edges == want
        first = [h.ext() for lo, h in result.edges if lo.ext() == (0, 10)]
        assert first == [(0, 3), (1, 1), (1, 2), (0, 1)]  # type breaks the tie

    def test_many_exact_ties_rank_by_type_then_index(self):
        # 40 high nodes over two types share three vectors, so scores tie in
        # three interleaved groups; degrees: six uncovered sinks at 0, low
        # node (0, 99) at 1, high nodes at 6
        highs = [(t, nid) for t in (0, 1) for nid in range(20)]
        group = {h: (7 * h[1] + h[0]) % 3 for h in highs}
        vectors = ([1.0, 0.0], [1.0, 1.0], [0.0, 1.0])  # best to worst for the query
        rows = [edge_row(nt, nid, 0, 2, 100 + j, 0.5) for nt, nid in highs for j in range(6)]
        rows.append(edge_row(0, 99, 0, 2, 100, 0.5))
        graph, _ = build(rows)
        query = [1.0, 0.2]
        table = make_table({**{h: vectors[group[h]] for h in highs}, (0, 99): query})
        result = densify(graph, table, DensifyConfig(0.14, 0.5, k=50, artificial_edge_type=9))
        want = sorted(highs, key=lambda h: (group[h], h))
        assert [h.ext() for _, h in result.edges] == want
        cands = [graph.node_ref(*h) for h in highs]
        shuffled = [cands[i] for i in np.random.default_rng(2).permutation(len(cands))]
        assert [c.ext() for c in exact_knn(table, shuffled, np.array(query), 50)] == want

    def test_no_self_loops_when_thresholds_coincide(self):
        # every node of a ring has out-degree 1, so thresholds are (1, 1) and
        # each node is both low and high
        rows = [edge_row(0, i, 0, 0, (i + 1) % 6, 0.5) for i in range(6)]
        graph, _ = build(rows)
        rng = np.random.default_rng(4)
        table = make_table({(0, i): rng.normal(size=3) for i in range(6)})
        result = densify(graph, table, DensifyConfig(k=2, artificial_edge_type=9))
        assert (result.low_threshold, result.high_threshold) == (1, 1)
        assert [lo for lo, hi in result.edges if lo == hi] == []
        nodes = [graph.node_ref(0, i) for i in range(6)]
        for low in nodes:
            others = [n for n in nodes if n != low]
            got = [hi for lo, hi in result.edges if lo == low]
            assert got == exact_knn(table, others, table.get(low), 2)

    def test_query_blocks_do_not_change_the_result(self, monkeypatch):
        # ring nodes are both low and high, and (0, 2) has a zero-norm row,
        # so block edges must keep each query aligned with its own exclusion
        rows = [edge_row(0, i, 0, 0, (i + 1) % 9, 0.5) for i in range(9)]
        graph, _ = build(rows)
        rng = np.random.default_rng(6)
        table = make_table({(0, i): rng.normal(size=3) * (i != 2) for i in range(9)})
        cfg = DensifyConfig(k=3, artificial_edge_type=9)
        whole = densify(graph, table, cfg)
        monkeypatch.setattr(densify_module, "_BLOCK_ENTRIES", 16)  # two queries per block
        blocked = densify(graph, table, cfg)
        assert blocked.edges == whole.edges and blocked.skipped == whole.skipped
        assert whole.skipped == [(0, 2, "low_node_zero_norm")] and len(whole.edges) == 24

    def test_zero_norm_low_node_is_skipped(self):
        graph, _ = TestDensify()._two_node_setup()
        vectors = {(0, 1): [0.0, 0.0], (0, 2): [0.9, 0.1]}
        vectors.update({(1, nid): [0.0, 1.0] for nid in range(100, 106)})
        cfg = DensifyConfig(0.8, 0.95, k=1, artificial_edge_type=9)
        result = densify(graph, make_table(vectors), cfg)
        assert (0, 1, "low_node_zero_norm") in result.skipped
        assert [lo.ext() for lo, _ in result.edges] == [(1, nid) for nid in range(100, 106)]
        assert len(result.graph.adjacency(result.graph.node_ref(0, 1), 9)) == 0

    @pytest.mark.parametrize("dim", [3, 8, 16, 33])
    def test_stacked_products_round_like_one_product_per_query(self, dim):
        # densify scores a block of queries with stacked matmuls and relies
        # on them rounding exactly like ``mat @ q`` and ``np.linalg.norm(q)``
        # per query, which keeps its rankings equal to exact_knn's bit for bit
        rng = np.random.default_rng(dim)
        mat = rng.normal(size=(101, dim))
        q = rng.normal(size=(37, dim)) * 10.0 ** rng.integers(-3, 4, size=(37, 1))
        stacked = (mat @ q[:, :, None])[:, :, 0]
        assert stacked.tobytes() == np.stack([mat @ row.copy() for row in q]).tobytes()
        norms = np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])
        assert norms.tobytes() == np.array([np.linalg.norm(row.copy()) for row in q]).tobytes()
