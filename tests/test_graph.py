"""Graph store: construction, rejection, degrees, temporal cuts, round-trip."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lignn.densify import DensifyConfig, ExternalEmbeddingTable, densify
from lignn.graph import (
    MAX_NODE_ID,
    EdgeKind,
    GraphSchema,
    MissingNodeError,
    SchemaError,
    build_graph,
)
from lignn.pipeline import DUMMY_ITEM_ID
from lignn.service import wire

from conftest import build, edge_row, node_row, random_weighted_digraph, schema
from oracles import GlobalIndex, fold_edges, merged_view


class TestSchema:
    def test_parse(self):
        sch = schema()
        assert sch.edge_kinds[0] == EdgeKind.ENGAGEMENT
        assert sch.edge_kinds[2] == EdgeKind.ATTRIBUTE
        assert 99 not in sch.edge_kinds
        assert sch.feature_dims == {0: 4, 1: 4}

    def test_comments_and_blanks(self):
        sch = GraphSchema.parse("# hi\n\nedge.5 = affinity  # trailing\n")
        assert sch.edge_kinds[5] == EdgeKind.AFFINITY

    @pytest.mark.parametrize("bad", ["edge.x = affinity", "edge.1 = bogus", "nokey"])
    def test_rejects(self, bad):
        with pytest.raises(SchemaError):
            GraphSchema.parse(bad)

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    def test_bad_feature_dim_names_its_line(self, value):
        with pytest.raises(SchemaError, match="line 2"):
            GraphSchema.parse(f"edge.0 = affinity\nfeatures.0 = {value}\n")

    @pytest.mark.parametrize("edge_type", ["70000", "65536", "-3"])
    def test_edge_type_outside_the_wire_names_its_line(self, edge_type):
        with pytest.raises(SchemaError, match="line 2"):
            GraphSchema.parse(f"edge.0 = affinity\nedge.{edge_type} = engagement\n")

    @pytest.mark.parametrize("node_type", ["40000", "32768", "-3"])
    def test_feature_node_type_out_of_range_names_its_line(self, node_type):
        with pytest.raises(SchemaError, match="line 2"):
            GraphSchema.parse(f"edge.0 = affinity\nfeatures.{node_type} = 4\n")
        assert GraphSchema.parse("features.32767 = 4\n").feature_dims == {32767: 4}

    def test_largest_edge_type_reaches_the_wire(self):
        sch = GraphSchema.parse("edge.65535 = engagement\n")
        [edge_type] = sch.edge_kinds
        wire.encode_request(wire.TemporalLastNRequest(wire.WireNode(0, 1), edge_type))


class TestBuild:
    def test_minimal_graph(self):
        graph, report = build([edge_row(0, 1, 0, 1, 2, 0.7)])
        src = graph.node_ref(0, 1)
        assert graph.out_degree(src) == 1
        adj = graph.adjacency(src, 0)
        assert adj.weight[0] == pytest.approx(0.7)
        assert report.total_edges == 1
        assert report.node_counts == {0: 1, 1: 1}

    def test_attribute_weight_must_be_one(self):
        graph, report = build([edge_row(0, 1, 2, 1, 2, 2.0)])
        assert report.rejected_rows == 1
        assert report.rejected_reasons == {"attribute_weight_not_one": 1}
        assert report.total_edges == 0

    def test_unknown_edge_type_rejected(self):
        _, report = build([edge_row(0, 1, 77, 1, 2, 0.5)])
        assert report.rejected_reasons == {"unknown_edge_type": 1}

    @pytest.mark.parametrize("edges,nodes,reason", [
        ([edge_row(0, 1, 0, 40000, 2, 0.5)], [], "node_type_out_of_range"),
        ([edge_row(0, -5, 0, 1, 2, 0.5)], [], "node_id_out_of_range"),
        ([edge_row(0, 1, 0, 1, 1 << 64, 0.5)], [], "node_id_out_of_range"),
        ([edge_row(70000, 1, 0, 1, 2, 0.5)], [], "node_type_out_of_range"),
        ([edge_row(0, 1, 0, 1, DUMMY_ITEM_ID, 0.5)], [], "node_id_out_of_range"),
        ([], [node_row(-1, 7, [0.0])], "node_type_out_of_range"),
        ([], [node_row(1, 1 << 64, [0.0] * 4)], "node_id_out_of_range"),
    ], ids=["dst_type_40000", "src_id_-5", "dst_id_2^64", "src_type_70000", "dst_id_dummy",
            "node_type_-1", "node_id_2^64"])
    def test_out_of_range_identity_rejected(self, edges, nodes, reason):
        graph, report = build(edges + [edge_row(0, 1, 0, 1, 3, 0.5)], nodes)
        assert report.rejected_reasons == {reason: 1}
        assert report.total_edges == 1
        assert graph.num_nodes() == 2

    def test_identity_range_bounds_accepted(self):
        graph, report = build([edge_row(32767, MAX_NODE_ID, 0, 0, 0, 0.5)])
        assert report.rejected_rows == 0
        src = graph.node_ref(32767, MAX_NODE_ID)
        assert graph.adjacency(src, 0).dst_type[0] == 0

    def test_malformed_line_rejected(self):
        _, report = build(["not a real row\n", edge_row(0, 1, 0, 1, 2, 0.5)])
        assert report.rejected_rows == 1
        assert report.total_edges == 1

    def test_nonpositive_weight_rejected(self):
        _, report = build([edge_row(0, 1, 0, 1, 2, -0.5), edge_row(0, 1, 0, 1, 3, 0.0)])
        assert report.rejected_reasons == {"nonpositive_weight": 2}

    def test_missing_timestamp_defaults_to_zero(self):
        graph, _ = build(["0\t1\t0\t1\t2\t0.5\n"])
        adj = graph.adjacency(graph.node_ref(0, 1), 0)
        assert adj.timestamp[0] == 0

    @pytest.mark.parametrize("ts", [str(1 << 63), "99999999999999999999",
                                    str(-(1 << 63) - 1), "-99999999999999999999"])
    def test_out_of_range_timestamp_rejected(self, ts):
        rows = [f"0\t1\t0\t1\t5\t1.0\t{ts}\n", edge_row(0, 1, 0, 1, 3, 0.5)]
        graph, report = build(rows)
        assert report.rejected_reasons == {"timestamp_out_of_range": 1}
        assert report.total_edges == 1

    def test_timestamp_rule_follows_the_weight_rules(self):
        far = "99999999999999999999"
        rows = [f"0\t1\t{et}\t1\t5\t{w}\t{far}\n" for et, w in ((9, 1.0), (2, 2.0), (0, -1.0))]
        rows += [edge_row(0, 1, 0, 1, 3, 0.5, ts=(1 << 63) - 1), edge_row(0, 1, 0, 1, 4, 0.5, ts=-(1 << 63))]
        graph, report = build(rows)
        assert report.rejected_reasons == {
            "unknown_edge_type": 1, "attribute_weight_not_one": 1, "nonpositive_weight": 1}
        assert graph.adjacency(graph.node_ref(0, 1), 0).timestamp.tolist() == [-(1 << 63), (1 << 63) - 1]

    def test_duplicates_keep_max_weight(self):
        rows = [
            edge_row(0, 1, 0, 1, 2, 0.3, ts=5),
            edge_row(0, 1, 0, 1, 2, 0.9, ts=5),
            edge_row(0, 1, 0, 1, 2, 0.5, ts=5),
        ]
        graph, report = build(rows)
        adj = graph.adjacency(graph.node_ref(0, 1), 0)
        assert len(adj) == 1
        assert adj.weight[0] == pytest.approx(0.9)
        assert report.duplicates_collapsed == 2

    def test_dedup_count_matches_sort_unique_oracle(self):
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(97):
            rows.append((0, int(rng.integers(0, 30)), 0, 1, int(rng.integers(0, 30)),
                         round(float(rng.uniform(0.1, 1.0)), 3), int(rng.integers(0, 5))))
        # plant 3 duplicates (same src/et/dst/ts, different weight)
        dups = [rows[0], rows[10], rows[20]]
        all_rows = rows + [(s, a, e, d, b, w + 0.01, t) for s, a, e, d, b, w, t in dups]
        lines = [edge_row(s, a, e, d, b, w, t) for s, a, e, d, b, w, t in all_rows]
        graph, report = build(lines)
        unique = {(s, a, e, d, b, t) for s, a, e, d, b, _, t in all_rows}
        assert report.total_edges == len(unique)
        assert report.duplicates_collapsed == len(all_rows) - len(unique)

    def test_feature_rows(self, tiny_graph):
        graph, _ = tiny_graph
        ref = graph.node_ref(0, 10)
        np.testing.assert_allclose(graph.features_of(ref), [1.0, 0.0, 0.0, 0.0])

    def test_feature_dim_mismatch_rejected(self):
        _, report = build([], [node_row(0, 1, [1.0, 2.0])])  # schema declares dim 4
        assert report.rejected_reasons == {"feature_dim_mismatch": 1}

    def test_node_without_features_reports_none(self):
        graph, _ = build([edge_row(0, 1, 0, 1, 2, 0.5)])
        assert graph.features_of(graph.node_ref(0, 1)) is None


class TestOutDegree:
    def test_isolated_node(self):
        graph, _ = build([], [node_row(0, 5, [0, 0, 0, 0])])
        assert graph.out_degree(graph.node_ref(0, 5)) == 0

    def test_filter_by_edge_type(self):
        rows = [edge_row(0, 1, 0, 1, k, 0.5) for k in range(3)]
        rows += [edge_row(0, 1, 2, 1, k, 1.0) for k in (10, 11)]
        graph, _ = build(rows)
        ref = graph.node_ref(0, 1)
        assert graph.out_degree(ref, edge_types={0}) == 3
        assert graph.out_degree(ref, edge_types={2}) == 2
        assert graph.out_degree(ref) == 5

    def test_unknown_node_raises(self, tiny_graph):
        graph, _ = tiny_graph
        from lignn.graph import NodeRef

        with pytest.raises(MissingNodeError):
            graph.out_degree(NodeRef(0, 999, 0))

    def test_degrees_match_recount_from_rows(self):
        rng = np.random.default_rng(3)
        lines = random_weighted_digraph(rng, 50, 4.0)
        graph, _ = build(lines)
        recount: dict[int, int] = {}
        for line in lines:
            parts = line.split("\t")
            recount[int(parts[1])] = recount.get(int(parts[1]), 0) + 1
        for nid, deg in recount.items():
            assert graph.out_degree(graph.node_ref(0, nid)) == deg

    def test_degree_sum_equals_edge_count(self):
        rng = np.random.default_rng(4)
        graph, report = build(random_weighted_digraph(rng, 40, 3.0))
        assert int(graph.out_degrees(0).sum()) == report.total_edges


class TestTemporalCut:
    def _graph(self, stamps):
        rows = [edge_row(0, 1, 0, 1, 100 + i, 0.5, ts=t) for i, t in enumerate(stamps)]
        graph, _ = build(rows)
        return graph, graph.node_ref(0, 1)

    def test_before_everything(self):
        graph, ref = self._graph([10, 20, 30])
        assert len(graph.temporal_cut(ref, 0, 5)) == 0

    def test_infinity_returns_all(self):
        graph, ref = self._graph([10, 20, 30])
        assert len(graph.temporal_cut(ref, 0, math.inf)) == 3

    def test_strictly_less_than(self):
        graph, ref = self._graph([10, 20, 30])
        assert len(graph.temporal_cut(ref, 0, 20)) == 1

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(9)
        stamps = sorted(int(t) for t in rng.integers(0, 1000, size=20))
        graph, ref = self._graph(stamps)
        t = stamps[10]
        cut = graph.temporal_cut(ref, 0, t)
        assert len(cut) == sum(1 for s in stamps if s < t)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=15), st.integers(0, 100),
           st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_prefix_property(self, stamps, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        graph, ref = self._graph(sorted(stamps))
        a = graph.temporal_cut(ref, 0, t1)
        b = graph.temporal_cut(ref, 0, t2)
        assert len(a) <= len(b)
        np.testing.assert_array_equal(a.timestamp, b.timestamp[: len(a)])
        np.testing.assert_array_equal(a.dst_id, b.dst_id[: len(a)])


class TestRoundTrip:
    def test_rebuild_from_dump_is_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        lines = random_weighted_digraph(rng, 30, 3.0)
        lines += [edge_row(0, i, 2, 1, 900 + i, 1.0) for i in range(5)]
        nodes = [node_row(0, i, rng.normal(size=4)) for i in range(30)]
        graph, _ = build(lines, nodes)
        dump = tmp_path / "edges.tsv"
        graph.dump_edges(str(dump))
        with open(dump) as fh:
            graph2, _ = build(list(fh), nodes)
        for key in (0, 2):
            for st_ in graph.node_types:
                b1 = graph._blocks.get((st_, key))
                b2 = graph2._blocks.get((st_, key))
                if b1 is None:
                    assert b2 is None
                    continue
                np.testing.assert_array_equal(b1.indptr, b2.indptr)
                np.testing.assert_array_equal(b1.dst_id, b2.dst_id)
                np.testing.assert_array_equal(b1.weight, b2.weight)
                np.testing.assert_array_equal(b1.timestamp, b2.timestamp)


class TestEpochSwap:
    def test_insert_preserves_base(self, tiny_graph):
        graph, _ = tiny_graph
        src = graph.node_ref(0, 10)
        dst = graph.node_ref(1, 101)
        g2 = graph.with_updated_run(src, 0, dst, 0.8, 70)
        assert graph.out_degree(src, edge_types={0}) == 2
        assert g2.out_degree(g2.node_ref(0, 10), edge_types={0}) == 3
        adj = g2.adjacency(src, 0)
        assert list(adj.timestamp) == [50, 60, 70]

    def test_same_dst_ts_updates_to_max_weight(self, tiny_graph):
        graph, _ = tiny_graph
        src = graph.node_ref(0, 10)
        dst = graph.node_ref(1, 100)
        g2 = graph.with_updated_run(src, 0, dst, 0.2, 50)
        adj = g2.adjacency(src, 0)
        assert adj.weight[0] == pytest.approx(0.7)  # max(0.7, 0.2)
        g3 = graph.with_updated_run(src, 0, dst, 0.95, 50)
        assert g3.adjacency(src, 0).weight[0] == pytest.approx(0.95)

    def test_insert_keeps_timestamp_order(self, tiny_graph):
        graph, _ = tiny_graph
        src = graph.node_ref(0, 10)
        dst = graph.node_ref(1, 101)
        g2 = graph.with_updated_run(src, 0, dst, 0.8, 55)
        assert list(g2.adjacency(src, 0).timestamp) == [50, 55, 60]

    def test_edge_count_tracks_overlay(self, tiny_graph):
        graph, _ = tiny_graph
        before = graph.num_edges()
        src = graph.node_ref(0, 10)
        dst = graph.node_ref(1, 101)
        g2 = graph.with_updated_run(src, 0, dst, 0.8, 70)
        assert g2.num_edges() == before + 1

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_weight_raises(self, tiny_graph, weight):
        graph, _ = tiny_graph
        src, dst = graph.node_ref(0, 10), graph.node_ref(1, 101)
        view, edges = view_of(graph, src), graph.num_edges()
        run = _run_bytes(graph.adjacency(src, 0))
        with pytest.raises(ValueError, match="weight"):
            graph.with_updated_run(src, 0, dst, weight, 70)
        with pytest.raises(ValueError, match="weight"):
            graph.with_added_edges([(src, 0, dst, 1.0, 70), (src, 0, dst, weight, 80)])
        assert view_of(graph, src) is view
        assert graph.num_edges() == edges
        assert _run_bytes(graph.adjacency(src, 0)) == run


# nodes of the swap tests: type 0 ids 1..4 and type 1 ids 7..8, every one present
_SWAP_NODES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 7), (1, 8)]
_SWAP_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 2.0])
_SWAP_TS = st.sampled_from([0, 10, 20])
_BASE_EDGES = st.lists(st.tuples(
    st.integers(0, 5), st.sampled_from([0, 1]), st.integers(0, 5), _SWAP_WEIGHTS, _SWAP_TS,
), max_size=25)
# edge type 5 is in no base graph
_ADDED_EDGES = st.lists(st.tuples(
    st.integers(0, 5), st.sampled_from([0, 1, 5]), st.integers(0, 5), _SWAP_WEIGHTS, _SWAP_TS,
), min_size=1, max_size=25)


def _swap_graph(base_edges):
    rows = [edge_row(*_SWAP_NODES[s], et, *_SWAP_NODES[d], w, ts=ts)
            for s, et, d, w, ts in base_edges]
    nodes = [node_row(nt, nid, [0.0] * 4) for nt, nid in _SWAP_NODES]
    graph, _ = build(rows, nodes)
    return graph


def _run_bytes(run):
    return [(a.dtype.str, a.tobytes()) for a in run]


def view_of(graph, ref):
    """The merged view of the node ``ref`` names."""
    return graph.merged_neighbors(graph.key(ref))


def view_refs(graph, view):
    """The NodeRefs of a view's neighbours."""
    return graph.refs(view.keys.tolist())


def _oracle_view_bytes(graph, ref):
    """``_run_bytes`` of the dict-merge view of ``ref`` (``oracles.merged_view``):
    the keys are flat (type, index) positions, which sort like (type, id)."""
    refs, weights = merged_view(graph, ref)
    keys = np.array([GlobalIndex(graph).gidx(r) for r in refs], dtype=np.int64)
    return _run_bytes((keys, weights))


class TestAddedEdges:
    """``with_added_edges`` equals inserting its edges one at a time."""

    @given(_BASE_EDGES, _ADDED_EDGES)
    @example(  # (dst, ts) duplicates against the base run and within the batch
        [(0, 0, 4, 0.5, 10), (0, 0, 5, 0.5, 10), (1, 0, 4, 1.0, 0)],
        [(0, 0, 4, 2.0, 10), (0, 0, 2, 0.25, 10), (0, 0, 2, 1.0, 10),
         (0, 0, 2, 0.5, 10), (1, 0, 4, 0.25, 0), (3, 5, 0, 1.0, 20)],
    )
    @example([], [(2, 1, 3, 1.0, 0), (2, 1, 4, 1.0, 0), (2, 1, 3, 0.5, 0)])  # empty runs
    @settings(max_examples=150, deadline=None)
    def test_equals_one_edge_fold(self, base_edges, added):
        graph = _swap_graph(base_edges)
        refs = [graph.node_ref(nt, nid) for nt, nid in _SWAP_NODES]
        parent_views = {ref: view_of(graph, ref) for ref in refs}
        parent_runs = {(ref, et): _run_bytes(graph.adjacency(ref, et))
                       for ref in refs for et in (0, 1, 5)}
        edges = [(refs[s], et, refs[d], w, ts) for s, et, d, w, ts in added]

        new = graph.with_added_edges(edges)

        want = fold_edges(graph, edges)
        for ref in refs:
            for et in (0, 1, 5):
                run = want.get((ref.node_type, et, ref.index), graph.adjacency(ref, et))
                assert _run_bytes(new.adjacency(ref, et)) == _run_bytes(run)
                assert _run_bytes(graph.adjacency(ref, et)) == parent_runs[(ref, et)]
        assert new.edge_types == tuple(sorted(set(graph.edge_types) | {e[1] for e in added}))
        assert new.num_edges() == graph.num_edges() + sum(
            len(run) - len(graph.adjacency(graph.node_ref_by_index(st_, idx), et))
            for (st_, et, idx), run in want.items()
        )
        changed = {(st_, idx) for st_, _, idx in want}
        for ref in refs:
            view = view_of(new, ref)
            assert (view is not parent_views[ref]) == ((ref.node_type, ref.index) in changed)
            assert view_of(graph, ref) is parent_views[ref]
        # a second swap on the child: the reversed edges, as edge type 5
        newer = new.with_added_edges([(d, 5, s, w, ts) for s, _, d, w, ts in edges])
        for epoch in (graph, new, newer):
            for ref in refs:
                assert _run_bytes(view_of(epoch, ref)) == _oracle_view_bytes(epoch, ref)

    def test_batch_order_on_equal_timestamps(self):
        graph = _swap_graph([(0, 0, 4, 0.5, 10)])
        src, a, b = graph.node_ref(0, 1), graph.node_ref(0, 2), graph.node_ref(0, 3)
        new = graph.with_added_edges([
            (src, 0, a, 1.0, 10), (src, 0, b, 1.0, 10), (src, 0, a, 3.0, 10),
        ])
        run = new.adjacency(src, 0)
        # each new edge goes before the edges already at its timestamp
        assert run.dst_id.tolist() == [3, 2, 7]
        assert run.weight.tolist() == [1.0, 3.0, 0.5]

    def test_new_epoch_shares_node_refs(self, tiny_graph):
        graph, _ = tiny_graph
        src, dst = graph.node_ref(0, 10), graph.node_ref(1, 101)
        g2 = graph.with_added_edges([(src, 0, dst, 2.0, 55), (dst, 9, src, 1.0, 0)])
        for t in graph.node_types:
            for nid in graph.node_ids(t).tolist():
                assert g2.node_ref(t, nid) is graph.node_ref(t, nid)

    def test_swap_copies_only_changed_runs_and_rows(self):
        rng = np.random.default_rng(5)
        graph, _ = build(random_weighted_digraph(rng, 50, 3.0))
        for i in range(50):
            view_of(graph, graph.node_ref(0, i))
        epoch, runs = graph, set()
        for k in range(12):
            src, dst = epoch.node_ref(0, k % 5), epoch.node_ref(0, 20 + k)
            nxt = epoch.with_updated_run(src, k % 2, dst, 1.0, 100 + k)
            runs.add((k % 2, src.index))
            # the containers the child does not share with its parent
            copied = [v for name, v in vars(nxt).items()
                      if isinstance(v, dict) and v is not vars(epoch)[name]]
            assert sum(map(len, copied)) == len(runs) + len({idx for _, idx in runs})
            epoch = nxt

    def test_no_edges_is_the_same_epoch(self, tiny_graph):
        graph, _ = tiny_graph
        assert graph.with_added_edges([]) is graph


def _densified(rng):
    """A multi-type graph with every node's view read, then densified."""
    lines = random_weighted_digraph(rng, 40, 2.0)
    lines += [edge_row(0, i, 1, 0, (i * 7) % 40, 0.25) for i in range(0, 40, 3)]
    lines += [edge_row(0, i, 2, 1, 900 + i % 6, 1.0) for i in range(0, 40, 2)]
    nodes = [node_row(0, i, rng.normal(size=4)) for i in range(40)]
    nodes += [node_row(1, 900 + j, rng.normal(size=4)) for j in range(6)]
    sch = GraphSchema.parse("edge.0 = engagement\nedge.1 = affinity\n"
                            "edge.2 = attribute\nedge.9 = affinity\n")
    graph, _ = build_graph(lines, nodes, sch)
    for t in graph.node_types:
        for i in range(graph.num_nodes(t)):
            view_of(graph, graph.node_ref_by_index(t, i))
    table = ExternalEmbeddingTable(3)
    for t in graph.node_types:
        for nid in graph.node_ids(t).tolist():
            table.put(t, nid, rng.normal(size=3).tolist())
    cfg = DensifyConfig(0.3, 0.8, k=3, artificial_edge_type=9)
    return densify(graph, table, cfg).graph, nodes, sch


class TestMergedView:
    def test_swap_leaves_parent_view_and_updates_child(self, tiny_graph):
        graph, _ = tiny_graph
        src = graph.node_ref(0, 10)
        before = view_of(graph, src)
        g2 = graph.with_updated_run(src, 9, graph.node_ref(0, 11), 0.8, 70)
        assert view_of(graph, src) is before
        assert [r.ext() for r in view_refs(graph, before)] == [(1, 100), (1, 101)]
        view = view_of(g2, g2.node_ref(0, 10))
        assert [r.ext() for r in view_refs(g2, view)] == [(0, 11), (1, 100), (1, 101)]
        np.testing.assert_array_equal(view.weights, [0.8, 0.7, 0.3])
        assert graph.edge_types == (0, 1, 2)
        assert g2.edge_types == (0, 1, 2, 9)

    def test_untouched_node_view_is_shared(self, tiny_graph):
        graph, _ = tiny_graph
        other = graph.node_ref(0, 11)
        view = view_of(graph, other)
        g2 = graph.with_updated_run(graph.node_ref(0, 10), 0, graph.node_ref(1, 101), 0.8, 70)
        assert view_of(g2, g2.node_ref(0, 11)) is view
        assert view_refs(g2, view)[0] is g2.node_ref(0, 10)

    @pytest.mark.parametrize("extra_dst_type", [None, 0, 1],
                             ids=["one-edge-type", "parallel-edge-types", "cross-node-types"])
    def test_view_equals_merged_view_oracle(self, extra_dst_type):
        rng = np.random.default_rng(8)
        lines = random_weighted_digraph(rng, 25, 3.0)
        if extra_dst_type is not None:
            lines += [edge_row(0, i, 1, extra_dst_type, (i * 3) % 25, 0.1 + i / 50)
                      for i in range(25)]
        graph, _ = build(lines)
        for i in range(25):
            ref = graph.node_ref(0, i)
            assert _run_bytes(view_of(graph, ref)) == _oracle_view_bytes(graph, ref)

    def test_weights_are_read_only(self, tiny_graph):
        graph, _ = tiny_graph
        keys, weights = view_of(graph, graph.node_ref(0, 10))
        with pytest.raises(ValueError):
            weights[0] = 5.0
        with pytest.raises(ValueError):
            keys[0] = 0

    def test_keys_name_nodes_and_their_wire_identity(self, tiny_graph):
        graph, _ = tiny_graph
        refs = [graph.node_ref_by_index(t, i)
                for t in graph.node_types for i in range(graph.num_nodes(t))]
        keys = [graph.key(ref) for ref in refs]
        assert keys == list(range(len(refs)))  # sorted like (node_type, node_id)
        assert graph.key(tuple(refs[3].ext())) == 3
        assert graph.refs(keys) == refs and graph.refs(keys)[3] is refs[3]
        types, ids = graph.key_exts(np.array(keys[::-1]))
        assert (types.dtype, ids.dtype) == (np.uint16, np.uint64)
        assert list(zip(types.tolist(), ids.tolist())) == [r.ext() for r in refs[::-1]]
        with pytest.raises(MissingNodeError):
            graph.key((0, 999))

    def test_densified_views_equal_rebuilt_graph(self, tmp_path):
        graph, nodes, sch = _densified(np.random.default_rng(12))
        dump = tmp_path / "edges.tsv"
        graph.dump_edges(str(dump))
        with open(dump) as fh:
            rebuilt, _ = build_graph(list(fh), nodes, sch)
        assert rebuilt.edge_types == graph.edge_types
        for t in graph.node_types:
            for i in range(graph.num_nodes(t)):
                view = view_of(graph, graph.node_ref_by_index(t, i))
                rview = view_of(rebuilt, rebuilt.node_ref_by_index(t, i))
                assert view_refs(graph, view) == view_refs(rebuilt, rview)
                assert view.weights.tobytes() == rview.weights.tobytes()

    def test_threaded_reads_equal_serial_views(self):
        rng = np.random.default_rng(4)
        lines = random_weighted_digraph(rng, 60, 4.0)
        serial, _ = build(lines)
        expect = [view_of(serial, serial.node_ref(0, i)) for i in range(60)]
        shared, _ = build(lines)
        results: list[list] = [[] for _ in range(8)]

        def read(k):
            order = np.random.default_rng(k).permutation(60).tolist() * 3
            for i in order:
                keys, weights = view_of(shared, shared.node_ref(0, i))
                results[k].append((i, keys.tobytes(), weights.tobytes()))

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
        for rows in results:
            assert len(rows) == 180
            for i, kbytes, wbytes in rows:
                assert kbytes == expect[i].keys.tobytes() and wbytes == expect[i].weights.tobytes()
