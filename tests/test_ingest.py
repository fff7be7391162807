"""Columnar ingest and shard routing equal the row-at-a-time oracles.

``build_graph`` must give the same CSR arrays (dtype and bytes), node ids,
features, feature masks and ``GraphBuildReport`` as ``build_graph_rowwise``,
and ``shard_edge_lines`` the same rows per shard as
``shard_edge_lines_rowwise``, on well-formed and odd rows alike.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lignn import graph as graph_mod
from lignn.graph import MASK64, MAX_NODE_ID, GraphSchema, build_graph, mix64, mix64_array
from lignn.service.partition import PartitionMap, shard_edge_lines

from conftest import edge_row, node_row, random_weighted_digraph
from oracles import build_graph_rowwise, shard_edge_lines_rowwise

SCHEMA = GraphSchema.parse("edge.0 = engagement\nedge.1 = affinity\nedge.2 = attribute\n"
                           "features.0 = 2\n")

TYPES = ["0", "1", "32767", "32768", "-1", "x"]
IDS = ["0", "1", "2", "1_0", "-3", str(1 << 63), str(MAX_NODE_ID), str(MASK64), str(1 << 64), ""]
EDGE_TYPES = ["0", "1", "2", "9", "-1"]
WEIGHTS = ["0.5", "1.0", "1", "2.0", "nan", "inf", "-inf", "0", "-0.5", "1e400", "w"]
STAMPS = ["0", "5", "7", "-2", "", str((1 << 63) - 1), str(-(1 << 63)), "t"]
FEATURES = ["0.5", "1", "-2", "nan", "inf", "x", "", "1_5"]


def _token(common: list[str], rare: list[str]) -> st.SearchStrategy:
    """A common or rare token, sometimes padded with spaces on both sides."""
    token = st.sampled_from(common) | st.sampled_from(rare)
    return st.tuples(token, st.sampled_from(["", " ", "  "])).map(lambda t: t[1] + t[0] + t[1])


def _row(tokens: list, columns: list[int]) -> st.SearchStrategy:
    """The first ``columns`` of ``tokens``, tab-joined, with a line ending
    (none, as on a last row)."""
    return st.builds(lambda parts, n, end: "\t".join(parts[:n]) + end,
                     st.tuples(*tokens), st.sampled_from(columns),
                     st.sampled_from(["\n", "\n", "\n", "\r\n", ""]))


_EDGE = _row([
    _token(TYPES[:3], TYPES), _token(IDS[:3], IDS), _token(EDGE_TYPES[:3], EDGE_TYPES),
    _token(TYPES[:2], TYPES), _token(IDS[:3], IDS), _token(WEIGHTS[:3], WEIGHTS),
    _token(STAMPS[:3], STAMPS), st.just("3"),
], [7, 7, 7, 6, 5, 8])
edge_rows = st.one_of(*[_EDGE] * 8, st.sampled_from(["\n", "   \n", "\t\t\t\t\t\t\n", ""]),
                      st.sampled_from(["# note\n", "#0\t1\t0\t1\t2\t1.0\t5\n", "  #\t1\n"]))
_NODE = _row([
    _token(TYPES[:2], TYPES), _token(IDS[:3], IDS),
    st.lists(st.sampled_from(FEATURES[:3]) | st.sampled_from(FEATURES), min_size=1,
             max_size=4).map(",".join),
    st.just("9"),
], [3, 3, 3, 2, 4])
node_rows = st.one_of(*[_NODE] * 8, st.sampled_from(["\n", "# features\n", "  \t \n"]))


def assert_same_build(built, expected) -> None:
    (graph, report), (want, want_report) = built, expected
    assert report == want_report
    assert list(graph._node_ids) == list(want._node_ids)
    # int keys, as a float key would print as "0.0" in the build report
    assert {type(k) for k in [*graph._node_ids, *report.node_counts, *report.edge_counts,
                              *(k for key in graph._blocks for k in key)]} <= {int}
    for t in want._node_ids:
        for got, ref in ((graph._node_ids[t], want._node_ids[t]),
                         (graph._features[t], want._features[t]),
                         (graph._feature_mask[t], want._feature_mask[t])):
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()
    assert list(graph._blocks) == list(want._blocks)
    for key, ref in want._blocks.items():
        for slot in ref.__slots__:
            got, exp = getattr(graph._blocks[key], slot), getattr(ref, slot)
            assert got.dtype == exp.dtype, (key, slot)
            assert got.tobytes() == exp.tobytes(), (key, slot)


def assert_same_split(rows) -> None:
    for count in (1, 2, 3):
        pmap = PartitionMap(("127.0.0.1:0",) * count)
        for shard in range(count):
            assert (list(shard_edge_lines(rows, pmap, shard))
                    == list(shard_edge_lines_rowwise(rows, pmap, shard)))


@settings(max_examples=150, deadline=None)
@given(st.lists(edge_rows, max_size=30), st.lists(node_rows, max_size=12),
       st.integers(1, 8))
def test_equals_row_oracle(edges, nodes, chunk_rows):
    """Chunks of 1 to 8 rows, so most draws span several."""
    with mock.patch.object(graph_mod, "_CHUNK_ROWS", chunk_rows):
        assert_same_build(build_graph(edges, nodes, SCHEMA), build_graph_rowwise(edges, nodes, SCHEMA))
        assert_same_split(edges)


def test_equals_row_oracle_past_one_chunk():
    rng = np.random.default_rng(5)
    edges = random_weighted_digraph(rng, 700, 4.0)
    edges += [edge_row(0, int(u), 1, 1, int(v), 1.0, ts=int(t))
              for u, v, t in rng.integers(0, 700, size=(300, 3))]
    edges += edges[:50]  # duplicates
    planted = ["0\t1\t0\t1\t5\t1.0\n", " 0 \t1_0\t0\t1\t5\t2.0\t\r\n", "0\tx\t0\t1\t5\t1.0\t7\n",
               f"0\t{1 << 63}\t2\t1\t{MAX_NODE_ID}\t1.0\t3\n", f"0\t1\t0\t1\t{MASK64}\t1.0\t7\n",
               "0\t1\t0\t1\t5\tnan\t7\n", "\t\t\t\t\t\t\n", "# comment\n", "0\t1\t0\n"]
    for at, row in zip(range(0, len(edges), 331), planted * 3):
        edges.insert(at, row)
    edges.append("0\t3\t0\t1\t4\t0.25\t9")
    nodes = [node_row(0, i, rng.normal(size=2)) for i in range(0, 700, 3)]
    nodes += [node_row(1, 5, [1.0, 2.0, 3.0]), node_row(0, 4, [1.0]), "0\t7\t1,nan\n",
              node_row(0, 3, [9.0, 9.0])]
    assert len(edges) > 3 * graph_mod._CHUNK_ROWS
    assert_same_build(build_graph(edges, nodes, SCHEMA), build_graph_rowwise(edges, nodes, SCHEMA))
    assert_same_split(edges)


@pytest.mark.parametrize("parts", [
    [0], [MASK64], [-1], [-(1 << 63)], [1 << 63], [MASK64 - 1],
    [3, -7], [(1 << 63) + 5, 12345], [0, MASK64],
])
def test_mix64_array_equals_scalar(parts):
    rng = np.random.default_rng(len(parts))
    columns = [np.array([p, 0, 1, p ^ 1] + rng.integers(0, 1 << 62, size=4).tolist(),
                        dtype=np.uint64 if p >= 1 << 63 else np.int64)
               for p in parts]
    got = mix64_array(*columns)
    assert got.dtype == np.uint64
    want = [mix64(*(int(c[i]) for c in columns)) for i in range(len(columns[0]))]
    assert got.tolist() == want
