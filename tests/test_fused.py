"""Fused tape ops against the unfused chains they replace (``oracles``).

Each fused op keeps the float operations of its chain in the same order, so
outputs and every gradient must be equal, not merely close: per op on the
edge cases of a SAGE layer, and through whole models with the chains
patched in.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from lignn.model import (
    DecoderKind,
    LinkPredictionModel,
    ModelConfig,
    PairBatch,
    TemporalConfig,
)
from lignn.model import autograd as ag

from conftest import build, edge_row, node_row

FUSED = ("project", "gather_mean", "concat_affine_tanh")


def _out_and_grads(op, make_args, arrays):
    params = {k: ag.parameter(v.copy()) for k, v in arrays.items()}
    out = op(*make_args(params))
    weights = np.random.default_rng(0).normal(size=out.shape)
    ag.tsum(ag.mul(out, ag.constant(weights))).backward()
    return out.data, {k: p.grad for k, p in params.items()}


def assert_fused_equals_chain(name, make_args, arrays):
    out, grads = _out_and_grads(getattr(ag, name), make_args, arrays)
    chain_out, chain_grads = _out_and_grads(getattr(oracles, name), make_args, arrays)
    assert np.array_equal(out, chain_out)
    for k in arrays:
        assert np.array_equal(grads[k], chain_grads[k]), k
    return out, grads


RNG = np.random.default_rng(11)


class TestGatherMean:
    @pytest.mark.parametrize(
        "index, segment_ids, num_segments",
        [
            pytest.param([], [], 2, id="empty-neighbourhood"),
            pytest.param([0, 2], [0, 2], 3, id="parent-without-child"),
            # segments of 3 and 5 rows: x * (1/3) and x / 3 round apart
            pytest.param([1, 1, 0, 3, 0, 1, 2, 4], [0, 1, 1, 1, 2, 2, 2, 2], 3,
                         id="child-under-two-parents"),
        ],
    )
    def test_equals_chain(self, index, segment_ids, num_segments):
        idx, ids = np.array(index, dtype=np.int64), np.array(segment_ids, dtype=np.int64)
        out, grads = assert_fused_equals_chain(
            "gather_mean",
            lambda p: (p["rows"], idx, ids, num_segments),
            {"rows": RNG.normal(size=(6, 8))},
        )
        empty = np.bincount(ids, minlength=num_segments) == 0
        assert not out[empty].any()
        unread = np.setdiff1d(np.arange(6), idx)
        assert not grads["rows"][unread].any()


class TestProject:
    def _arrays(self, table_rows=0):
        arrays = {
            "W0": RNG.normal(size=(4, 3)), "b0": RNG.normal(size=(1, 3)),
            "W1": RNG.normal(size=(2, 3)), "b1": RNG.normal(size=(1, 3)),
        }
        if table_rows:
            arrays["E0"] = RNG.normal(size=(table_rows, 2))
            arrays["E1"] = RNG.normal(size=(table_rows, 2))
        return arrays

    def test_repeated_id_embedding_indices(self):
        feats0, feats1 = RNG.normal(size=(3, 4)), RNG.normal(size=(2, 2))
        index0, index1 = np.array([2, 0, 2]), np.array([1, 1])

        def args(p):
            return ([
                ([0, 2, 4], feats0, p["W0"], p["b0"], p["E0"], index0),
                ([1, 3], feats1, p["W1"], p["b1"], p["E1"], index1),
            ], 5)

        out, grads = assert_fused_equals_chain("project", args, self._arrays(table_rows=4))
        assert out.shape == (5, 5)
        assert np.array_equal(out[0, 3:], out[4, 3:])  # index 2 twice
        assert not grads["E0"][[1, 3]].any()

    def test_missing_feature_rows(self):
        feats0 = RNG.normal(size=(2, 4))
        feats0[1] = 0.0  # a node without stored features projects from zeros
        feats1 = np.zeros((1, 2))

        def args(p):
            return ([
                ([2, 0], feats0, p["W0"], p["b0"], None, np.array([0, 1])),
                ([1], feats1, p["W1"], p["b1"], None, np.array([0])),
            ], 3)

        arrays = self._arrays()
        out, _ = assert_fused_equals_chain("project", args, arrays)
        assert np.array_equal(out[0], arrays["b0"][0])
        assert np.array_equal(out[1], arrays["b1"][0])


class TestConcatAffineTanh:
    def test_two_parts(self):
        arrays = {
            "x": RNG.normal(size=(3, 2)), "a": RNG.normal(size=(3, 4)),
            "W": RNG.normal(size=(6, 5)), "b": RNG.normal(size=(1, 5)),
        }
        assert_fused_equals_chain("concat_affine_tanh", lambda p: ([p["x"], p["a"]], p["W"], p["b"]), arrays)

    def test_one_part(self):
        arrays = {"x": RNG.normal(size=(3, 2)), "W": RNG.normal(size=(2, 5)), "b": RNG.normal(size=(1, 5))}
        assert_fused_equals_chain("concat_affine_tanh", lambda p: ([p["x"]], p["W"], p["b"]), arrays)

    def test_same_tensor_twice(self):
        # an attention layer over an empty neighbourhood combines the parents with themselves
        arrays = {"x": RNG.normal(size=(3, 2)), "W": RNG.normal(size=(4, 5)), "b": RNG.normal(size=(1, 5))}
        assert_fused_equals_chain("concat_affine_tanh", lambda p: ([p["x"], p["x"]], p["W"], p["b"]), arrays)


# -- whole models -------------------------------------------------------------------


def fused_world():
    """Members 0-2 and items 100-101. Member 2 and item 101 have no stored
    features. Items 100 and 101 both link to members 0 and 2, so a two-hop
    node can hang under two parents."""
    edges = [
        edge_row(0, 0, 0, 1, 100, 1.0), edge_row(0, 0, 0, 1, 101, 0.5),
        edge_row(0, 1, 0, 1, 100, 1.0), edge_row(0, 2, 0, 1, 101, 1.0),
        edge_row(1, 100, 0, 0, 0, 1.0), edge_row(1, 100, 0, 0, 1, 1.0),
        edge_row(1, 100, 0, 0, 2, 1.0), edge_row(1, 101, 0, 0, 0, 1.0),
        edge_row(1, 101, 0, 0, 2, 1.0),
    ]
    nodes = [
        node_row(0, 0, [1.0, 0.5, 0.0, -1.0]), node_row(0, 1, [0.0, 1.0, 2.0, 0.0]),
        node_row(1, 100, [0.5, 0.0, -0.5, 1.0]),
    ]
    graph, _ = build(edges, nodes)
    return graph


def pair_batch(graph, empty=False):
    """One member against three items, hop lists built by hand: member 2
    sits under both hop-1 items, member 0 twice on one level (repeated id
    rows), and the last item has no neighbours (a parent without child)."""
    m, i = (lambda n: graph.node_ref(0, n)), (lambda n: graph.node_ref(1, n))
    src_hops = [[i(100), i(101)], [m(2), m(0)]]
    dst_hops = [[[m(0), m(1)], [i(101)]], [[m(0), m(2)], [i(100), i(101)]], []]
    if empty:
        src_hops, dst_hops = [], [[], [], []]
    return PairBatch(
        src_refs=[m(0)],
        dst_refs=[i(100), i(101), i(101)],
        labels=np.array([1.0, 0.0, 1.0]),
        mask=np.array([True, True, True]),
        src_hops=[src_hops],
        dst_hops=dst_hops,
        src_slot=np.zeros(3, dtype=np.int64),
        activity_refs=[[i(100), m(2), i(101)]],
        activity_ages=[[3.0, 2.0, 1.0]],
    )


def model_config(aggregator, temporal=False):
    return ModelConfig(
        encoder="dual", aggregator=aggregator, decoder=DecoderKind("mlp", (5,)), hops=2,
        out_dim=6, attention_dim=3, id_embeddings=True, id_dim=2, init_seed=4,
        temporal=TemporalConfig(heads=3, token_dim=2, seq_len=3, future_len=1) if temporal else None,
    )


def loss_and_grads(config, empty):
    graph = fused_world()
    return LinkPredictionModel(graph, config).loss_and_grads(pair_batch(graph, empty))


@pytest.mark.parametrize("empty", [False, True], ids=["sampled", "empty-neighbourhood"])
@pytest.mark.parametrize(
    "aggregator, temporal",
    [("mean", False), ("attention", False), ("self_attention", False), ("mean", True)],
    ids=["mean", "attention", "self_attention", "mean-temporal"],
)
def test_model_equals_unfused_chains(monkeypatch, aggregator, temporal, empty):
    config = model_config(aggregator, temporal)
    loss, grads, result = loss_and_grads(config, empty)
    assert result.aux["missing_features"] > 0 and result.aux["orphans"] == 0
    for name in FUSED:
        monkeypatch.setattr(ag, name, getattr(oracles, name))
    chain_loss, chain_grads, chain_result = loss_and_grads(config, empty)
    assert loss == chain_loss
    assert np.array_equal(result.scores, chain_result.scores)
    assert result.aux == chain_result.aux
    assert grads.keys() == chain_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], chain_grads[name]), name


def tape_nodes(root: ag.Tensor) -> int:
    seen, stack, count = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += t._vjp is not None
            stack.extend(t._parents)
    return count


def test_tape_nodes_of_a_two_hop_dual_mean_mlp_step():
    """Per tower: 3 projections (levels 0-2), 3 neighbour means and 3
    combines; then 1 MLP hidden layer and 9 decoder and loss nodes. A layer
    that falls back to its unfused chain adds nodes."""
    _, _, result = loss_and_grads(model_config("mean"), empty=False)
    assert tape_nodes(result.loss) == 2 * (3 + 3 + 3) + 1 + 9
