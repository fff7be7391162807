"""Nearline refresh: versioning, replay determinism, batch-inference oracle."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from lignn.model import ModelConfig, init_params, sage_encode
from lignn.samplers import WalkConfig, ppr_two_hop_random_walk
from lignn.service import EmbeddingStore, InteractionEvent, nearline_refresh, parse_events
from lignn.service.nearline import NearlineRefresher

from conftest import build, edge_row, node_row


def bipartite_setup(rng, n_members=12, n_items=10):
    """Members engage items (items are sinks): endpoint-only refresh is exact."""
    rows = []
    for m in range(n_members):
        rows.append(edge_row(0, m, 0, 1, 100 + (m % n_items), 1.0, ts=1))
    nodes = [node_row(0, m, rng.normal(size=4)) for m in range(n_members)]
    nodes += [node_row(1, 100 + i, rng.normal(size=4)) for i in range(n_items)]
    graph, _ = build(rows, nodes)
    config = ModelConfig(out_dim=6, hops=1, init_seed=9).with_graph(graph)
    store = init_params(config)
    return graph, config, store


def make_events(rng, n_events, n_members=12, n_items=10):
    events = []
    for k in range(n_events):
        events.append(
            InteractionEvent(
                timestamp=10 + k,
                kind="click",
                member=(0, int(rng.integers(0, n_members))),
                item=(1, 100 + int(rng.integers(0, n_items))),
            )
        )
    return events


class TestEmbeddingStore:
    def test_versions_increase(self):
        store = EmbeddingStore()
        assert store.version((0, 1)) == 0
        assert store.put((0, 1), np.ones(3), ts=5) == 1
        assert store.put((0, 1), np.zeros(3), ts=6) == 2
        assert store.get((0, 1)).version == 2

    def test_vectors_are_snapshots(self):
        store = EmbeddingStore()
        vec = np.ones(3)
        store.put((0, 1), vec, ts=1)
        vec[0] = 99.0  # caller mutation must not leak in
        np.testing.assert_array_equal(store.get((0, 1)).vector, [1.0, 1.0, 1.0])
        snap = store.get((0, 1))
        with pytest.raises(ValueError):
            snap.vector[0] = 5.0  # stored vectors are read-only

    def test_concurrent_reads_never_torn(self):
        store = EmbeddingStore()
        store.put((0, 1), np.zeros(8), ts=0)
        stop = threading.Event()
        torn = []

        def writer():
            v = 0
            while not stop.is_set():
                v += 1
                store.put((0, 1), np.full(8, float(v)), ts=v)

        def reader():
            while not stop.is_set():
                vec = store.get((0, 1)).vector
                if not np.all(vec == vec[0]):
                    torn.append(vec.copy())

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert torn == []

    def test_dump_format(self, tmp_path):
        store = EmbeddingStore()
        store.put((0, 2), np.array([0.5, -1.0]), ts=1)
        store.put((0, 1), np.array([1.0, 2.0]), ts=2)
        path = tmp_path / "dump.tsv"
        store.dump(str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("0\t1\t1\t")  # sorted by key
        assert lines[1].startswith("0\t2\t1\t")


class TestParseEvents:
    def test_round(self):
        [ev] = parse_events(["123\tclick\t0\t7\t1\t100\n"])
        assert ev == InteractionEvent(123, "click", (0, 7), (1, 100))

    def test_bad_row(self):
        with pytest.raises(ValueError):
            parse_events(["nope\n"])


class TestNearlineRefresh:
    def test_empty_stream_unchanged(self):
        rng = np.random.default_rng(3)
        graph, config, store = bipartite_setup(rng)
        embeddings, final_graph, report = nearline_refresh([], graph, store, config)
        assert len(embeddings) == 0
        assert report.processed == 0
        assert final_graph is graph

    def test_single_event_bumps_both_versions(self):
        rng = np.random.default_rng(5)
        graph, config, store = bipartite_setup(rng)
        ev = InteractionEvent(50, "click", (0, 3), (1, 104))
        embeddings, _, report = nearline_refresh([ev], graph, store, config)
        assert embeddings.version((0, 3)) == 1
        assert embeddings.version((1, 104)) == 1
        assert len(embeddings) == 2
        assert report.processed == 1

    def test_unknown_node_skipped_with_report(self):
        rng = np.random.default_rng(7)
        graph, config, store = bipartite_setup(rng)
        good = InteractionEvent(50, "click", (0, 1), (1, 101))
        bad = InteractionEvent(51, "apply", (0, 999), (1, 101))
        embeddings, _, report = nearline_refresh([bad, good], graph, store, config)
        assert report.processed == 1
        assert len(report.skipped) == 1
        assert report.skipped[0][0] == bad

    def test_out_of_order_reported_but_applied(self):
        rng = np.random.default_rng(9)
        graph, config, store = bipartite_setup(rng)
        events = [
            InteractionEvent(50, "click", (0, 1), (1, 101)),
            InteractionEvent(40, "click", (0, 2), (1, 102)),
        ]
        embeddings, _, report = nearline_refresh(events, graph, store, config)
        assert report.out_of_order == 1
        assert report.processed == 2

    def test_edge_inserted_into_graph_epoch(self):
        rng = np.random.default_rng(11)
        graph, config, store = bipartite_setup(rng)
        member = graph.node_ref(0, 0)
        before = graph.out_degree(member, edge_types={0})
        ev = InteractionEvent(99, "click", (0, 0), (1, 109))
        _, final_graph, _ = nearline_refresh([ev], graph, store, config)
        assert graph.out_degree(member, edge_types={0}) == before  # old epoch intact
        assert final_graph.out_degree(final_graph.node_ref(0, 0), edge_types={0}) == before + 1

    def test_replay_determinism_byte_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        graph, config, store = bipartite_setup(rng)
        events = make_events(np.random.default_rng(23), 40)
        dumps = []
        for run in range(2):
            embeddings, _, _ = nearline_refresh(events, graph, store, config)
            path = tmp_path / f"dump{run}.tsv"
            embeddings.dump(str(path))
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]

    def test_replay_equals_batch_inference_on_final_graph(self):
        rng = np.random.default_rng(19)
        graph, config, store = bipartite_setup(rng)
        events = make_events(np.random.default_rng(29), 100)
        walk = WalkConfig(num_walks=500, top_k=20)
        embeddings, final_graph, _ = nearline_refresh(
            [e for e in events], graph, store, config, walk=walk
        )
        for key in embeddings.keys():
            ref = final_graph.resolve(key)
            side = "src" if key[0] == 0 else "dst"
            sample = ppr_two_hop_random_walk(final_graph, ref, walk)
            oracle = sage_encode(final_graph, ref, sample, store, config, side=side)
            np.testing.assert_allclose(embeddings.get(key).vector, oracle, atol=1e-10)

    def test_feature_dim_mismatch_fatal(self):
        rng = np.random.default_rng(21)
        graph, config, store = bipartite_setup(rng)
        from dataclasses import replace

        bad = replace(config, feature_dims={0: 8, 1: 8})
        with pytest.raises(ValueError):
            NearlineRefresher(graph, store, bad, EmbeddingStore())
