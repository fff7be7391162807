import numpy as np
import pytest

from lignn.densify import DensifyConfig, DensifyResult, ExternalEmbeddingTable, densify
from lignn.graph import GraphSchema, build_graph
from lignn.service import client as client_mod
from lignn.service.nearline import EmbeddingStore, InteractionEvent, RefreshReport

from perfbench import checks, gen
from perfbench.harness import run_phase
from perfbench import remote as remote_mod
from perfbench.remote import Remote


@pytest.fixture(scope="module")
def remote():
    w = Remote()
    w.generate(11)
    w.setup()
    yield w
    w.close()


def first_of(w: Remote, kind: str) -> int:
    return next(i for i, r in enumerate(w.requests) if r[0] == kind)


@pytest.mark.parametrize("kind", ["random_2hop", "ppr_push_client", "ppr_push_batch",
                                  "features", "temporal"])
def test_remote_answers_pass_their_check(remote, kind):
    i = first_of(remote, kind)
    remote.last = [i]
    assert remote.check_group([remote._call(i)]) == []


def test_corrupted_sampler_answer_fails_the_remote_check(remote, monkeypatch):
    core = client_mod.multihop_sample_core

    def corrupted(*args, **kwargs):
        hops = core(*args, **kwargs)
        last = hops[0][-1]
        hops[0][-1] = type(last)(last.seed, last.entries[:-1], last.strategy)
        return hops

    monkeypatch.setattr(client_mod, "multihop_sample_core", corrupted)
    monkeypatch.setattr(remote, "requests", [r for r in remote.requests if r[0] == "random_2hop"][:3])
    monkeypatch.setattr(remote_mod, "CYCLE", 3)
    monkeypatch.setattr(remote, "expected", {})
    remote.rewind()
    phase = run_phase(remote, budget_s=0.0, max_ops=3)
    assert phase.failed == 3
    assert "random_2hop answer differs" in phase.problems[0]


def test_corrupted_push_score_fails_the_check(remote):
    i = first_of(remote, "ppr_push_client")
    err, truncated, entries = remote._call(i)
    node_type, node_id, score, hop = entries[0]
    bad = (err, truncated, ((node_type, node_id, score * (1 + 1e-12), hop),) + entries[1:])
    remote.last = [i]
    assert remote.check_group([bad]) != []


def small_graph_and_table(seed=2):
    inputs = gen.generate(seed, gen.Sizes(members=60, items=40))
    graph, _ = build_graph(inputs.edge_rows, inputs.node_rows, GraphSchema.parse(inputs.schema_text))
    table = ExternalEmbeddingTable(gen.EMBED_DIM)
    for row in inputs.embedding_rows:
        nt, nid, vec = row.rstrip("\n").split("\t")
        table.put(int(nt), int(nid), [float(x) for x in vec.split(",")])
    return graph, table


def test_densify_check_accepts_real_output_and_rejects_a_swapped_neighbor():
    graph, table = small_graph_and_table()
    cfg = DensifyConfig(k=3, artificial_edge_type=gen.ARTIFICIAL)
    result = densify(graph, table, cfg)
    sample = range(len(result.edges))
    assert checks.check_densify(graph, table, cfg, result, sample) == []
    highs = sorted({h for _, h in result.edges}, key=lambda r: r.ext())
    low, high = result.edges[0]
    other = next(h for h in highs if h not in {hh for ll, hh in result.edges if ll == low})
    edges = [(low, other)] + result.edges[1:]
    bad = DensifyResult(edges, result.graph, result.low_threshold, result.high_threshold,
                        result.edge_type)
    assert checks.check_densify(graph, table, cfg, bad, sample) != []


def test_nearline_check_rejects_a_wrong_version():
    events = [InteractionEvent(1, "click", (0, 1), (1, 2)), InteractionEvent(2, "click", (0, 1), (1, 3))]
    store = EmbeddingStore()
    for node, n in (((0, 1), 2), ((1, 2), 1), ((1, 3), 1)):
        for _ in range(n):
            store.put(node, np.zeros(4), 0)
    report = RefreshReport(processed=2)
    known = {(0, 1), (1, 2), (1, 3)}
    assert checks.check_nearline(report, store, events, known, 4) == []
    store.put((1, 3), np.zeros(4), 0)
    assert checks.check_nearline(report, store, events, known, 4) != []
    assert checks.check_nearline(report, store, events, known, 8) != []


def test_traced_remote_counts_rpcs_and_links_server_spans(remote):
    from perfbench.layers import SERVER_SPAN, Instrumentation, layer_metrics
    from perfbench.spans import NAME, PARENT, Recorder

    rec = Recorder()
    inst = Instrumentation(rec)
    try:
        rpc = remote.instrument(inst)
        kinds = {}
        for i, (kind, _, _) in enumerate(remote.requests):
            kinds.setdefault(kind, i)
        for i in kinds.values():
            remote._counted_call(i)
    finally:
        inst.remove()
    assert remote.count_by_kind["features"] == 1 and remote.rpcs_by_kind["features"] == 1
    assert remote.rpcs_by_kind["ppr_push_client"] > remote.rpcs_by_kind["ppr_push_batch"] >= 2
    servers = [s for s in rec.spans if s[NAME] == SERVER_SPAN]
    assert len(servers) == rpc.rpcs == len(rpc.rpc_spans)
    assert all(rec.spans[s[PARENT]][NAME] == "client.rpc" for s in servers)
    m = layer_metrics(rec.spans, inst.counters, rpc, traced_s=1.0, ops=len(kinds))
    assert m["client.rpcs"] == rpc.rpcs and m["client.retries"] == 0
    assert 0 < m["client.adjacency_hit_ratio"] < 1
