"""Where the traced run puts its spans, and the per-layer metrics it reports.

Every wrap point is a public function or method of a lignn layer, wrapped
at its call sites for the traced phase only (see ``spans.Patcher``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lignn import densify as densify_mod
from lignn import graph as graph_mod
from lignn import samplers, training
from lignn.model import autograd, encoder, network, params
from lignn.service import client as client_mod
from lignn.service import nearline as nearline_mod
from lignn.service import wire

from . import stats
from .spans import NAME, PARENT, START, END, Patcher, Recorder, covered_time, summarize

# (span name, module, function): replaced wherever a lignn module binds it
FUNCTIONS = (
    ("graph.build_graph", graph_mod, "build_graph"),
    ("samplers.multihop", samplers, "sample_random_multihop"),
    ("samplers.multihop", samplers, "sample_weighted_multihop"),
    ("samplers.multihop", samplers, "multihop_sample_core"),
    ("samplers.ppr_two_hop_random_walk", samplers, "ppr_two_hop_random_walk"),
    ("samplers.ppr_forward_push", samplers, "ppr_forward_push"),
    ("samplers.ppr_forward_push_batch", samplers, "ppr_forward_push_batch"),
    ("samplers.sample_temporal_last_n", samplers, "sample_temporal_last_n"),
    ("densify.densify", densify_mod, "densify"),
    ("densify.exact_knn", densify_mod, "exact_knn"),
    ("densify.degree_threshold", densify_mod, "degree_threshold"),
    ("pipeline.grouped_step", training, "grouped_step"),
    ("model.build_encode_batch", encoder, "build_encode_batch"),
    ("model.sage_encode", encoder, "sage_encode"),
    ("client.fan_out_sample", client_mod, "fan_out_sample"),
    ("wire.encode", wire, "encode_request"),
    ("wire.encode", wire, "encode_response"),
    ("wire.decode", wire, "decode_request"),
    ("wire.decode", wire, "decode_response"),
)

# (span name, class, method)
METHODS = (
    ("graph.merged_neighbors", graph_mod.HeteroGraph, "merged_neighbors"),
    ("graph.with_updated_run", graph_mod.HeteroGraph, "with_updated_run"),
    ("training.train", training.Trainer, "train"),
    ("training.fetch", training.GraphSampler, "fetch"),
    ("training.validation_auc", training.Trainer, "validation_auc"),
    ("model.forward", network.LinkPredictionModel, "forward"),
    ("model.forward", network.LinkPredictionModel, "loss_and_grads"),
    ("model.backward", autograd.Tensor, "backward"),
    ("model.sgd_step", params.ParamStore, "sgd_step"),
    ("nearline.apply", nearline_mod.NearlineRefresher, "apply"),
    ("nearline.embedding_put", nearline_mod.EmbeddingStore, "put"),
    ("client.call", client_mod.GraphEngineClient, "call"),
)

SERVER_SPAN = "server.handle_payload"
REMOTE_OPS = ("random_2hop", "ppr_push_client", "ppr_push_batch", "features", "temporal")

# Span-based metrics: calls and self time per operation of the workload, so
# commits that fit different numbers of operations in a run stay comparable.
CALLS = (
    "graph.merged_neighbors", "graph.with_updated_run", "samplers.multihop",
    "samplers.ppr_two_hop_random_walk", "samplers.ppr_forward_push",
    "samplers.ppr_forward_push_batch", "samplers.sample_temporal_last_n",
    "densify.exact_knn", "training.fetch", "model.build_encode_batch",
    "model.sage_encode", "nearline.apply", "server.handle_payload",
)
SELF = CALLS + (
    "graph.build_graph", "densify.densify", "densify.degree_threshold",
    "training.train", "training.validation_auc", "pipeline.grouped_step",
    "model.forward", "model.backward", "model.sgd_step", "nearline.embedding_put",
    "client.fan_out_sample", "client.call", "wire.encode", "wire.decode",
)

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{n}.calls": ("count/op", "lower") for n in CALLS},
    **{f"{n}.self_s": ("s/op", "lower") for n in SELF},
    "graph.build_graph.rejected_rows": ("count/op", "lower"),
    "graph.ingest_rows_per_s": ("1/s", "higher"),
    "densify.edges_per_s": ("1/s", "higher"),
    "training.ge_queries": ("count/op", "lower"),
    "training.records_per_s": ("1/s", "higher"),
    "pipeline.query_reduction": ("ratio", "higher"),
    "model.orphan_share": ("share", "lower"),
    "model.missing_features": ("count/op", "lower"),
    "model.val_auc": ("auc", "higher"),
    "nearline.skipped": ("count/op", "lower"),
    "nearline.out_of_order": ("count/op", "lower"),
    "nearline.late_over_early": ("ratio", "lower"),
    "nearline.event_ms_first_fifth": ("ms", "lower"),
    "nearline.event_ms_last_fifth": ("ms", "lower"),
    "client.rpcs": ("count", "lower"),
    "client.rpcs_per_request": ("count/op", "lower"),
    "client.bytes_per_request": ("B/op", "lower"),
    "client.rpc_ms_p50": ("ms", "lower"),
    "client.rpc_ms_p99": ("ms", "lower"),
    "client.rpc_overhead_ms_p50": ("ms", "lower"),
    "client.retries": ("count/op", "lower"),
    "client.backoff_s": ("s/op", "lower"),
    "client.adjacency_hit_ratio": ("share", "higher"),
    "server.busy_share": ("share", "lower"),
    **{f"remote.{op}.ms_p50": ("ms", "lower") for op in REMOTE_OPS},
    **{f"remote.{op}.rpcs_per_request": ("count/op", "lower") for op in REMOTE_OPS},
    "trace.overhead_share": ("share", "lower"),
    "trace.untraced_share": ("share", "lower"),
    "bench.samples": ("count", "higher"),
}


@dataclass
class Counters:
    rejected_rows: int = 0
    orphans: int = 0
    placed: int = 0
    ge_queries: int = 0
    neighbors_ext_calls: int = 0
    encode_batches: list = field(default_factory=list)


class Instrumentation:
    """Installs the wrappers for one traced phase; ``remove`` undoes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.counters = Counters()
        self.patcher = Patcher()
        afters = {
            "graph.build_graph": self._after_build,
            "model.build_encode_batch": self._after_encode_batch,
        }
        for name, module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            self.patcher.function(fn, recorder.wrap(name, fn, afters.get(name)))
        for name, cls, attr in METHODS:
            after = self._after_train if name == "training.train" else None
            self.patcher.set(cls, attr, recorder.wrap(name, vars(cls)[attr], after))
        neighbors_ext = vars(client_mod.RemoteAdjacency)["neighbors_ext"]

        def counting_neighbors_ext(adjacency, ext):
            self.counters.neighbors_ext_calls += 1
            return neighbors_ext(adjacency, ext)

        self.patcher.set(client_mod.RemoteAdjacency, "neighbors_ext", counting_neighbors_ext)

    def wrap_server(self, server) -> None:
        self.patcher.set(server, "handle_payload",
                         self.recorder.wrap(SERVER_SPAN, server.handle_payload))

    def remove(self) -> None:
        self.patcher.restore()

    def _after_build(self, result, args) -> None:
        self.counters.rejected_rows += result[1].rejected_rows

    def _after_encode_batch(self, batch, args) -> None:
        self.counters.orphans += batch.orphan_nodes
        self.counters.placed += sum(len(level) for level in batch.level_refs[1:])
        self.counters.encode_batches.append(batch)  # missing_features fills in later

    def _after_train(self, history, args) -> None:
        self.counters.ge_queries += history[-1].ge_queries


def layer_metrics(spans: list[list], counters: Counters, rpc, traced_s: float,
                  ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase of ``ops`` operations.

    Layers the workload never entered read 0.
    """
    out = {name: 0.0 for name in PER_LAYER}
    for name, row in summarize(spans).items():
        for key in ("calls", "self_s"):
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] = row[key] / ops
        if name == SERVER_SPAN:
            out["server.busy_share"] = row["total_s"] / traced_s
    out["graph.build_graph.rejected_rows"] = counters.rejected_rows / ops
    out["training.ge_queries"] = counters.ge_queries / ops
    if counters.placed or counters.orphans:
        out["model.orphan_share"] = counters.orphans / (counters.orphans + counters.placed)
    out["model.missing_features"] = sum(b.missing_features for b in counters.encode_batches) / ops
    out["trace.untraced_share"] = max(0.0, 1.0 - covered_time(spans) / traced_s)
    if rpc is not None and rpc.rpcs:
        out.update(_client_metrics(spans, counters, rpc, ops))
    return out


def _client_metrics(spans, counters: Counters, rpc, requests: int) -> dict[str, float]:
    latencies = [s for v in rpc.latency_s.values() for s in v]
    server_s: dict[int, float] = {}
    for span in spans:
        if span[NAME] == SERVER_SPAN and span[PARENT] >= 0:
            server_s[span[PARENT]] = span[END] - span[START]
    overhead = [
        (spans[i][END] - spans[i][START]) - server_s.get(i, 0.0) for i in rpc.rpc_spans
    ]
    neighbor_rpcs = len(rpc.latency_s.get(int(wire.Opcode.SAMPLE_NEIGHBORS), ()))
    out = {
        "client.rpcs": rpc.rpcs,
        "client.rpcs_per_request": rpc.rpcs / requests,
        "client.bytes_per_request": rpc.total_bytes / requests,
        "client.rpc_ms_p50": 1000 * stats.median(latencies),
        "client.rpc_ms_p99": 1000 * stats.percentile(latencies, 99),
        "client.retries": rpc.retries / requests,
        "client.backoff_s": rpc.backoff_s / requests,
    }
    if overhead:
        out["client.rpc_overhead_ms_p50"] = 1000 * stats.median(overhead)
    if counters.neighbors_ext_calls:
        out["client.adjacency_hit_ratio"] = 1.0 - neighbor_rpcs / counters.neighbors_ext_calls
    return out
