"""Graph-engine TCP server: answers sampling/feature queries for its shard."""

from __future__ import annotations

import logging
import math
import socketserver
import threading

from ..graph import HeteroGraph, MissingNodeError
from ..samplers import (
    PPRConfig,
    WalkConfig,
    ppr_forward_push_batch,
    ppr_two_hop_random_walk,
    sample_random_multihop,
    sample_temporal_last_n,
    sample_weighted_multihop,
)
from . import wire
from .partition import PartitionMap

logger = logging.getLogger("lignn.server")

# The walk sampler holds one position per walk: bound what a request can ask for.
MAX_WALKS = 1 << 20
# Each hop reads the views of the whole previous hop, with FANOUT_ALL up to
# every view of the shard: bound the hops a request can ask for.
MAX_HOPS = 8
# Each weighted draw rescans every candidate, so a strategy-1 hop costs
# fanout x candidates: bound the fanout a request can ask for. FANOUT_ALL
# stays allowed, since it takes every candidate without drawing.
MAX_FANOUT = 1024
# Nodes one NEIGHBORS_BATCH request may name; clients split larger fetches.
MAX_BATCH_NODES = 4096


class GraphEngineServer:
    """One shard instance. Requests for nodes it does not own get NOT_OWNED
    (misrouted clients are surfaced, never silently proxied)."""

    def __init__(
        self,
        graph: HeteroGraph,
        bind_address: str,
        pmap: PartitionMap,
        shard_index: int = 0,
    ):
        self.graph = graph
        self.pmap = pmap
        self.shard_index = shard_index
        host, port = bind_address.rsplit(":", 1)
        handler = self._make_handler()
        self._server = socketserver.ThreadingTCPServer(
            (host, int(port)), handler, bind_and_activate=False
        )
        self._server.allow_reuse_address = True
        self._server.daemon_threads = True
        self._server.server_bind()
        self._server.server_activate()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        logger.info("shard %d serving on %s", self.shard_index, self.address)

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join()

    # -- request handling ----------------------------------------------------

    def _make_handler(self):
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                try:
                    while True:
                        try:
                            payload = wire.read_frame(self.request)
                        except ConnectionError:
                            return
                        except wire.WireError as exc:
                            # the payload is left unread, so the stream cannot
                            # be resynced: answer, then close the connection
                            self.request.sendall(_unreadable(str(exc)))
                            return
                        response = outer.handle_payload(payload)
                        self.request.sendall(response)
                except Exception:
                    logger.exception("handler crashed")

        return Handler

    def handle_payload(self, payload: bytes) -> bytes:
        try:
            request = wire.decode_request(payload)
        except wire.WireError as exc:
            return _unreadable(str(exc))
        try:
            return wire.encode_response(self._dispatch(request))
        except (MissingNodeError, ValueError) as exc:  # the request names invalid input
            return wire.encode_response(
                wire.error_response(request.opcode, wire.Status.BAD_REQUEST, str(exc))
            )
        except Exception as exc:  # an unexpected bug, not a bad request
            logger.exception("internal error")
            return wire.encode_response(
                wire.error_response(request.opcode, wire.Status.INTERNAL, repr(exc))
            )

    def _owned(self, node) -> bool:
        return self.pmap.owner(node) == self.shard_index

    def _dispatch(self, request):
        op = request.opcode
        if op == wire.Opcode.HEALTH:
            return self._health()
        if op == wire.Opcode.PPR_PUSH_BATCH:
            return self._ppr_push_batch(request)
        if op == wire.Opcode.NEIGHBORS_BATCH:
            return self._neighbors_batch(request)
        node = request.seed if op == wire.Opcode.SAMPLE_NEIGHBORS else request.node
        if not self._owned(node):
            return wire.error_response(op, wire.Status.NOT_OWNED, "not owned")
        if op == wire.Opcode.SAMPLE_NEIGHBORS:
            return self._sample_neighbors(request)
        if op == wire.Opcode.GET_FEATURES:
            return self._get_features(request)
        if op == wire.Opcode.PPR_2HOP:
            return self._ppr_2hop(request)
        if op == wire.Opcode.TEMPORAL_LAST_N:
            return self._temporal(request)
        raise AssertionError(f"unhandled opcode {op}")

    def _health(self) -> wire.HealthResponse:
        nodes = tuple(
            (t, self.graph.num_nodes(t)) for t in self.graph.node_types
        )
        edges = []
        for et in self.graph.edge_types:
            count = 0
            for t in self.graph.node_types:
                count += int(self.graph.out_degrees(t, [et]).sum())
            edges.append((et, count))
        return wire.HealthResponse(wire.Status.OK, nodes, tuple(edges))

    def _sample_neighbors(self, req: wire.SampleNeighborsRequest) -> wire.SampleResponse:
        if not 0 < len(req.fanouts) <= MAX_HOPS:
            raise ValueError(f"{len(req.fanouts)} hops, not 1 to {MAX_HOPS}")
        if req.strategy == 1 and any(
            f > MAX_FANOUT and f != wire.FANOUT_ALL for f in req.fanouts
        ):
            raise ValueError(f"weighted fanout over {MAX_FANOUT}")
        fanouts = [
            (self.graph.num_nodes() if f == wire.FANOUT_ALL else f) for f in req.fanouts
        ]
        if req.strategy == 0:
            [hops] = sample_random_multihop(self.graph, [req.seed], fanouts, req.rng_seed)
        elif req.strategy == 1:
            [hops] = sample_weighted_multihop(self.graph, [req.seed], fanouts, req.rng_seed)
        else:
            return wire.error_response(
                req.opcode, wire.Status.BAD_REQUEST, f"unknown strategy {req.strategy}"
            )
        return _sample_reply(req.opcode, hops)

    def _get_features(self, req: wire.GetFeaturesRequest) -> wire.FeaturesResponse:
        vec = self.graph.features_of(self.graph.resolve(req.node))
        values = () if vec is None else tuple(float(x) for x in vec)
        return wire.FeaturesResponse(wire.Status.OK, values)

    def _ppr_2hop(self, req: wire.PPR2HopRequest) -> wire.SampleResponse:
        if req.num_walks > MAX_WALKS:
            return wire.error_response(
                req.opcode, wire.Status.BAD_REQUEST, f"num_walks over {MAX_WALKS}"
            )
        cfg = WalkConfig(
            num_walks=req.num_walks, alpha=req.alpha, top_k=req.top_k, rng_seed=req.rng_seed
        )
        return _sample_reply(req.opcode, [ppr_two_hop_random_walk(self.graph, req.node, cfg)])

    def _ppr_push_batch(self, req: wire.PPRPushBatchRequest) -> wire.SampleBatchResponse:
        if not req.seeds:
            return wire.error_response(req.opcode, wire.Status.BAD_REQUEST, "empty batch")
        not_owned = [s for s in req.seeds if not self._owned(s)]
        if not_owned:
            return wire.error_response(
                req.opcode, wire.Status.NOT_OWNED, f"{len(not_owned)} seeds not owned"
            )
        cfg = PPRConfig(alpha=req.alpha, r_max=req.r_max, top_k=req.top_k)
        samples = ppr_forward_push_batch(self.graph, list(req.seeds), cfg)
        results = tuple(_sample_reply(req.opcode, [sample]) for sample in samples)
        return wire.SampleBatchResponse(req.opcode, wire.Status.OK, results)

    def _neighbors_batch(self, req: wire.NeighborsBatchRequest) -> wire.SampleBatchResponse:
        """Per node, its ``merged_neighbors`` view as hop-1 entries scored by
        summed weight, or a BAD_REQUEST result for a node the shard lacks."""
        if not 0 < len(req.nodes) <= MAX_BATCH_NODES:
            raise ValueError(f"batch of {len(req.nodes)} nodes, not 1 to {MAX_BATCH_NODES}")
        if not all(map(self._owned, req.nodes)):
            return wire.error_response(req.opcode, wire.Status.NOT_OWNED, "nodes not owned")
        op, results = req.opcode, []
        for node in req.nodes:
            try:
                refs, weights, _ = self.graph.merged_neighbors(self.graph.resolve(node))
            except MissingNodeError as exc:
                results.append(wire.SampleResponse(op, wire.Status.BAD_REQUEST, error=str(exc)))
                continue
            entries = tuple(
                wire.WireEntry(wire.WireNode(ref.node_type, ref.node_id), w, 1)
                for ref, w in zip(refs, weights.tolist())
            )
            results.append(wire.SampleResponse(op, wire.Status.OK, entries))
        return wire.SampleBatchResponse(op, wire.Status.OK, tuple(results))

    def _temporal(self, req: wire.TemporalLastNRequest) -> wire.TemporalResponse:
        before = math.inf if req.before_ts == wire.TS_MAX else req.before_ts
        n = None if req.n == wire.COUNT_ALL else req.n
        events = sample_temporal_last_n(self.graph, req.node, req.edge_type, before, n)
        out = tuple(
            wire.WireEvent(wire.WireNode(ref.node_type, ref.node_id), ts) for ref, ts in events
        )
        return wire.TemporalResponse(wire.Status.OK, out)


def _unreadable(message: str) -> bytes:
    """The reply to a request that cannot be decoded. Its opcode may be
    unreadable, so the reply names SAMPLE_NEIGHBORS."""
    return wire.encode_response(
        wire.error_response(wire.Opcode.SAMPLE_NEIGHBORS, wire.Status.BAD_REQUEST, message)
    )


def _sample_reply(opcode: wire.Opcode, samples) -> wire.SampleResponse:
    """The reply (or one batch result) for the per-hop samples of one seed.

    A failed seed has one sample carrying the error; otherwise the entries of
    all hops are concatenated in hop order.
    """
    if samples[0].error is not None:
        return wire.SampleResponse(opcode, wire.Status.BAD_REQUEST, error=samples[0].error)
    entries = tuple(
        wire.WireEntry(wire.WireNode(e.node.node_type, e.node.node_id), e.score, min(255, e.hop))
        for sample in samples
        for e in sample.entries
    )
    truncated = any(sample.truncated for sample in samples)
    return wire.SampleResponse(opcode, wire.Status.OK, entries, truncated)


def serve(
    graph: HeteroGraph, bind_address: str, pmap: PartitionMap, shard_index: int = 0
) -> GraphEngineServer:
    """Start a shard server; returns the running instance (call .stop())."""
    server = GraphEngineServer(graph, bind_address, pmap, shard_index)
    server.start()
    return server
