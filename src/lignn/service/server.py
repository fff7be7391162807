"""Graph-engine TCP server: answers sampling/feature queries for its shard."""

from __future__ import annotations

import logging
import math
import socketserver
import threading

import numpy as np

from ..graph import HeteroGraph, MissingNodeError
from ..samplers import PPRConfig, ppr_forward_push_batch, sample_temporal_last_n
from . import wire
from .partition import PartitionMap

logger = logging.getLogger("lignn.server")

# Nodes one NEIGHBORS_BATCH, or seeds one PPR_PUSH_BATCH, request may name;
# clients split larger batches.
MAX_BATCH_NODES = 4096
# Pushes one PPR_PUSH_BATCH seed may make before it comes back truncated: about
# 0.2 s of one core (a 3,000-node graph takes ~150 pushes at r_max 1e-3).
MAX_PUSHES_PER_SEED = 100_000


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
        if op == wire.Opcode.PPR_PUSH_BATCH:
            return self._ppr_push_batch(request)
        if op == wire.Opcode.NEIGHBORS_BATCH:
            return self._neighbors_batch(request)
        if op == wire.Opcode.HEALTH:
            return self._health()
        if not self._owned(request.node):
            return wire.error_response(op, wire.Status.NOT_OWNED, "not owned")
        if op == wire.Opcode.GET_FEATURES:
            return self._get_features(request)
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

    def _get_features(self, req: wire.GetFeaturesRequest) -> wire.FeaturesResponse:
        vec = self.graph.features_of(self.graph.resolve(req.node))
        values = () if vec is None else tuple(float(x) for x in vec)
        return wire.FeaturesResponse(wire.Status.OK, values)

    def _ppr_push_batch(self, req: wire.PPRPushBatchRequest) -> wire.SampleBatchResponse:
        _check_batch(len(req.seeds), "seeds")
        not_owned = [s for s in req.seeds if not self._owned(s)]
        if not_owned:
            return wire.error_response(
                req.opcode, wire.Status.NOT_OWNED, f"{len(not_owned)} seeds not owned"
            )
        cfg = PPRConfig(alpha=req.alpha, r_max=req.r_max, top_k=req.top_k,
                        max_pushes=MAX_PUSHES_PER_SEED)
        samples = ppr_forward_push_batch(self.graph, list(req.seeds), cfg)
        return wire.SampleBatchResponse(wire.Status.OK, tuple(map(_sample_result, samples)))

    def _neighbors_batch(self, req: wire.NeighborsBatchRequest) -> wire.ViewsBatchResponse:
        """Per node, its ``merged_neighbors`` view as columns, or a
        BAD_REQUEST status and message for a node the shard lacks."""
        _check_batch(len(req.nodes), "nodes")
        if not all(map(self._owned, req.nodes)):
            return wire.error_response(req.opcode, wire.Status.NOT_OWNED, "nodes not owned")
        graph, statuses, lengths, found, errors = self.graph, [], [], [], []
        ok, bad = int(wire.Status.OK), int(wire.Status.BAD_REQUEST)  # ints convert fast
        for node in req.nodes:
            try:
                view = graph.merged_neighbors(graph.key(node))
            except MissingNodeError as exc:
                statuses.append(bad)
                lengths.append(0)
                errors.append(str(exc))
                continue
            statuses.append(ok)
            lengths.append(len(view.keys))
            found.append(view)
        keys = np.concatenate([np.empty(0, dtype=np.int64)] + [v.keys for v in found])
        weights = np.concatenate([np.empty(0)] + [v.weights for v in found])
        views = wire.WireViews(
            np.array(statuses, dtype=np.uint8), np.array(lengths, dtype=np.uint32),
            *graph.key_exts(keys), weights, tuple(errors),
        )
        return wire.ViewsBatchResponse(wire.Status.OK, views)

    def _temporal(self, req: wire.TemporalLastNRequest) -> wire.TemporalResponse:
        before = math.inf if req.before_ts == wire.TS_MAX else req.before_ts
        n = None if req.n == wire.COUNT_ALL else req.n
        events = sample_temporal_last_n(self.graph, req.node, req.edge_type, before, n)
        out = tuple(
            wire.WireEvent(wire.WireNode(ref.node_type, ref.node_id), ts) for ref, ts in events
        )
        return wire.TemporalResponse(wire.Status.OK, out)


def _check_batch(size: int, what: str) -> None:
    if not 0 < size <= MAX_BATCH_NODES:
        raise ValueError(f"batch of {size} {what}, not 1 to {MAX_BATCH_NODES}")


def _unreadable(message: str) -> bytes:
    """The reply to a request that cannot be decoded. Its opcode may be
    unreadable, so the reply names HEALTH: a non-OK body has the same layout
    for every opcode."""
    return wire.encode_response(
        wire.error_response(wire.Opcode.HEALTH, wire.Status.BAD_REQUEST, message)
    )


def _sample_result(sample) -> wire.SampleResponse:
    """The batch result for one seed's sample: its error, or its entries."""
    if sample.error is not None:
        return wire.SampleResponse(wire.Status.BAD_REQUEST, error=sample.error)
    entries = tuple(
        wire.WireEntry(wire.WireNode(e.node.node_type, e.node.node_id), e.score, min(255, e.hop))
        for e in sample.entries
    )
    return wire.SampleResponse(wire.Status.OK, entries, sample.truncated)


def serve(
    graph: HeteroGraph, bind_address: str, pmap: PartitionMap, shard_index: int = 0
) -> GraphEngineServer:
    """Start a shard server; returns the running instance (call .stop())."""
    server = GraphEngineServer(graph, bind_address, pmap, shard_index)
    server.start()
    return server
