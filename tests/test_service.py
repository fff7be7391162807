"""Engine service: codec, server/client over TCP, retry, fan-out, partitions."""

from __future__ import annotations

import logging
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lignn.graph import MissingNodeError
from lignn.samplers import (
    PPRConfig,
    WalkConfig,
    ppr_forward_push,
    ppr_forward_push_batch,
    ppr_two_hop_random_walk,
    sample_random_multihop,
    sample_weighted_multihop,
)
from lignn.service import (
    ClientError,
    FanOutError,
    GraphEngineClient,
    PartitionMap,
    RemoteAdjacency,
    RemoteStatusError,
    RetriesExhausted,
    RetryPolicy,
    fan_out_sample,
    serve,
    shard_edge_lines,
)
from lignn.service import server as server_mod
from lignn.service import wire
from lignn.service.client import tcp_connector

from conftest import build, edge_row, node_row, random_weighted_digraph, schema

# -- codec ---------------------------------------------------------------------

nodes_st = st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**64 - 1)).map(
    lambda t: wire.WireNode(*t)
)
scores_st = st.floats(allow_nan=False, allow_infinity=False, width=64)
entries_st = st.lists(
    st.tuples(nodes_st, scores_st, st.integers(0, 255)).map(lambda t: wire.WireEntry(*t)),
    max_size=8,
).map(tuple)


class TestCodec:
    @given(nodes_st)
    def test_get_features_round_trip(self, node):
        req = wire.GetFeaturesRequest(node)
        assert wire.decode_request(wire.encode_request(req)[4:]) == req

    @given(st.lists(nodes_st, min_size=1, max_size=6).map(tuple),
           st.floats(0.01, 0.99), st.floats(1e-9, 1e-2), st.integers(1, 1000))
    @settings(max_examples=100, deadline=None)
    def test_push_batch_round_trip(self, seeds, alpha, rmax, topk):
        req = wire.PPRPushBatchRequest(seeds, alpha, rmax, topk)
        assert wire.decode_request(wire.encode_request(req)[4:]) == req

    @given(st.lists(nodes_st, max_size=6).map(tuple))
    @settings(max_examples=100, deadline=None)
    def test_neighbors_batch_round_trip(self, nodes):
        req = wire.NeighborsBatchRequest(nodes)
        assert wire.decode_request(wire.encode_request(req)[4:]) == req

    @given(nodes_st, st.integers(0, 0xFFFF), st.integers(-(2**62), 2**62),
           st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_temporal_round_trip(self, node, et, ts, n):
        req = wire.TemporalLastNRequest(node, et, ts, n)
        assert wire.decode_request(wire.encode_request(req)[4:]) == req

    def test_health_round_trip(self):
        req = wire.HealthRequest()
        assert wire.decode_request(wire.encode_request(req)[4:]) == req

    @given(entries_st, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sample_response_round_trip(self, entries, truncated):
        result = wire.SampleResponse(wire.Status.OK, entries, truncated)
        resp = wire.SampleBatchResponse(wire.Opcode.PPR_PUSH_BATCH, wire.Status.OK, (result,))
        assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    @given(st.sampled_from([wire.Status.NOT_OWNED, wire.Status.BAD_REQUEST, wire.Status.INTERNAL]),
           st.text(max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_error_response_round_trip(self, status, msg):
        op = wire.Opcode.NEIGHBORS_BATCH
        for resp in (wire.SampleBatchResponse(op, status, error=msg),
                     wire.SampleBatchResponse(op, wire.Status.OK,
                                              (wire.SampleResponse(status, error=msg),))):
            assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    @given(st.lists(entries_st, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_batch_response_round_trip(self, entry_sets):
        results = tuple(
            wire.SampleResponse(wire.Status.OK, e) for e in entry_sets
        )
        resp = wire.SampleBatchResponse(wire.Opcode.PPR_PUSH_BATCH, wire.Status.OK, results)
        assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    @given(st.lists(st.one_of(entries_st, st.text(max_size=20)), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_neighbors_batch_response_round_trip(self, items):
        op = wire.Opcode.NEIGHBORS_BATCH
        results = tuple(
            wire.SampleResponse(wire.Status.BAD_REQUEST, error=item) if isinstance(item, str)
            else wire.SampleResponse(wire.Status.OK, item)
            for item in items
        )
        resp = wire.SampleBatchResponse(op, wire.Status.OK, results)
        assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    @given(st.lists(scores_st, max_size=8).map(tuple))
    @settings(max_examples=60, deadline=None)
    def test_features_response_round_trip(self, values):
        resp = wire.FeaturesResponse(wire.Status.OK, values)
        assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    @given(st.lists(st.tuples(nodes_st, st.integers(-(2**62), 2**62)), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_temporal_response_round_trip(self, raw):
        events = tuple(wire.WireEvent(n, ts) for n, ts in raw)
        resp = wire.TemporalResponse(wire.Status.OK, events)
        assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    @given(st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**40)), max_size=5).map(tuple),
           st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 2**40)), max_size=5).map(tuple))
    @settings(max_examples=60, deadline=None)
    def test_health_response_round_trip(self, nodes, edges):
        resp = wire.HealthResponse(wire.Status.OK, nodes, edges)
        assert wire.decode_response(wire.encode_response(resp)[4:]) == resp

    def test_unknown_opcode_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode_request(b"\x7f")

    def test_trailing_bytes_rejected(self):
        req = wire.HealthRequest()
        with pytest.raises(wire.WireError):
            wire.decode_request(wire.encode_request(req)[4:] + b"\x00")


W, E = wire.WireNode, wire.WireEntry
OP, ST = wire.Opcode, wire.Status

# One frame per message kind with non-default values, OK and error bodies and
# empty sequences. The hex was taken from the per-message codec this module
# replaced, so any change to these bytes is a change to the protocol.
GOLDEN_REQUESTS = [
    (wire.GetFeaturesRequest(W(0xFFFF, 2**64 - 1)), "0b00000002ffffffffffffffffffff"),
    (wire.PPRPushBatchRequest((W(0, 1), W(1, 300)), 0.2, 1e-3, 9),
     "2d00000004020000000000010000000000000001002c010000000000009a9999999999c93f"
     "fca9f1d24d62503f09000000"),
    (wire.PPRPushBatchRequest((), 0.5, 0.125, 1),
     "190000000400000000000000000000e03f000000000000c03f01000000"),
    (wire.TemporalLastNRequest(W(4, 8), 6, -3, 12),
     "1900000005040008000000000000000600fdffffffffffffff0c000000"),
    (wire.HealthRequest(), "0100000006"),
    # the rows below were added with NEIGHBORS_BATCH; their hex was checked by
    # hand against the layout tables
    (wire.NeighborsBatchRequest((W(0, 1), W(2, 0x0102))),
     "1900000007020000000000010000000000000002000201000000000000"),
]

GOLDEN_RESPONSES = [
    (wire.SampleBatchResponse(OP.PPR_PUSH_BATCH, ST.OK, (
        wire.SampleResponse(ST.OK, (E(W(5, 6), 0.5, 2),), True),
        wire.SampleResponse(ST.BAD_REQUEST, error="no node"),
        wire.SampleResponse(ST.OK, (), False),
    )),
     "3d0000000400030000000018000000010100000005000600000000000000000000000000"
     "e03f02020b000000070000006e6f206e6f646500050000000000000000"),
    (wire.SampleBatchResponse(OP.PPR_PUSH_BATCH, ST.OK, ()), "06000000040000000000"),
    (wire.SampleBatchResponse(OP.PPR_PUSH_BATCH, ST.NOT_OWNED, error="2 seeds not owned"),
     "1700000004011100000032207365656473206e6f74206f776e6564"),
    # the two results are the bodies of the retired top-level SAMPLE_NEIGHBORS
    # OK and PPR_2HOP INTERNAL rows, byte for byte, each behind a status and a length
    (wire.SampleBatchResponse(OP.PPR_PUSH_BATCH, ST.OK, (
        wire.SampleResponse(ST.OK, (E(W(1, 2), 0.75, 1), E(W(0, 9), -1.5, 255)), True),
        wire.SampleResponse(ST.INTERNAL, error="b\u00e4d"),
    )),
     "43000000040002000000002b000000"
     "010200000001000200000000000000000000000000e83f01000009000000"
     "00000000000000000000f8bfff"
     "03080000000400000062c3a464"),
    (wire.FeaturesResponse(ST.OK, (1.0, -0.5, 3.25)),
     "1e000000020003000000000000000000f03f000000000000e0bf0000000000000a40"),
    (wire.FeaturesResponse(ST.OK, ()), "06000000020000000000"),
    (wire.FeaturesResponse(ST.BAD_REQUEST, error=""), "06000000020200000000"),
    (wire.TemporalResponse(ST.OK, (wire.WireEvent(W(1, 7), 100), wire.WireEvent(W(1, 8), -2))),
     "2a00000005000200000001000700000000000000640000000000000001000800000000000000"
     "feffffffffffffff"),
    (wire.TemporalResponse(ST.BAD_REQUEST, error="x"), "0700000005020100000078"),
    (wire.HealthResponse(ST.OK, ((0, 60), (1, 3)), ((0, 240),)),
     "240000000600020000003c000000000000000100030000000000000001000000f000000000000000"),
    (wire.HealthResponse(ST.OK, (), ()), "06000000060000000000"),
    (wire.HealthResponse(ST.INTERNAL, error="boom"), "0a000000060304000000626f6f6d"),
    (wire.SampleBatchResponse(OP.NEIGHBORS_BATCH, ST.OK, (
        wire.SampleResponse(ST.OK, (E(W(1, 3), 2.0, 1),)),
        wire.SampleResponse(ST.BAD_REQUEST, error="no node"),
    )),
     "330000000700020000000018000000000100000001000300000000000000000000000000004001020b"
     "000000070000006e6f206e6f6465"),
    (wire.SampleBatchResponse(OP.NEIGHBORS_BATCH, ST.NOT_OWNED, error="nodes not owned"),
     "1500000007010f0000006e6f646573206e6f74206f776e6564"),
]


class TestGoldenFrames:
    @pytest.mark.parametrize("request_, hexed", GOLDEN_REQUESTS)
    def test_request_bytes(self, request_, hexed):
        frame = bytes.fromhex(hexed)
        assert wire.encode_request(request_) == frame
        assert wire.decode_request(frame[4:]) == request_

    @pytest.mark.parametrize("response, hexed", GOLDEN_RESPONSES)
    def test_response_bytes(self, response, hexed):
        frame = bytes.fromhex(hexed)
        assert wire.encode_response(response) == frame
        assert wire.decode_response(frame[4:]) == response


# Malformed replies a peer can send, each with the cause the client names: a
# GET_FEATURES error message that is not UTF-8, and a batch reply whose first
# per-seed result has status 9.
MALFORMED_REPLIES = {
    b"\x02\x02" + (2).to_bytes(4, "little") + b"\xff\xfe": "not UTF-8",
    b"\x04\x00" + (1).to_bytes(4, "little") + b"\x09" + (0).to_bytes(4, "little"):
        "unknown status 9",
}


OK_HEALTH = wire.encode_response(wire.HealthResponse(wire.Status.OK))[4:]


class FakeTransport:
    """A connection that answers every request with ``payload``, or raises
    ``fail``; ``during`` runs inside each round trip."""

    def __init__(self, payload: bytes = OK_HEALTH, fail: BaseException | None = None,
                 during=None):
        self.payload, self.fail, self.during = payload, fail, during
        self.calls, self.closed = 0, False

    def request(self, frame: bytes) -> bytes:
        self.calls += 1
        if self.during is not None:
            self.during()
        if self.fail is not None:
            raise self.fail
        return self.payload

    def close(self) -> None:
        self.closed = True


class TestMalformedReplies:
    @pytest.mark.parametrize("payload", MALFORMED_REPLIES)
    def test_client_raises_client_error(self, payload):
        client = GraphEngineClient(PartitionMap(("fake:1",)), RetryPolicy(max_attempts=1),
                                   connector=lambda address: FakeTransport(payload))
        with pytest.raises(ClientError, match=MALFORMED_REPLIES[payload]):
            client.call_address("fake:1", wire.HealthRequest())
        client.close()


# Arbitrary bytes, and arbitrary bytes behind a valid opcode and a small status
# so that most payloads get past the header.
payloads_st = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda op, status, rest: bytes([op, status]) + rest,
              st.sampled_from([int(o) for o in wire.Opcode]), st.integers(0, 4),
              st.binary(max_size=80)),
)


@pytest.fixture(scope="module")
def empty_server():
    """A shard with no nodes: every decodable request fails fast, so no fuzzed
    parameter can start real sampling work."""
    graph, _ = build([], [])
    server = serve(graph, "127.0.0.1:0", PartitionMap(("127.0.0.1:0",)), 0)
    yield server
    server.stop()


class TestFuzz:
    @given(payloads_st)
    @example(list(MALFORMED_REPLIES)[0])
    @example(list(MALFORMED_REPLIES)[1])
    @example(bytes.fromhex(GOLDEN_RESPONSES[-2][1])[4:-3])  # a batch result cut short
    @settings(max_examples=400, deadline=None)
    def test_decoders_raise_only_wire_error(self, payload):
        for decode in (wire.decode_request, wire.decode_response):
            try:
                decode(payload)
            except wire.WireError:
                pass

    @given(payloads_st)
    @settings(max_examples=200, deadline=None)
    def test_server_always_answers_with_a_frame(self, empty_server, payload):
        frame = empty_server.handle_payload(payload)
        assert int.from_bytes(frame[:4], "little") == len(frame) - 4
        wire.decode_response(frame[4:])


def schedule(policy: RetryPolicy) -> list[float]:
    """The waits between a call's attempts."""
    return [policy.backoff_ms(k) for k in range(policy.max_attempts - 1)]


class TestRetryPolicy:
    def test_default_schedule(self):
        policy = RetryPolicy()
        assert schedule(policy) == [100.0, 200.0, 400.0, 800.0]
        assert all(b <= policy.max_backoff_ms for b in schedule(policy))

    def test_cap_applies(self):
        policy = RetryPolicy(max_attempts=8)
        assert schedule(policy) == [100, 200, 400, 800, 1600, 2000, 2000]

    def test_monotone_non_decreasing(self):
        policy = RetryPolicy(max_attempts=10)
        sched = schedule(policy)
        assert all(a <= b for a, b in zip(sched, sched[1:]))


# -- live server fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def live_graph():
    rng = np.random.default_rng(61)
    lines = random_weighted_digraph(rng, 60, 4.0)
    nodes = [node_row(0, i, rng.normal(size=4)) for i in range(60)]
    graph, report = build(lines, nodes)
    return graph, report, lines, nodes


@pytest.fixture(scope="module")
def single_server(live_graph):
    graph, report, _, _ = live_graph
    pmap_seed = PartitionMap(("127.0.0.1:0",))
    server = serve(graph, "127.0.0.1:0", pmap_seed, 0)
    pmap = PartitionMap((server.address,))
    server.pmap = pmap
    yield graph, report, server, pmap
    server.stop()


def make_client(pmap, **kw):
    return GraphEngineClient(pmap, RetryPolicy(max_attempts=3, initial_backoff_ms=1.0,
                                               max_backoff_ms=4.0), sleep=lambda s: None, **kw)


class TestServer:
    def test_health_counts_match_build_report(self, single_server):
        graph, report, server, pmap = single_server
        client = make_client(pmap)
        resp = client.call_address(server.address, wire.HealthRequest())
        assert dict(resp.node_counts) == report.node_counts
        assert dict(resp.edge_counts) == report.edge_counts
        client.close()

    def test_server_bytes_equal_in_process_plus_codec(self, single_server):
        graph, _, server, pmap = single_server
        seeds = (wire.WireNode(0, 3), wire.WireNode(0, 9999), wire.WireNode(0, 7))
        req = wire.PPRPushBatchRequest(seeds, 0.2, 1e-4, 10)
        over_wire = server.handle_payload(wire.encode_request(req)[4:])
        samples = ppr_forward_push_batch(graph, list(seeds),
                                         PPRConfig(alpha=0.2, r_max=1e-4, top_k=10))
        results = tuple(
            wire.SampleResponse(wire.Status.BAD_REQUEST, error=s.error) if s.error is not None
            else wire.SampleResponse(wire.Status.OK, tuple(
                wire.WireEntry(wire.WireNode(e.node.node_type, e.node.node_id), e.score,
                               min(255, e.hop))
                for e in s.entries
            ), s.truncated)
            for s in samples
        )
        assert [r.status for r in results] == [wire.Status.OK, wire.Status.BAD_REQUEST,
                                               wire.Status.OK]
        expected = wire.encode_response(
            wire.SampleBatchResponse(wire.Opcode.PPR_PUSH_BATCH, wire.Status.OK, results)
        )
        assert over_wire == expected

    def test_unknown_node_bad_request(self, single_server):
        _, _, server, pmap = single_server
        client = make_client(pmap)
        with pytest.raises(RemoteStatusError) as err:
            client.call(wire.GetFeaturesRequest(wire.WireNode(0, 9999)))
        assert err.value.status == wire.Status.BAD_REQUEST
        client.close()

    def test_not_owned(self, live_graph):
        graph, _, _, _ = live_graph
        # two-shard map but this server is shard 0: shard-1 nodes are NOT_OWNED
        seed_map = PartitionMap(("127.0.0.1:0", "127.0.0.1:0"))
        server = serve(graph, "127.0.0.1:0", seed_map, 0)
        try:
            pmap = PartitionMap((server.address, server.address))
            client = make_client(pmap)
            foreign = next(i for i in range(60) if pmap.owner((0, i)) == 1)
            with pytest.raises(RemoteStatusError) as err:
                client.call_address(
                    server.address, wire.GetFeaturesRequest(wire.WireNode(0, foreign))
                )
            assert err.value.status == wire.Status.NOT_OWNED
            # one foreign node fails a whole neighbour batch
            own = next(i for i in range(60) if pmap.owner((0, i)) == 0)
            batch = wire.NeighborsBatchRequest((wire.WireNode(0, own), wire.WireNode(0, foreign)))
            with pytest.raises(RemoteStatusError) as err:
                client.call_address(server.address, batch)
            assert err.value.status == wire.Status.NOT_OWNED
            client.close()
        finally:
            server.stop()

    def test_get_features(self, single_server):
        graph, _, server, pmap = single_server
        client = make_client(pmap)
        resp = client.call(wire.GetFeaturesRequest(wire.WireNode(0, 5)))
        np.testing.assert_allclose(resp.values, graph.features_of(graph.node_ref(0, 5)))
        client.close()

    def test_neighbors_batch_equals_merged_neighbors(self, single_server):
        graph, _, server, pmap = single_server
        client = make_client(pmap)
        nodes = tuple(wire.WireNode(0, i) for i in range(60))
        resp = client.call_address(server.address, wire.NeighborsBatchRequest(nodes))
        assert resp.opcode == wire.Opcode.NEIGHBORS_BATCH and len(resp.results) == 60
        for node, result in zip(nodes, resp.results):
            refs, weights, _ = graph.merged_neighbors(graph.resolve(node))
            assert result.status == wire.Status.OK
            assert result.entries == tuple(
                wire.WireEntry(wire.WireNode(ref.node_type, ref.node_id), w, 1)
                for ref, w in zip(refs, weights.tolist())
            )
        client.close()

    def test_neighbors_batch_unknown_node_fails_alone(self, single_server):
        _, _, server, pmap = single_server
        client = make_client(pmap)
        request = wire.NeighborsBatchRequest((wire.WireNode(0, 9999), wire.WireNode(0, 5)))
        resp = client.call_address(server.address, request)
        missing, known = resp.results
        assert resp.status == known.status == wire.Status.OK and known.entries
        assert missing.status == wire.Status.BAD_REQUEST and "no node" in missing.error
        client.close()

    def test_temporal_over_wire(self, single_server):
        graph, _, server, pmap = single_server
        client = make_client(pmap)
        resp = client.call(wire.TemporalLastNRequest(wire.WireNode(0, 5), 0))
        assert resp.status == wire.Status.OK
        client.close()


SEED = wire.WireNode(0, 5)
INVALID_REQUESTS = {
    "push-r_max-0": wire.PPRPushBatchRequest((SEED,), r_max=0.0),
    "push-alpha-1": wire.PPRPushBatchRequest((SEED,), alpha=1.0),
    "push-top_k-0": wire.PPRPushBatchRequest((SEED,), top_k=0),
    "batch-empty": wire.NeighborsBatchRequest(()),
    "batch-too-many-nodes": wire.NeighborsBatchRequest((SEED,) * (server_mod.MAX_BATCH_NODES + 1)),
}
# The golden request payloads of the retired SAMPLE_NEIGHBORS and PPR_2HOP opcodes.
RETIRED_REQUESTS = {
    "retired-sample-neighbors": "01010300080706050403020163000000000000000207000000ffffffff",
    "retired-sample-neighbors-no-hops": "010001000200000000000000000000000000000000",
    "retired-ppr-2hop": "0302002800000000000000000000000000d03fd2040000110000000500000000000000",
}


class TestInvalidRequests:
    @pytest.mark.parametrize("name", sorted(INVALID_REQUESTS) + sorted(RETIRED_REQUESTS))
    def test_answered_bad_request_without_traceback(self, single_server, caplog, name):
        _, _, server, _ = single_server
        if name in RETIRED_REQUESTS:
            payload = bytes.fromhex(RETIRED_REQUESTS[name])
        else:
            payload = wire.encode_request(INVALID_REQUESTS[name])[4:]
        with caplog.at_level(logging.ERROR, logger="lignn.server"):
            frame = server.handle_payload(payload)
        reply = wire.decode_response(frame[4:])
        assert reply.status == wire.Status.BAD_REQUEST
        assert name not in RETIRED_REQUESTS or "unknown opcode" in reply.error
        assert not caplog.records

    def test_oversized_frame_answered_then_closed(self, single_server, caplog):
        _, _, server, pmap = single_server
        host, port = server.address.rsplit(":", 1)
        with caplog.at_level(logging.ERROR, logger="lignn.server"):
            with socket.create_connection((host, int(port)), timeout=5.0) as sock:
                sock.sendall((wire.MAX_FRAME_BYTES + 1).to_bytes(4, "little"))
                reply = wire.decode_response(wire.read_frame(sock))
                assert sock.recv(1) == b""  # the server closed the connection
        assert reply.status == wire.Status.BAD_REQUEST
        assert str(wire.MAX_FRAME_BYTES) in reply.error
        assert not caplog.records
        client = make_client(pmap)
        assert client.call(wire.GetFeaturesRequest(SEED)).status == wire.Status.OK
        client.close()


class TestClientThreads:
    def test_shared_client_answers_each_caller(self, single_server):
        graph, _, server, pmap = single_server
        client = make_client(pmap)
        wrong, raised = [], []

        def hammer(worker: int) -> None:
            for k in range(200):
                node = (worker * 7 + k) % 60
                try:
                    resp = client.call(wire.GetFeaturesRequest(wire.WireNode(0, node)))
                except Exception as exc:  # recorded, asserted below
                    raised.append(exc)
                    continue
                if resp.values != tuple(graph.features_of(graph.node_ref(0, node))):
                    wrong.append(node)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert not any(t.is_alive() for t in threads)
        assert raised == [] and wrong == []


class TestClientPool:
    def make(self, transports):
        made = []

        def connector(address):
            made.append(transports.pop(0))
            return made[-1]

        client = GraphEngineClient(PartitionMap(("fake:1",)),
                                   RetryPolicy(max_attempts=2, initial_backoff_ms=1.0),
                                   connector=connector, sleep=lambda s: None)
        return client, made

    def test_one_caller_reuses_one_connection(self):
        client, made = self.make([FakeTransport()])
        for _ in range(5):
            client.call_address("fake:1", wire.HealthRequest())
        assert len(made) == 1 and made[0].calls == 5
        client.close()
        assert made[0].closed

    def test_failed_connection_is_dropped(self):
        client, made = self.make([FakeTransport(fail=ConnectionResetError("reset")),
                                  FakeTransport()])
        client.call_address("fake:1", wire.HealthRequest())
        client.call_address("fake:1", wire.HealthRequest())
        assert made[0].closed and made[0].calls == 1
        assert not made[1].closed and made[1].calls == 2
        client.close()

    def test_close_during_a_call_closes_its_connection(self):
        transports = []
        client, made = self.make(transports)
        transports.append(FakeTransport(during=client.close))
        client.call_address("fake:1", wire.HealthRequest())
        assert made[0].closed  # not returned to the pool once close() has run


class FlakyConnector:
    """Fails the first n connection attempts, then delegates to TCP."""

    def __init__(self, fail_first: int):
        self.fail_first = fail_first
        self.attempts = 0
        self._real = tcp_connector()

    def __call__(self, address):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise ConnectionRefusedError(f"injected failure {self.attempts}")
        return self._real(address)


class TestRetry:
    def test_flaky_server_recovers_within_budget(self, single_server):
        _, _, server, pmap = single_server
        flaky = FlakyConnector(fail_first=3)
        sleeps = []
        client = GraphEngineClient(
            pmap, RetryPolicy(max_attempts=5, initial_backoff_ms=10.0, max_backoff_ms=50.0),
            connector=flaky, sleep=sleeps.append,
        )
        resp = client.call(wire.GetFeaturesRequest(wire.WireNode(0, 5)))
        assert resp.status == wire.Status.OK
        assert flaky.attempts == 4
        assert sleeps == [0.01, 0.02, 0.04]
        client.close()

    def test_flaky_server_exhausts_small_budget(self, single_server):
        _, _, server, pmap = single_server
        flaky = FlakyConnector(fail_first=3)
        client = GraphEngineClient(
            pmap, RetryPolicy(max_attempts=3, initial_backoff_ms=1.0, max_backoff_ms=4.0),
            connector=flaky, sleep=lambda s: None,
        )
        with pytest.raises(RetriesExhausted) as err:
            client.call(wire.GetFeaturesRequest(wire.WireNode(0, 5)))
        assert err.value.attempts == 3
        assert isinstance(err.value.last, ConnectionRefusedError)
        client.close()

    def test_non_retryable_fails_immediately(self, single_server):
        _, _, server, pmap = single_server
        flaky = FlakyConnector(fail_first=0)
        client = GraphEngineClient(pmap, RetryPolicy(max_attempts=5), connector=flaky,
                                   sleep=lambda s: None)
        with pytest.raises(RemoteStatusError):
            client.call(wire.GetFeaturesRequest(wire.WireNode(0, 7777)))
        assert flaky.attempts == 1  # no retries on BAD_REQUEST
        client.close()

    def test_dead_server_refused(self):
        pmap = PartitionMap(("127.0.0.1:1",))  # nothing listens here
        client = GraphEngineClient(
            pmap, RetryPolicy(max_attempts=2, initial_backoff_ms=1.0, max_backoff_ms=2.0),
            sleep=lambda s: None,
        )
        with pytest.raises(RetriesExhausted):
            client.call(wire.GetFeaturesRequest(wire.WireNode(0, 1)))
        client.close()


class ShardedCluster:
    def __init__(self, lines, nodes, partitions: int):
        seed_map = PartitionMap(tuple("127.0.0.1:0" for _ in range(partitions)))
        self.servers = []
        for shard in range(partitions):
            shard_lines = list(shard_edge_lines(lines, seed_map, shard))
            graph, _ = build(shard_lines, nodes)
            self.servers.append(serve(graph, "127.0.0.1:0", seed_map, shard))
        self.pmap = PartitionMap(tuple(s.address for s in self.servers))
        for s in self.servers:
            s.pmap = self.pmap

    def stop(self):
        for s in self.servers:
            s.stop()


@pytest.fixture(scope="module")
def clusters(live_graph):
    _, _, lines, nodes = live_graph
    built = {p: ShardedCluster(lines, nodes, p) for p in (1, 2, 4)}
    yield built
    for c in built.values():
        c.stop()


@pytest.fixture(scope="module")
def wide_cluster():
    """Two shards of a 400-node graph: a push from one seed reads hundreds of
    views, enough to show how many round trips fetch them."""
    rng = np.random.default_rng(67)
    lines = random_weighted_digraph(rng, 400, 5.0)
    graph, _ = build(lines)
    cluster = ShardedCluster(lines, [], 2)
    yield graph, cluster
    cluster.stop()


def sample_key(result):
    if isinstance(result, list):  # multihop: per-hop samples
        return [
            [(e.node.ext(), e.score, e.hop) for e in hop.entries] for hop in result
        ]
    return [(e.node.ext(), e.score, e.hop) for e in result.entries]


class RecordingTransport:
    """A TCP connection that logs each request it sends."""

    def __init__(self, inner, log: list):
        self.inner, self.log = inner, log

    def request(self, frame: bytes) -> bytes:
        self.log.append(wire.decode_request(frame[4:]))
        return self.inner.request(frame)

    def close(self) -> None:
        self.inner.close()


def views_requested(requests) -> list:
    """The nodes whose neighbour lists the requests asked for, with repeats."""
    return [node for req in requests if req.opcode == wire.Opcode.NEIGHBORS_BATCH
            for node in req.nodes]


def views_fetched(requests) -> set:
    """The distinct nodes whose neighbour lists the requests asked for."""
    return set(views_requested(requests))


def recording_client(pmap, log: list) -> GraphEngineClient:
    tcp = tcp_connector()
    return make_client(pmap, connector=lambda address: RecordingTransport(tcp(address), log))


def in_process(graph, seeds, strategy, kw) -> list:
    """What the in-process samplers give for the fan-out arguments ``kw``."""
    if strategy == "random":
        return sample_random_multihop(graph, seeds, kw["fanouts"], kw["rng_seed"])
    if strategy == "weighted":
        return sample_weighted_multihop(graph, seeds, kw["fanouts"], kw["rng_seed"])
    if strategy == "ppr-2hop":
        return [ppr_two_hop_random_walk(graph, seed, kw["walk"]) for seed in seeds]
    return [ppr_forward_push(graph, seed, kw["ppr"]) for seed in seeds]


STRATEGY_ARGS = [
    ("random", {"fanouts": [3, 2], "rng_seed": 9}),
    ("weighted", {"fanouts": [3, 2], "rng_seed": 9}),
    ("ppr-2hop", {"walk": WalkConfig(top_k=10)}),
    ("ppr-push", {"ppr": PPRConfig(alpha=0.2, r_max=1e-4, top_k=10)}),
]


class TestFanOut:
    SEEDS = [(0, i) for i in range(8)]
    PUSH_ROUND_TRIPS = {(0, 0): 11, (0, 1): 13, (0, 2): 11, (0, 3): 13}  # on wide_cluster

    def run_strategy(self, cluster, strategy, **kw):
        client = make_client(cluster.pmap)
        try:
            return fan_out_sample(client, self.SEEDS, strategy, **kw)
        finally:
            client.close()

    @pytest.mark.parametrize("strategy,kw", STRATEGY_ARGS)
    def test_partition_invariance(self, clusters, strategy, kw):
        keys = {}
        for p, cluster in clusters.items():
            results = self.run_strategy(cluster, strategy, **kw)
            keys[p] = [sample_key(r) for r in results]
        assert keys[1] == keys[2] == keys[4]

    def test_p1_random_equals_in_process(self, clusters, live_graph):
        graph, _, _, _ = live_graph
        results = self.run_strategy(clusters[1], "random", fanouts=[3, 2], rng_seed=9)
        local = sample_random_multihop(graph, self.SEEDS, [3, 2], rng_seed=9)
        for remote_hops, local_hops in zip(results, local):
            assert sample_key(remote_hops) == sample_key(local_hops)

    def test_2hop_equals_in_process(self, clusters, live_graph):
        # both providers order the ball by node, so every score's terms are
        # added in the same order: bit-equal on every partitioning
        graph, _, _, _ = live_graph
        cfg = WalkConfig(top_k=10)
        local = [sample_key(ppr_two_hop_random_walk(graph, seed, cfg)) for seed in self.SEEDS]
        for p, cluster in clusters.items():
            results = self.run_strategy(cluster, "ppr-2hop", walk=cfg)
            assert [sample_key(r) for r in results] == local, p

    def test_push_scores_match_in_process(self, clusters, live_graph):
        graph, _, _, _ = live_graph
        cfg = PPRConfig(alpha=0.2, r_max=1e-4, top_k=10)
        results = self.run_strategy(clusters[4], "ppr-push", ppr=cfg)
        for seed, remote in zip(self.SEEDS, results):
            local = ppr_forward_push(graph, seed, cfg)
            remote_scores = {e.node.ext(): e.score for e in remote.entries}
            local_scores = {e.node.ext(): e.score for e in local.entries}
            assert remote_scores == local_scores

    def test_push_ties_pop_in_node_order(self):
        # the second round (pushes 10 and 20) leaves 5 and 30 with equal
        # residuals; the third has budget for one push and takes 5 in node
        # order, although the remote provider discovers 30 (through 20) first
        edges = [(1, 10), (1, 20), (10, 5), (20, 30), (30, 1), (5, 1)]
        graph, _ = build([edge_row(0, u, 0, 0, v, 1.0) for u, v in edges])
        server = serve(graph, "127.0.0.1:0", PartitionMap(("127.0.0.1:0",)), 0)
        try:
            server.pmap = PartitionMap((server.address,))
            client = make_client(server.pmap)
            cfg = PPRConfig(r_max=1e-4, top_k=10, max_pushes=4)
            provider = RemoteAdjacency(client)
            remote = ppr_forward_push(provider, (0, 1), cfg)
            assert provider.resolve((0, 30)).index < provider.resolve((0, 5)).index
            client.close()
        finally:
            server.stop()
        local = ppr_forward_push(graph, (0, 1), cfg)
        assert [e.node.ext() for e in local.entries] == [(0, 10), (0, 20), (0, 5)]
        assert sample_key(remote) == sample_key(local)

    def test_walk_ties_come_out_in_node_order(self):
        # the remote provider discovers 30 (through 10) before 5 (through
        # 20); the two are symmetric, so their scores are bit-equal
        edges = [(1, 10), (1, 20), (10, 30), (20, 5), (30, 1), (5, 1)]
        graph, _ = build([edge_row(0, u, 0, 0, v, 1.0) for u, v in edges])
        server = serve(graph, "127.0.0.1:0", PartitionMap(("127.0.0.1:0",)), 0)
        try:
            server.pmap = PartitionMap((server.address,))
            client = make_client(server.pmap)
            cfg = WalkConfig(top_k=10)
            [remote] = fan_out_sample(client, [(0, 1)], "ppr-2hop", walk=cfg)
            client.close()
        finally:
            server.stop()
        by_id = {e.node.node_id: e for e in remote.entries}
        assert by_id[30].node.index < by_id[5].node.index
        assert by_id[5].score == by_id[30].score
        assert [e.node.node_id for e in remote.entries][2:] == [5, 30]
        assert sample_key(remote) == sample_key(ppr_two_hop_random_walk(graph, (0, 1), cfg))

    @pytest.mark.parametrize("strategy,kw", [
        ("random", {"fanouts": [4, 4], "rng_seed": 9}),
        ("ppr-push", {"ppr": PPRConfig(alpha=0.2, r_max=1e-4, top_k=10)}),
    ])
    def test_round_trips_are_batched(self, wide_cluster, strategy, kw):
        graph, cluster = wide_cluster
        log: list = []
        client = recording_client(cluster.pmap, log)
        try:
            for seed in self.SEEDS[:4]:
                del log[:]
                [result] = fan_out_sample(client, [seed], strategy, **kw)
                if strategy == "random":
                    [local] = sample_random_multihop(graph, [seed], kw["fanouts"], kw["rng_seed"])
                    assert len(log) <= 1 + cluster.pmap.count
                else:
                    local = ppr_forward_push(graph, seed, kw["ppr"])
                    # exact: a view read past the client cache, a hop label's
                    # say, adds a round trip; each of the 400 views comes once
                    assert {r.opcode for r in log} == {wire.Opcode.NEIGHBORS_BATCH}
                    assert len(log) == self.PUSH_ROUND_TRIPS[seed]
                    assert len(views_requested(log)) == len(views_fetched(log)) == 400
                assert sample_key(result) == sample_key(local)
        finally:
            client.close()

    @pytest.mark.parametrize("strategy,kw", STRATEGY_ARGS)
    def test_one_call_fetches_each_view_once(self, wide_cluster, clusters, live_graph,
                                             strategy, kw):
        runs = [wide_cluster] + [(live_graph[0], clusters[p]) for p in (1, 2, 4)]
        for graph, cluster in runs:
            log: list = []
            client = recording_client(cluster.pmap, log)
            try:
                results = fan_out_sample(client, self.SEEDS, strategy, **kw)
            finally:
                client.close()
            assert {r.opcode for r in log} == {wire.Opcode.NEIGHBORS_BATCH}
            requested = views_requested(log)
            assert len(requested) == len(set(requested))
            local = in_process(graph, self.SEEDS, strategy, kw)
            assert [sample_key(r) for r in results] == [sample_key(r) for r in local]

    @pytest.mark.parametrize("strategy,kw", STRATEGY_ARGS)
    def test_unknown_seed_fetched_once(self, clusters, strategy, kw):
        log: list = []
        client = recording_client(clusters[2].pmap, log)
        try:
            results = fan_out_sample(client, [(0, 999), (0, 0), (0, 999)], strategy, **kw)
        finally:
            client.close()
        errors = [(r[0] if isinstance(r, list) else r).error for r in results]
        assert errors[0] is not None and errors[2] is not None
        assert errors[1] is None
        assert views_requested(log).count(wire.WireNode(0, 999)) == 1

    def test_resolve_unknown_node_raises_missing_node(self, clusters):
        client = make_client(clusters[2].pmap)
        try:
            with pytest.raises(MissingNodeError, match=r"\(0, 999\)"):
                RemoteAdjacency(client).resolve((0, 999))
        finally:
            client.close()

    def test_unknown_seed_error_entry(self, clusters):
        client = make_client(clusters[2].pmap)
        results = fan_out_sample(client, [(0, 0), (0, 999)], "random",
                                 fanouts=[2], rng_seed=1)
        assert results[0][0].error is None
        assert results[1][0].error is not None
        client.close()

    def test_downed_shard_names_owned_seeds(self, live_graph):
        _, _, lines, nodes = live_graph
        cluster = ShardedCluster(lines, nodes, 2)
        try:
            cluster.servers[1].stop()
            client = GraphEngineClient(
                cluster.pmap,
                RetryPolicy(max_attempts=2, initial_backoff_ms=1.0, max_backoff_ms=2.0),
                sleep=lambda s: None,
            )
            seeds = [(0, i) for i in range(10)]
            with pytest.raises(FanOutError) as err:
                fan_out_sample(client, seeds, "random", fanouts=[2], rng_seed=3)
            expected = sorted(s for s in seeds if cluster.pmap.owner(s) == 1)
            assert err.value.missing_seeds == expected
            client.close()
        finally:
            cluster.servers[0].stop()
