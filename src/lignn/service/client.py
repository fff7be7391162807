"""Retrying graph-engine client and cross-shard fan-out sampling.

The client routes every request to the owning shard and retries retryable
transport failures (refused/reset connections, timeouts) with capped
exponential backoff. Fan-out sampling runs the in-process sampler cores over
a network-backed adjacency provider, so results are invariant to the
partition count.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..graph import MissingNodeError, NodeRef
from ..samplers import (
    NeighborSample,
    PPRConfig,
    SampleEntry,
    WalkConfig,
    multihop_sample_core,
    ppr_forward_push,
    ppr_forward_push_batch,
    ppr_two_hop_random_walk,
)
from . import wire
from .partition import PartitionMap
from .server import MAX_BATCH_NODES

logger = logging.getLogger("lignn.client")

RETRYABLE_EXCEPTIONS = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    TimeoutError,
    socket.timeout,
)


class ClientError(Exception):
    pass


class RemoteStatusError(ClientError):
    """Server answered with a non-OK status; never retried."""

    def __init__(self, status: wire.Status, message: str):
        super().__init__(f"{status.name}: {message}")
        self.status = status
        self.message = message


class RetriesExhausted(ClientError):
    def __init__(self, attempts: int, last: BaseException):
        super().__init__(f"failed after {attempts} attempts: {last!r}")
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    initial_backoff_ms: float = 100.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 2000.0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.initial_backoff_ms <= 0 or self.max_backoff_ms <= 0:
            raise ValueError("backoffs must be positive")
        if self.backoff_multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def backoff_ms(self, failure_index: int) -> float:
        """Wait before attempt failure_index+2 (0-based failure count)."""
        return min(
            self.initial_backoff_ms * self.backoff_multiplier**failure_index,
            self.max_backoff_ms,
        )

    def schedule_ms(self) -> list[float]:
        return [self.backoff_ms(k) for k in range(self.max_attempts - 1)]


class _TCPTransport:
    """One connection to one address. It is not thread-safe: the client's
    pool lends it to one call at a time."""

    def __init__(self, address: str, timeout: float):
        host, port = address.rsplit(":", 1)
        self._sock = socket.create_connection((host, int(port)), timeout=timeout)

    def request(self, frame: bytes) -> bytes:
        self._sock.sendall(frame)
        return wire.read_frame(self._sock)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_connector(timeout: float = 5.0) -> Callable[[str], _TCPTransport]:
    return lambda address: _TCPTransport(address, timeout)


class GraphEngineClient:
    """Thread-safe client over a PartitionMap with retry semantics.

    Connections are pooled per address and checked out for one call at a
    time, so concurrent calls never share a socket. A call reuses an idle
    connection when there is one (one caller thread keeps using one socket)
    and opens a new one otherwise. A connection whose round trip raised is
    closed, not returned. ``close()`` closes every idle connection, and a
    connection in use when it runs is closed when its call ends.
    """

    def __init__(
        self,
        pmap: PartitionMap,
        policy: RetryPolicy | None = None,
        connector: Callable[[str], _TCPTransport] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.pmap = pmap
        self.policy = policy or RetryPolicy()
        self.policy.validate()
        self._connector = connector or tcp_connector()
        self._sleep = sleep
        self._idle: dict[str, list[_TCPTransport]] = {}
        self._generation = 0  # bumped by close(); older connections are not pooled
        self._lock = threading.Lock()

    # -- transport with retry --------------------------------------------------

    def _round_trip(self, address: str, frame: bytes) -> bytes:
        with self._lock:
            idle = self._idle.get(address)
            conn = idle.pop() if idle else None
            generation = self._generation
        if conn is None:
            conn = self._connector(address)
        try:
            payload = conn.request(frame)
        except BaseException:
            conn.close()
            raise
        with self._lock:
            if generation == self._generation:
                self._idle.setdefault(address, []).append(conn)
                return payload
        conn.close()
        return payload

    def call_address(self, address: str, request) -> object:
        frame = wire.encode_request(request)
        last: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt > 0:
                self._sleep(self.policy.backoff_ms(attempt - 1) / 1000.0)
            try:
                response = wire.decode_response(self._round_trip(address, frame))
            except RETRYABLE_EXCEPTIONS as exc:
                last = exc
                logger.debug("attempt %d to %s failed: %r", attempt + 1, address, exc)
                continue
            except wire.WireError as exc:
                raise ClientError(f"malformed response: {exc}") from exc
            if response.status != wire.Status.OK:
                raise RemoteStatusError(response.status, response.error)
            return response
        raise RetriesExhausted(self.policy.max_attempts, last)

    def call(self, request) -> object:
        """Route by the request's node and execute with retries."""
        if request.opcode == wire.Opcode.PPR_PUSH_BATCH:
            return self._call_push_batch(request)
        if request.opcode in (wire.Opcode.HEALTH, wire.Opcode.NEIGHBORS_BATCH):
            raise ClientError(f"{request.opcode.name} needs an explicit address")
        node = request.seed if request.opcode == wire.Opcode.SAMPLE_NEIGHBORS else request.node
        return self.call_address(self.pmap.address_of(node), request)

    def _call_push_batch(self, request: wire.PPRPushBatchRequest):
        """Split a push batch by owning shard, merge preserving seed order."""
        by_owner: dict[int, list[int]] = {}
        for i, seed in enumerate(request.seeds):
            by_owner.setdefault(self.pmap.owner(seed), []).append(i)
        merged: list = [None] * len(request.seeds)
        for owner, indices in sorted(by_owner.items()):
            sub = wire.PPRPushBatchRequest(
                tuple(request.seeds[i] for i in indices),
                request.alpha,
                request.r_max,
                request.top_k,
            )
            resp = self.call_address(self.pmap.addresses[owner], sub)
            for i, res in zip(indices, resp.results):
                merged[i] = res
        return wire.SampleBatchResponse(request.opcode, wire.Status.OK, tuple(merged))

    def health(self, address: str) -> wire.HealthResponse:
        return self.call_address(address, wire.HealthRequest())

    def close(self) -> None:
        with self._lock:
            conns = [conn for idle in self._idle.values() for conn in idle]
            self._idle.clear()
            self._generation += 1
        for conn in conns:
            conn.close()


# -- remote adjacency provider ------------------------------------------------------


class RemoteAdjacency:
    """Adjacency provider backed by the sharded engine.

    Views are cached per node. A miss in ``neighbors`` (and ``resolve``)
    fetches one node with ``SAMPLE_NEIGHBORS`` (weighted, ``FANOUT_ALL``);
    ``prefetch`` fetches the uncached nodes it is given with one
    ``NEIGHBORS_BATCH`` per owning shard, which answers each node with the
    same entries. A node whose batch result failed stays uncached, so its
    next ``neighbors`` call raises as a single miss does.

    NodeRef indices are client-side discovery indices (dense, in fetch
    order); orderings that matter for cross-partition equality use external
    (node_type, node_id) keys throughout the sampler cores.
    """

    def __init__(
        self,
        client: GraphEngineClient,
        edge_type_weights: dict[int, float] | None = None,
        weighted: bool = True,
    ):
        self.client = client
        self.multipliers = tuple(sorted((edge_type_weights or {}).items()))
        self.weighted = weighted
        self._registry: dict[tuple[int, int], int] = {}
        self._cache: dict[tuple[int, int], tuple[list[NodeRef], np.ndarray]] = {}

    def _ref(self, ext: tuple[int, int]) -> NodeRef:
        idx = self._registry.get(ext)
        if idx is None:
            idx = len(self._registry)
            self._registry[ext] = idx
        return NodeRef(ext[0], ext[1], idx)

    def _view(self, entries) -> tuple[list[NodeRef], np.ndarray]:
        refs = [self._ref((e.node.node_type, e.node.node_id)) for e in entries]
        if not self.weighted:
            return refs, np.ones(len(refs), dtype=np.float64)
        return refs, np.array([e.score for e in entries], dtype=np.float64)

    def resolve(self, node) -> NodeRef:
        ext = (node[0], node[1])
        self.neighbors_ext(ext)  # raises MissingNodeError for unknown nodes
        return self._ref(ext)

    def neighbors(self, node: NodeRef) -> tuple[list[NodeRef], np.ndarray]:
        return self.neighbors_ext(node.ext())

    def neighbors_ext(self, ext: tuple[int, int]) -> tuple[list[NodeRef], np.ndarray]:
        hit = self._cache.get(ext)
        if hit is not None:
            return hit
        request = wire.SampleNeighborsRequest(
            wire.WireNode(*ext),
            strategy=1,
            fanouts=(wire.FANOUT_ALL,),
            multipliers=self.multipliers,
        )
        try:
            response = self.client.call(request)
        except RemoteStatusError as exc:
            if exc.status == wire.Status.BAD_REQUEST and "no node" in exc.message:
                raise MissingNodeError(exc.message) from None
            raise
        hit = self._cache[ext] = self._view(response.entries)
        return hit

    def prefetch(self, nodes: Iterable[NodeRef]) -> None:
        """Fetch the views of the distinct uncached ``nodes``, one round trip
        per owning shard and chunk of ``MAX_BATCH_NODES``."""
        pmap, cache = self.client.pmap, self._cache
        by_owner: dict[int, list[tuple[int, int]]] = {}
        for ext in dict.fromkeys((node[0], node[1]) for node in nodes):
            if ext not in cache:
                by_owner.setdefault(pmap.owner(ext), []).append(ext)
        for owner, exts in sorted(by_owner.items()):
            for lo in range(0, len(exts), MAX_BATCH_NODES):
                chunk = exts[lo : lo + MAX_BATCH_NODES]
                request = wire.NeighborsBatchRequest(
                    tuple(wire.WireNode(*ext) for ext in chunk), self.multipliers
                )
                response = self.client.call_address(pmap.addresses[owner], request)
                for ext, result in zip(chunk, response.results):
                    if result.status == wire.Status.OK:
                        cache[ext] = self._view(result.entries)


# -- fan-out sampling -----------------------------------------------------------------


class FanOutError(ClientError):
    def __init__(self, missing_seeds: list[tuple[int, int]], partial):
        super().__init__(f"{len(missing_seeds)} seeds unreachable: {missing_seeds}")
        self.missing_seeds = missing_seeds
        self.partial = partial


def fan_out_sample(
    client: GraphEngineClient,
    seeds: Sequence[tuple[int, int]],
    strategy: str,
    fanouts: Sequence[int] | None = None,
    rng_seed: int = 0,
    edge_type_weights: dict[int, float] | None = None,
    ppr: PPRConfig | None = None,
    walk: WalkConfig | None = None,
):
    """Sample for seeds spanning shards; equals the unpartitioned run.

    Multi-hop strategies re-route every frontier fetch to the owning shard
    through a RemoteAdjacency provider and reuse the in-process sampler
    cores, so P in {1, 2, 4, ...} all produce identical output. Seeds whose
    shard is unreachable fail the whole call with a FanOutError naming them.
    """
    results: list = [None] * len(seeds)
    missing: list[tuple[int, int]] = []

    def run_seed(i: int, fn) -> None:
        try:
            results[i] = fn()
        except (RetriesExhausted, RemoteStatusError) as exc:
            if isinstance(exc, RemoteStatusError) and exc.status == wire.Status.BAD_REQUEST:
                results[i] = NeighborSample(
                    (seeds[i][0], seeds[i][1]), (), strategy, error=exc.message
                )
            else:
                missing.append((seeds[i][0], seeds[i][1]))

    if strategy in ("random", "weighted"):
        if not fanouts:
            raise ValueError("fanouts required for multihop strategies")
        uniform = strategy == "random"
        weights = None if uniform else (edge_type_weights or {})
        for i, seed in enumerate(seeds):
            provider = RemoteAdjacency(client, edge_type_weights=weights)
            run_seed(
                i,
                lambda p=provider, s=seed: multihop_sample_core(
                    p, p.resolve, [s], list(fanouts), rng_seed, strategy, uniform
                )[0],
            )
    elif strategy == "ppr-push":
        cfg = ppr or PPRConfig()
        for i, seed in enumerate(seeds):
            provider = RemoteAdjacency(client, weighted=cfg.weighted)
            run_seed(i, lambda p=provider, s=seed: ppr_forward_push(p, s, cfg))
    elif strategy == "ppr-2hop":
        cfg = walk or WalkConfig(rng_seed=rng_seed)
        for i, seed in enumerate(seeds):
            provider = RemoteAdjacency(client, weighted=cfg.weighted)
            run_seed(i, lambda p=provider, s=seed: ppr_two_hop_random_walk(p, s, cfg))
    else:
        raise ValueError(f"unknown fan-out strategy {strategy}")

    if missing:
        raise FanOutError(sorted(missing), results)
    return results
