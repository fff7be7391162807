"""Retrying graph-engine client and cross-shard fan-out sampling.

The client routes every request to the owning shard and retries retryable
transport failures (refused/reset connections, timeouts) with capped
exponential backoff. Fan-out sampling runs the in-process sampler cores over
one network-backed adjacency provider per call, so results are invariant to
the partition count.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ..graph import MissingNodeError, NeighborView, NodeRef
from ..samplers import (
    NeighborSample,
    PPRConfig,
    WalkConfig,
    multihop_sample_core,
    ppr_forward_push,
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
        return self.call_address(self.pmap.address_of(request.node), request)

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

    def close(self) -> None:
        with self._lock:
            conns = [conn for idle in self._idle.values() for conn in idle]
            self._idle.clear()
            self._generation += 1
        for conn in conns:
            conn.close()


# -- remote adjacency provider ------------------------------------------------------


class RemoteAdjacency:
    """Adjacency provider backed by the sharded engine: the samplers read it
    through the same four methods as a local ``HeteroGraph``
    (``merged_neighbors``, ``ext_order``, ``prefetch``, ``resolve``).

    ``prefetch`` is the only way a view reaches the client: it fetches the
    uncached nodes it is given with one ``NEIGHBORS_BATCH`` per owning shard
    (and chunk of ``MAX_BATCH_NODES``), which answers each node with the
    shard graph's ``merged_neighbors`` view. ``merged_neighbors`` and
    ``resolve`` read the cache through ``neighbors_ext``, which prefetches
    the one node they need on a miss. A node whose batch result failed (the
    shard has no such node) is remembered with the server's message, is
    never requested again, and raises ``MissingNodeError`` on every lookup.

    NodeRef indices are client-side discovery indices (dense, in fetch
    order) and serve as view keys; orderings that matter for cross-partition
    equality use external (node_type, node_id) keys (``ext_order``). Each
    (node_type, node_id) has one index, so NodeRefs sort by that key.
    """

    def __init__(self, client: GraphEngineClient):
        self.client = client
        self._registry: dict[tuple[int, int], int] = {}
        self._exts: list[tuple[int, int]] = []  # discovery index -> external key
        self._cache: dict[tuple[int, int], NeighborView] = {}
        self._failed: dict[tuple[int, int], str] = {}

    def _ref(self, ext: tuple[int, int]) -> NodeRef:
        idx = self._registry.get(ext)
        if idx is None:
            idx = self._registry[ext] = len(self._exts)
            self._exts.append(ext)
        return NodeRef(ext[0], ext[1], idx)

    def _view(self, entries) -> NeighborView:
        refs = [self._ref((e.node.node_type, e.node.node_id)) for e in entries]
        weights = np.array([e.score for e in entries], dtype=np.float64)
        keys = np.array([r.index for r in refs], dtype=np.int64)
        return NeighborView(tuple(refs), weights, keys)

    def resolve(self, node) -> NodeRef:
        ext = (node[0], node[1])
        self.neighbors_ext(ext)  # raises MissingNodeError for unknown nodes
        return self._ref(ext)

    def merged_neighbors(self, node: NodeRef) -> NeighborView:
        return self.neighbors_ext(node.ext())

    def neighbors_ext(self, ext: tuple[int, int]) -> NeighborView:
        if ext not in self._cache:
            self.prefetch([ext])
        if ext in self._failed:
            raise MissingNodeError(self._failed[ext])
        return self._cache[ext]

    def ext_order(self, keys: np.ndarray) -> np.ndarray:
        exts = [self._exts[k] for k in keys.tolist()]
        return np.array(sorted(range(len(exts)), key=exts.__getitem__), dtype=np.int64)

    def prefetch(self, nodes: Iterable[NodeRef | tuple[int, int]]) -> None:
        """Fetch the views of the distinct ``nodes`` not yet fetched, one
        round trip per owning shard and chunk of ``MAX_BATCH_NODES``."""
        pmap, cache, failed = self.client.pmap, self._cache, self._failed
        by_owner: dict[int, list[tuple[int, int]]] = {}
        for ext in dict.fromkeys((node[0], node[1]) for node in nodes):
            if ext not in cache and ext not in failed:
                by_owner.setdefault(pmap.owner(ext), []).append(ext)
        for owner, exts in sorted(by_owner.items()):
            for lo in range(0, len(exts), MAX_BATCH_NODES):
                chunk = exts[lo : lo + MAX_BATCH_NODES]
                request = wire.NeighborsBatchRequest(tuple(wire.WireNode(*ext) for ext in chunk))
                response = self.client.call_address(pmap.addresses[owner], request)
                for ext, result in zip(chunk, response.results):
                    if result.status == wire.Status.OK:
                        cache[ext] = self._view(result.entries)
                    else:
                        failed[ext] = result.error


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
    ppr: PPRConfig | None = None,
    walk: WalkConfig | None = None,
):
    """Sample for seeds spanning shards; equals the unpartitioned run.

    The in-process sampler cores run over one RemoteAdjacency for the whole
    call, so a view is fetched once however many seeds read it, and P in
    {1, 2, 4, ...} all produce identical output. ``rng_seed`` seeds the
    random and weighted draws; the weighted strategy draws by summed edge
    weight, as ``sample_weighted_multihop`` does in process. The PPR
    strategies draw nothing.
    Seeds run one at a time, so a failure is attributed to the seeds it
    fails: an unknown seed or a ``BAD_REQUEST`` gives that seed an error
    sample, and seeds whose shard is unreachable fail the whole call with a
    FanOutError naming them (its ``partial`` holds the other results).
    """
    provider = RemoteAdjacency(client)
    if strategy in ("random", "weighted"):
        if not fanouts:
            raise ValueError("fanouts required for multihop strategies")

        def sample(seed):
            return multihop_sample_core(provider, [seed], list(fanouts), rng_seed, strategy)[0]

    elif strategy == "ppr-push":
        sample = partial(ppr_forward_push, provider, config=ppr or PPRConfig())
    elif strategy == "ppr-2hop":
        sample = partial(ppr_two_hop_random_walk, provider, config=walk or WalkConfig())
    else:
        raise ValueError(f"unknown fan-out strategy {strategy}")

    results: list = []
    missing: list[tuple[int, int]] = []
    for seed in seeds:
        try:
            results.append(sample(seed))
        except (RetriesExhausted, RemoteStatusError) as exc:
            if isinstance(exc, RemoteStatusError) and exc.status == wire.Status.BAD_REQUEST:
                results.append(
                    NeighborSample((seed[0], seed[1]), (), strategy, error=exc.message)
                )
            else:
                results.append(None)
                missing.append((seed[0], seed[1]))
    if missing:
        raise FanOutError(sorted(missing), results)
    return results
