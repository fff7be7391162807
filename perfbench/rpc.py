"""RPC accounting through the client's public hooks.

``GraphEngineClient(connector=stats.connector(), sleep=stats.sleep)`` counts
every round trip per opcode (calls, bytes both ways, latency) and every retry
with its backoff, without touching the client's code. Each round trip is
also a ``client.rpc`` span, and the recorder's ``link`` points at it while it
is in flight, so the server's span becomes its child.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from lignn.service import client as client_mod

from .spans import Recorder

FRAME_HEADER = 4  # u32 payload length; the request opcode is the next byte


class RpcStats:
    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.latency_s: dict[int, list[float]] = defaultdict(list)
        self.bytes: dict[int, int] = defaultdict(int)
        self.rpc_spans: list[int] = []
        self.retries = 0
        self.backoff_s = 0.0

    @property
    def rpcs(self) -> int:
        return sum(len(v) for v in self.latency_s.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def connector(self) -> Callable[[str], "CountingTransport"]:
        tcp = client_mod.tcp_connector()
        return lambda address: CountingTransport(tcp(address), self)

    def sleep(self, seconds: float) -> None:
        self.retries += 1
        self.backoff_s += seconds
        time.sleep(seconds)


class CountingTransport:
    def __init__(self, inner, stats: RpcStats):
        self._inner = inner
        self._stats = stats

    def request(self, frame: bytes) -> bytes:
        stats, rec = self._stats, self._stats.recorder
        idx = rec.begin("client.rpc")
        rec.link = idx
        stats.rpc_spans.append(idx)
        t0 = time.perf_counter()
        try:
            payload = self._inner.request(frame)
        finally:
            elapsed = time.perf_counter() - t0
            rec.link = -1
            rec.end(idx)
        opcode = frame[FRAME_HEADER]
        stats.latency_s[opcode].append(elapsed)
        stats.bytes[opcode] += len(frame) + FRAME_HEADER + len(payload)
        return payload

    def close(self) -> None:
        self._inner.close()
