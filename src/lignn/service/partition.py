"""Hash partitioning of the node space across engine instances.

Assignment is ``mix64(node_type, node_id) mod P``; clients and servers share
the mixing function bit-exactly (see ``lignn.graph.mix64``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..graph import _chunks, _parsed, mix64, mix64_array


@dataclass(frozen=True)
class PartitionMap:
    addresses: tuple[str, ...]  # "host:port" per instance

    @property
    def count(self) -> int:
        return len(self.addresses)

    def owner(self, node) -> int:
        """Instance index owning (node_type, node_id)."""
        return mix64(node[0], node[1]) % self.count

    def address_of(self, node) -> str:
        return self.addresses[self.owner(node)]

    @classmethod
    def single(cls, address: str) -> "PartitionMap":
        return cls((address,))


def shard_edge_lines(lines, pmap: PartitionMap, shard: int):
    """Edge rows whose source this shard owns (client routes by source), in
    order. A row whose first two tokens are not integers (blank and comment
    rows among them) is dropped. Owners come from ``mix64_array`` per chunk,
    or from the scalar ``mix64`` for a chunk with a source outside int64."""
    for chunk in _chunks(lines):
        bad: set[int] = set()
        heads = [(raw + "\t").split("\t", 2) for raw in chunk]
        src = [_parsed(int, [h[k] for h in heads], bad) for k in (0, 1)]
        try:
            owner = mix64_array(*(np.array(col, dtype=np.int64) for col in src))
        except OverflowError:
            owner = np.array(list(map(mix64, *src)), dtype=np.uint64)
        mine = owner % pmap.count == shard
        mine[list(bad)] = False
        yield from compress(chunk, mine.tolist())
