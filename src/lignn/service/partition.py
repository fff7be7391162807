"""Hash partitioning of the node space across engine instances.

Assignment is ``mix64(node_type, node_id) mod P``; clients and servers share
the mixing function bit-exactly (see ``lignn.graph.mix64``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph import mix64


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
    """Edge rows whose source this shard owns (client routes by source)."""
    for raw in lines:
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        parts = raw.split("\t")
        try:
            node = (int(parts[0]), int(parts[1]))
        except (ValueError, IndexError):
            continue
        if pmap.owner(node) == shard:
            yield raw
