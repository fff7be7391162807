from .partition import PartitionMap, shard_edge_lines
from .client import (
    ClientError,
    FanOutError,
    GraphEngineClient,
    RemoteAdjacency,
    RemoteStatusError,
    RetriesExhausted,
    RetryPolicy,
    fan_out_sample,
)
from .nearline import (
    EmbeddingStore,
    InteractionEvent,
    NearlineRefresher,
    RefreshReport,
    nearline_refresh,
    parse_events,
)
from .server import GraphEngineServer, serve

__all__ = [
    "ClientError",
    "EmbeddingStore",
    "FanOutError",
    "GraphEngineClient",
    "GraphEngineServer",
    "InteractionEvent",
    "NearlineRefresher",
    "PartitionMap",
    "RefreshReport",
    "RemoteAdjacency",
    "RemoteStatusError",
    "RetriesExhausted",
    "RetryPolicy",
    "fan_out_sample",
    "nearline_refresh",
    "parse_events",
    "serve",
    "shard_edge_lines",
]
