"""Model configuration, parameter store, and the binary checkpoint format."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

CHECKPOINT_MAGIC = b"LGNN"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TemporalConfig:
    """Sequence-model settings: H encoder tokens followed by N activities."""

    heads: int = 4                    # H
    token_dim: int = 16               # d
    seq_len: int = 100                # N
    future_len: int = 10              # N2; history split N1 = N - N2
    mask_mode: str = "prefix_causal"  # or regular_causal
    positional_mode: str = "sinusoidal"  # none | sinusoidal | timestamp
    dst_neighbor_count: int = 0       # extra tokens from the item's sampled neighbors
    long_term_weight: float = 1.0

    @property
    def history_len(self) -> int:  # N1
        return self.seq_len - self.future_len

    def validate(self) -> None:
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        # N = 0 (no activity sequence) is allowed as a degenerate case
        if self.future_len < 0 or (self.seq_len > 0 and self.history_len < 1):
            raise ValueError("need N1 >= 1 and N2 >= 0 with N1 + N2 = N")
        if self.mask_mode not in ("prefix_causal", "regular_causal"):
            raise ValueError(f"unknown mask mode {self.mask_mode}")
        if self.positional_mode not in ("none", "sinusoidal", "timestamp"):
            raise ValueError(f"unknown positional mode {self.positional_mode}")


@dataclass(frozen=True)
class DecoderKind:
    kind: str  # cosine | mlp | in_batch_negative
    mlp_hidden: tuple[int, ...] = (32,)
    temperature: float = 1.0

    def validate(self) -> None:
        if self.kind not in ("cosine", "mlp", "in_batch_negative"):
            raise ValueError(f"unknown decoder {self.kind}")
        if self.kind == "mlp" and any(h < 1 for h in self.mlp_hidden):
            raise ValueError("mlp hidden sizes must be positive")


@dataclass(frozen=True)
class ModelConfig:
    feature_dims: dict[int, int] = field(default_factory=dict)     # per node type
    id_capacity: dict[int, int] = field(default_factory=dict)      # nodes per type
    encoder: str = "single"            # single | dual
    aggregator: str = "mean"           # mean | attention | self_attention
    decoder: DecoderKind = DecoderKind("cosine")
    hops: int = 1
    out_dim: int = 32
    proj_dim: int | None = None        # defaults to out_dim (token_dim if temporal)
    attention_dim: int = 16
    id_embeddings: bool = False
    id_dim: int = 32
    temporal: TemporalConfig | None = None
    init_seed: int = 0
    init_scale: float = 0.5

    def validate(self) -> None:
        if self.encoder not in ("single", "dual"):
            raise ValueError(f"unknown encoder mode {self.encoder}")
        if self.aggregator not in ("mean", "attention", "self_attention"):
            raise ValueError(f"unknown aggregator {self.aggregator}")
        self.decoder.validate()
        if self.out_dim < 1:
            raise ValueError("out_dim must be positive")
        if self.temporal is not None:
            self.temporal.validate()
            if self.out_dim != self.temporal.heads * self.temporal.token_dim:
                raise ValueError("temporal mode needs out_dim == heads * token_dim")

    @property
    def projection_dim(self) -> int:
        if self.proj_dim is not None:
            return self.proj_dim
        if self.temporal is not None:
            return self.temporal.token_dim
        return self.out_dim

    @property
    def sides(self) -> tuple[str, ...]:
        return ("enc",) if self.encoder == "single" else ("src", "dst")

    def side_for(self, position: str) -> str:
        """Store prefix for the source or destination tower."""
        if self.encoder == "single":
            return "enc"
        return "src" if position == "src" else "dst"

    def layer_dims(self) -> list[int]:
        """Embedding dim entering each layer: index 0 is the projected dim."""
        d0 = self.projection_dim + (self.id_dim if self.id_embeddings else 0)
        return [d0] + [self.out_dim] * self.hops

    @property
    def embedding_dim(self) -> int:
        return self.layer_dims()[-1]

    def with_graph(self, graph) -> "ModelConfig":
        dims = {t: graph.feature_dim(t) for t in graph.node_types}
        caps = {t: graph.num_nodes(t) for t in graph.node_types}
        return replace(self, feature_dims=dims, id_capacity=caps)

    def to_json(self) -> str:
        raw = asdict(self)
        raw["feature_dims"] = {str(k): v for k, v in self.feature_dims.items()}
        raw["id_capacity"] = {str(k): v for k, v in self.id_capacity.items()}
        raw["decoder"] = asdict(self.decoder)
        raw["temporal"] = asdict(self.temporal) if self.temporal else None
        return json.dumps(raw, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        raw = json.loads(text)
        raw["feature_dims"] = {int(k): v for k, v in raw["feature_dims"].items()}
        raw["id_capacity"] = {int(k): v for k, v in raw["id_capacity"].items()}
        dec = raw["decoder"]
        dec["mlp_hidden"] = tuple(dec["mlp_hidden"])
        raw["decoder"] = DecoderKind(**dec)
        raw["temporal"] = TemporalConfig(**raw["temporal"]) if raw["temporal"] else None
        return cls(**raw)


class ParamStore:
    """Named float64 arrays with deterministic initialization."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self._arrays:
            raise KeyError(f"duplicate parameter {name}")
        self._arrays[name] = np.asarray(array, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self._arrays[name] = np.asarray(value, dtype=np.float64)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for n, a in self._arrays.items():
            out.add(n, a.copy())
        return out

    def sgd_step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, g in grads.items():
            self._arrays[name] -= lr * g

    # -- checkpoint io ------------------------------------------------------

    def save(self, path: str) -> None:
        """Versioned binary: magic, u32 version, u32 count, then per tensor
        (u32 name length, name, u32 rank, u64 dims, f64 data), little-endian.
        """
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(self._arrays)))
            for name, arr in self._arrays.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str) -> "ParamStore":
        store = cls()
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r}")
            version = struct.unpack("<I", fh.read(4))[0]
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            count = struct.unpack("<I", fh.read(4))[0]
            for _ in range(count):
                name_len = struct.unpack("<I", fh.read(4))[0]
                name = fh.read(name_len).decode("utf-8")
                rank = struct.unpack("<I", fh.read(4))[0]
                dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank)) if rank else ()
                size = int(np.prod(dims)) if dims else 1
                data = np.frombuffer(fh.read(8 * size), dtype="<f8").reshape(dims)
                store.add(name, data.astype(np.float64))
        return store


def init_params(config: ModelConfig) -> ParamStore:
    """Deterministic parameter initialization for every configured tower."""
    config.validate()
    rng = np.random.default_rng(config.init_seed)
    store = ParamStore()
    dims = config.layer_dims()
    scale = config.init_scale

    def normal(shape, fan_in):
        return rng.normal(scale=scale / np.sqrt(max(1, fan_in)), size=shape)

    for side in config.sides:
        for t in sorted(config.feature_dims):
            d_in = config.feature_dims[t]
            store.add(f"{side}/proj/{t}/W", normal((d_in, config.projection_dim), d_in))
            # small random biases keep zero-feature embeddings off exactly zero
            store.add(f"{side}/proj/{t}/b", rng.normal(scale=0.01, size=(1, config.projection_dim)))
            if config.id_embeddings:
                n = config.id_capacity.get(t, 0)
                store.add(f"{side}/id/{t}", rng.normal(scale=0.1, size=(n, config.id_dim)))
        for k in range(1, config.hops + 1):
            d_prev, d_out = dims[k - 1], dims[k]
            store.add(f"{side}/combine/{k}/W", normal((2 * d_prev, d_out), 2 * d_prev))
            store.add(f"{side}/combine/{k}/b", rng.normal(scale=0.01, size=(1, d_out)))
            if config.aggregator in ("attention", "self_attention"):
                store.add(f"{side}/att/{k}/Wq", normal((d_prev, config.attention_dim), d_prev))
                store.add(f"{side}/att/{k}/Wk", normal((d_prev, config.attention_dim), d_prev))
    if config.temporal is not None:
        d = config.temporal.token_dim
        side = config.side_for("src")
        for name in ("Wq", "Wk", "Wv"):
            store.add(f"{side}/tformer/{name}", normal((d, d), d))
    if config.decoder.kind == "mlp":
        d_in = 2 * pair_embedding_dim(config)
        for i, h in enumerate(config.decoder.mlp_hidden):
            store.add(f"dec/mlp/{i}/W", normal((d_in, h), d_in))
            store.add(f"dec/mlp/{i}/b", np.zeros((1, h)))
            d_in = h
        store.add("dec/mlp/out/W", normal((d_in, 1), d_in))
        store.add("dec/mlp/out/b", np.zeros((1, 1)))
    return store


def pair_embedding_dim(config: ModelConfig) -> int:
    """Dimension of the embeddings the decoder compares."""
    if config.temporal is not None:
        return config.temporal.token_dim
    return config.embedding_dim
