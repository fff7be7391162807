from .params import (
    DecoderKind,
    ModelConfig,
    ParamStore,
    TemporalConfig,
    init_params,
    pair_embedding_dim,
)
from .encoder import (
    SageEncoder,
    build_encode_batch,
    hops_from_samples,
    sage_encode,
)
from .temporal import (
    build_prefix_causal_mask,
    sinusoidal_positions,
    timestamp_positions,
)
from .network import LinkPredictionModel, PairBatch

__all__ = [
    "DecoderKind",
    "LinkPredictionModel",
    "ModelConfig",
    "PairBatch",
    "ParamStore",
    "SageEncoder",
    "TemporalConfig",
    "build_encode_batch",
    "build_prefix_causal_mask",
    "hops_from_samples",
    "init_params",
    "pair_embedding_dim",
    "sage_encode",
    "sinusoidal_positions",
    "timestamp_positions",
]
