"""Temporal sequence tables: the prefix-causal attention mask and the
positional encodings of the activity tokens. The temporal head itself runs
on the tape in ``network.LinkPredictionModel``."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def build_prefix_causal_mask(heads: int, seq_len: int, mode: str = "prefix_causal") -> np.ndarray:
    """Boolean (H+N)x(H+N) attention mask, True = may attend.

    prefix_causal: the first H rows attend everywhere; activity row H+i
    attends the H tokens plus activities 0..i. regular_causal: plain
    lower-triangular (inclusive) over the whole sequence.
    """
    if heads < 1:
        raise ValueError("heads must be >= 1")
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    total = heads + seq_len
    if mode == "regular_causal":
        return np.tril(np.ones((total, total), dtype=bool))
    if mode != "prefix_causal":
        raise ValueError(f"unknown mask mode {mode}")
    mask = np.zeros((total, total), dtype=bool)
    mask[:heads, :] = True
    for i in range(seq_len):
        row = heads + i
        mask[row, :heads] = True
        mask[row, heads : heads + i + 1] = True
    return mask


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Standard sinusoid table: PE[p, 2i]=sin(p/10000^(2i/d)), odd cols cos."""
    if dim % 2 != 0:
        raise ValueError("dimension must be even")
    positions = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def timestamp_positions(ages_ms: Sequence[float], dim: int, num_buckets: int = 64) -> np.ndarray:
    """Bucketed log-age encoding: sinusoid rows indexed by floor(log2(1+age))."""
    table = sinusoidal_positions(num_buckets, dim)
    ages = np.maximum(0.0, np.asarray(ages_ms, dtype=np.float64))
    buckets = np.minimum(num_buckets - 1, np.floor(np.log2(1.0 + ages))).astype(np.int64)
    return table[buckets]
