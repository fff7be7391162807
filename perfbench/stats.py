"""Order statistics used by every workload.

A timing is reported as its median plus a tail percentile: the highest
percentile that still has at least ``TAIL_BEYOND`` samples above it. Each
workload fixes its tail percentile once, and the harness keeps measuring
until it has ``min_samples(pct)`` samples. A rate is the median over
windows of whole groups of at least a second of busy time, so a few slow seconds of a shared
machine move it no more than they move the median operation time.
"""

from __future__ import annotations

import math
from statistics import median  # noqa: F401  (re-exported for the workloads)
from typing import Sequence

TAIL_BEYOND = 10
WINDOW_S = 1.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie strictly above the nearest-rank pct value."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def min_samples(pct: float) -> int:
    """Smallest sample count that leaves TAIL_BEYOND samples above pct."""
    n = 1
    while samples_beyond(n, pct) < TAIL_BEYOND:
        n += 1
    return n




def windowed_rate(groups: Sequence[Sequence[float]], units_per_op: float,
                  window_s: float = WINDOW_S) -> float:
    """Median units per second over consecutive windows of whole groups.

    ``groups`` holds the operation times of each group in run order. A window
    closes at the first group boundary at or after ``window_s`` seconds of
    busy time; a last window shorter than that joins the one before it.
    """
    if not groups:
        raise ValueError("rate of no samples")
    windows: list[list[float]] = [[]]
    for group in groups:
        if sum(windows[-1]) >= window_s:
            windows.append([])
        windows[-1].extend(group)
    if len(windows) > 1 and sum(windows[-1]) < window_s:
        short = windows.pop()
        windows[-1] += short
    return median(units_per_op * len(w) / sum(w) for w in windows)
