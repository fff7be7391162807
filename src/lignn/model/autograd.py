"""Reverse-mode tape over numpy arrays.

Each primitive carries a hand-derived vector-Jacobian product; ``backward``
replays the tape in reverse topological order. Arrays are float64 row-major;
embedding batches are (B, d) rows, token batches (B, T, d). Only parameters
(``requires_grad=True`` leaves) accumulate gradients.

Three fused ops record one tape node each for the chains a SAGE layer runs
every step: ``project`` (per-type ``feats @ W + b`` plus id-embedding rows,
in slot order), ``gather_mean`` (row gather, per-segment sum, times
1/count) and ``concat_affine_tanh`` (the SAGE combine and the MLP decoder's
hidden layers). Each keeps the float operations of the unfused chain in the
same order, so outputs and gradients equal the chain's bit for bit.

A VJP never writes into the gradient it receives, and ``backward``
accumulates out of place: one gradient array may be handed to several
parents (``add`` gives both sides the same ``g``).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum grad over axes that were broadcast to reach its shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(
        self,
        data: Array | float,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[Array], tuple[Array | None, ...]] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # operators
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                k = id(parent)
                grads[k] = grads[k] + pg if k in grads else pg


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


def parameter(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


def _track(*ts: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in ts)


def _make(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if _track(*parents):
        return Tensor(data, parents=parents, vjp=vjp)
    return Tensor(data)


# -- arithmetic ----------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return _make(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """np.matmul semantics for ndim >= 2 operands (batch dims broadcast)."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def vjp(g: Array):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), vjp)


# -- elementwise nonlinearities --------------------------------------------------


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated as max(x,0) + log1p(e^-|x|); its VJP is the
    sigmoid, from the same e^-|x|."""
    a = as_tensor(a)
    z = np.exp(-np.abs(a.data))
    y = np.maximum(a.data, 0.0) + np.log1p(z)
    sigmoid = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _make(y, (a,), lambda g: (g * sigmoid,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)
    return _make(y, (a,), lambda g: (g / (2.0 * y),))


# -- reductions ------------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        count = a.shape[axis]

    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _make(out, (a,), vjp)


# -- shape ops -------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a, ax1, ax2) -> Tensor:
    a = as_tensor(a)
    return _make(np.swapaxes(a.data, ax1, ax2), (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g: Array):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(parts), vjp)


def getitem(a, key) -> Tensor:
    """Basic slicing only (slices / ints / tuples thereof)."""
    a = as_tensor(a)
    out = a.data[key]

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _make(out, (a,), vjp)


def gather_rows(table, index: Array) -> Tensor:
    """Row lookup table[index]; the VJP scatter-adds into the table."""
    table = as_tensor(table)
    idx = np.asarray(index, dtype=np.int64)
    out = table.data[idx]

    def vjp(g: Array):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (table,), vjp)


# -- segment ops (variable-size neighborhoods) ------------------------------------


def segment_sum(x, segment_ids: Array, num_segments: int, weights: Array | None = None) -> Tensor:
    """Per-segment (weighted) sum of rows; empty segments give zero rows.

    ``weights`` are constants (sampling scores), never differentiated.
    """
    x = as_tensor(x)
    ids = np.asarray(segment_ids, dtype=np.int64)
    w = None if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    rows = x.data if w is None else x.data * w
    out = np.zeros((num_segments,) + x.shape[1:], dtype=np.float64)
    np.add.at(out, ids, rows)

    def vjp(g: Array):
        gx = g[ids]
        if w is not None:
            gx = gx * w
        return (gx,)

    return _make(out, (x,), vjp)


def segment_softmax(scores, segment_ids: Array, num_segments: int) -> Tensor:
    """Softmax over each segment of a 1-D score vector."""
    s = as_tensor(scores)
    ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, ids, s.data)
    shifted = s.data - seg_max[ids]
    e = np.exp(shifted)
    denom = np.zeros(num_segments, dtype=np.float64)
    np.add.at(denom, ids, e)
    y = e / denom[ids]

    def vjp(g: Array):
        gy = np.zeros(num_segments, dtype=np.float64)
        np.add.at(gy, ids, g * y)
        return (y * (g - gy[ids]),)

    return _make(y, (s,), vjp)


# -- softmax family -----------------------------------------------------------------


def masked_softmax(x, mask: Array) -> Tensor:
    """Softmax over the last axis restricted to mask-true entries.

    Masked entries are excluded exactly: they get weight 0.0 and their values
    never enter the max shift or the normalizer. A row with no allowed entry
    is an error.
    """
    x = as_tensor(x)
    m = np.asarray(mask, dtype=bool)
    m = np.broadcast_to(m, x.shape)
    if not m.any(axis=-1).all():
        raise ValueError("masked_softmax: some row allows no entries")
    neg = np.where(m, x.data, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    shifted = np.where(m, x.data - mx, 0.0)  # masked values never enter exp
    e = np.where(m, np.exp(shifted), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    y = e / denom

    def vjp(g: Array):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), vjp)


def log_softmax(x) -> Tensor:
    """Numerically stable log softmax over the last axis."""
    x = as_tensor(x)
    mx = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - mx
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def vjp(g: Array):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return _make(y, (x,), vjp)


# -- fused SAGE layers ----------------------------------------------------------------


def project(parts: Sequence[tuple], num_rows: int) -> Tensor:
    """Per-type affine projection, placed into slot order, as one node.

    ``parts`` holds one ``(slots, feats, W, b, table, index)`` per node type:
    output rows ``slots`` are ``feats @ W + b`` (``feats`` constant), followed
    by the id-embedding rows ``table[index]`` unless ``table`` is None.
    """
    _, _, w0, _, table0, _ = parts[0]
    out = np.empty((num_rows, w0.shape[1] + (0 if table0 is None else table0.shape[1])))
    parents: list[Tensor] = []
    for slots, feats, w, b, table, index in parts:
        out[slots, : w.shape[1]] = feats @ w.data + b.data
        parents += [w, b]
        if table is not None:
            out[slots, w.shape[1] :] = table.data[index]
            parents.append(table)

    def vjp(g: Array):
        grads = []
        for slots, feats, w, b, table, index in parts:
            gp = g[slots, : w.shape[1]]
            grads += [feats.T @ gp, _unbroadcast(gp, b.shape)]
            if table is not None:
                full = np.zeros_like(table.data)
                np.add.at(full, index, g[slots, w.shape[1] :])
                grads.append(full)
        return tuple(grads)

    return _make(out, tuple(parents), vjp)


def gather_mean(rows, index: Array, segment_ids: Array, num_segments: int) -> Tensor:
    """Mean of ``rows[index]`` per segment, zero rows for empty segments.

    Sums with ``np.add.at`` in edge order, then multiplies by 1/count.
    """
    rows = as_tensor(rows)
    idx = np.asarray(index, dtype=np.int64)
    ids = np.asarray(segment_ids, dtype=np.int64)
    scale = 1.0 / np.maximum(np.bincount(ids, minlength=num_segments), 1).reshape(-1, 1)
    total = np.zeros((num_segments,) + rows.shape[1:], dtype=np.float64)
    np.add.at(total, ids, rows.data[idx])

    def vjp(g: Array):
        full = np.zeros_like(rows.data)
        np.add.at(full, idx, (g * scale)[ids])
        return (full,)

    return _make(total * scale, (rows,), vjp)


def concat_affine_tanh(parts: Sequence[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """``tanh(concat(parts, axis=1) @ w + b)`` as one node."""
    parts = [as_tensor(p) for p in parts]
    x = np.concatenate([p.data for p in parts], axis=1)
    y = np.tanh(x @ w.data + b.data)
    ends = list(accumulate(p.shape[1] for p in parts))

    def vjp(g: Array):
        gz = g * (1.0 - y * y)
        gx = gz @ w.data.T
        grads = [gx[:, lo:hi] for lo, hi in zip([0] + ends, ends)]
        return (*grads, x.T @ gz, _unbroadcast(gz, b.shape))

    return _make(y, (*parts, w, b), vjp)
