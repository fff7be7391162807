"""Binary wire protocol for the graph-engine service.

Everything is little-endian. A frame is ``u32 payload_length`` followed by
the payload; a request payload starts with ``u8 opcode``, a response payload
with ``u8 opcode, u8 status``. Node addresses travel as (u16 node_type,
u64 node_id); internal dense indices never cross the wire.

The rest of the payload is laid out by the ``layout`` table of its message
class: (field name, field codec) pairs in wire order. A field codec is one
fixed-size struct (``_Struct``: a scalar such as ``_U32``, or ``_NODE``), a
counted sequence of one fixed-size struct (``_Seq``), the per-seed results
of a push batch (``_Results``), or the packed views of a neighbour batch
(``_Views``). One encoder (``_pack``) and one decoder (``_unpack``) walk
these tables; no message class encodes itself.

``PPR_PUSH_BATCH`` is answered by a ``SampleBatchResponse``: one
``SampleResponse`` per seed, each behind a u8 status and a u32 body length.
A ``SampleResponse`` is never a reply of its own.

``NEIGHBORS_BATCH`` is answered by a ``ViewsBatchResponse``, whose OK body
is columns rather than one record per neighbour, so that a client decodes
it with ``np.frombuffer`` and builds no object per neighbour:

- u32 node count n;
- n u8 statuses;
- n u32 view lengths, 0 for a failed node;
- the OK views' neighbours end to end, as three columns: u16 node types,
  then u64 node ids, then f64 summed weights;
- one error message per failed node, in node order.

That is 18 bytes per neighbour and 5 per node.

A response whose status is not OK has no layout body. Its body is the error
message: ``u32 byte_length`` followed by that many bytes of UTF-8. The rule
holds for each per-seed result of a push batch too (``_reply_layout``).
Decoding raises only ``WireError`` on malformed bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

COUNT_ALL = 0xFFFFFFFF
TS_MAX = (1 << 63) - 1
# A reader buffers a whole payload before decoding it: bound what a peer can make it hold.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class Opcode(IntEnum):
    # SAMPLE_NEIGHBORS and PPR_2HOP are retired: no message type has them, so a
    # request naming one is an unknown opcode. Their numbers are never reused;
    # the names stay because perfbench/layers.py reads SAMPLE_NEIGHBORS.
    SAMPLE_NEIGHBORS = 0x01
    GET_FEATURES = 0x02
    PPR_2HOP = 0x03
    PPR_PUSH_BATCH = 0x04
    TEMPORAL_LAST_N = 0x05
    HEALTH = 0x06
    NEIGHBORS_BATCH = 0x07


class Status(IntEnum):
    OK = 0
    NOT_OWNED = 1
    BAD_REQUEST = 2
    INTERNAL = 3


class WireError(ValueError):
    pass


class WireNode(NamedTuple):
    node_type: int
    node_id: int


class WireEntry(NamedTuple):
    node: WireNode
    score: float
    hop: int


class WireEvent(NamedTuple):
    node: WireNode
    timestamp: int


# -- field codecs ------------------------------------------------------------------

_LEN = struct.Struct("<I")


class _Struct:
    """A fixed-size field. ``load`` builds it from the unpacked values and
    ``dump`` turns it back into them; without ``dump`` it is the one value."""

    def __init__(self, code: str, load: Callable = itemgetter(0), dump: Callable | None = None):
        self.struct = struct.Struct("<" + code)
        self.load, self.dump = load, dump

    def pack(self, value, out: list) -> None:
        dump = self.dump
        out.append(self.struct.pack(value) if dump is None else self.struct.pack(*dump(value)))

    def unpack(self, data, pos: int):
        return self.load(self.struct.unpack_from(data, pos)), pos + self.struct.size


class _Seq:
    """A ``count`` struct code, then that many ``item``s read with ``iter_unpack``."""

    def __init__(self, count: str, item: _Struct):
        self.count, self.item = struct.Struct("<" + count), item

    def pack(self, values, out: list) -> None:
        out.append(self.count.pack(len(values)))
        pack, dump = self.item.struct.pack, self.item.dump
        out.extend(map(pack, values) if dump is None else (pack(*dump(v)) for v in values))

    def unpack(self, data, pos: int):
        (n,) = self.count.unpack_from(data, pos)
        start = pos + self.count.size
        end = start + n * self.item.struct.size
        if end > len(data):
            raise WireError("truncated payload")
        return tuple(map(self.item.load, self.item.struct.iter_unpack(data[start:end]))), end


class _Text:
    """u32 byte length, then UTF-8."""

    def pack(self, text: str, out: list) -> None:
        raw = text.encode("utf-8")
        out += (_LEN.pack(len(raw)), raw)

    def unpack(self, data, pos: int):
        (n,) = _LEN.unpack_from(data, pos)
        start, end = pos + _LEN.size, pos + _LEN.size + n
        if end > len(data):
            raise WireError("truncated payload")
        try:
            return str(data[start:end], "utf-8"), end
        except UnicodeDecodeError:
            raise WireError("error message is not UTF-8") from None


class _Results:
    """u32 count, then per result: u8 status, u32 body length and the body of
    a ``SampleResponse`` with that status."""

    head = struct.Struct("<BI")

    def pack(self, results, out: list) -> None:
        out.append(_LEN.pack(len(results)))
        for res in results:
            body: list = []
            _pack(res, _reply_layout(SampleResponse, res.status), body)
            body_bytes = b"".join(body)
            out += (self.head.pack(res.status, len(body_bytes)), body_bytes)

    def unpack(self, data, pos: int):
        (n,) = _LEN.unpack_from(data, pos)
        pos += _LEN.size
        results = []
        for _ in range(n):
            st, size = self.head.unpack_from(data, pos)
            start, pos = pos + self.head.size, pos + self.head.size + size
            if pos > len(data):
                raise WireError("truncated payload")
            sub = data[:pos]  # the body must end exactly at its length
            results.append(_unpack_reply(SampleResponse, st, sub, start))
        return tuple(results), pos


class WireViews(NamedTuple):
    """The columns of a ``NEIGHBORS_BATCH`` OK reply, read-only arrays. Node
    i's view is its ``lengths[i]`` neighbours after those of the nodes before
    it; a failed node has length 0, and its message is the next of
    ``errors``."""

    statuses: np.ndarray  # u8, one per node
    lengths: np.ndarray  # u32, one per node
    node_types: np.ndarray  # u16, one per neighbour
    node_ids: np.ndarray  # u64, one per neighbour
    weights: np.ndarray  # f64, one per neighbour
    errors: tuple[str, ...] = ()


_NODE_COLUMNS = (np.dtype("u1"), np.dtype("<u4"))
_VIEW_COLUMNS = (np.dtype("<u2"), np.dtype("<u8"), np.dtype("<f8"))
# plain ints: comparing an array with an IntEnum member is several times slower
_OK, _MAX_STATUS = int(Status.OK), int(max(Status))


def _columns(data, pos: int, count: int, dtypes) -> tuple[list[np.ndarray], int]:
    """``count`` values of each of ``dtypes``, one column after another."""
    if pos + count * sum(d.itemsize for d in dtypes) > len(data):
        raise WireError("truncated payload")
    out = []
    for dtype in dtypes:
        out.append(np.frombuffer(data, dtype, count, pos))
        pos += count * dtype.itemsize
    return out, pos


class _Views:
    """u32 node count, the two per-node columns, the three per-neighbour
    columns, then one ``_Text`` per failed node (``WireViews``)."""

    def pack(self, views: WireViews, out: list) -> None:
        out.append(_LEN.pack(len(views.statuses)))
        columns = zip(views[:5], _NODE_COLUMNS + _VIEW_COLUMNS)
        out.extend(np.asarray(col, dtype).tobytes() for col, dtype in columns)
        for error in views.errors:
            _TEXT.pack(error, out)

    def unpack(self, data, pos: int):
        (n,) = _LEN.unpack_from(data, pos)
        (statuses, lengths), pos = _columns(data, pos + _LEN.size, n, _NODE_COLUMNS)
        if n and statuses.max() > _MAX_STATUS:
            raise WireError(f"unknown status {statuses.max()}")
        failed = statuses != _OK
        if lengths[failed].any():
            raise WireError("a failed node has a view")
        columns, pos = _columns(data, pos, int(lengths.sum(dtype=np.uint64)), _VIEW_COLUMNS)
        errors = []
        for _ in range(np.count_nonzero(failed)):
            error, pos = _TEXT.unpack(data, pos)
            errors.append(error)
        return WireViews(statuses, lengths, *columns, tuple(errors)), pos


_U16, _U32, _I64, _F64, _BOOL = map(_Struct, "HIqd?")
_NODE = _Struct("HQ", WireNode._make, tuple)
_COUNT = _Struct("HQ", tuple, tuple)
_ENTRY = _Struct("HQdB", lambda v: WireEntry(WireNode(v[0], v[1]), v[2], v[3]),
                 lambda e: (e.node[0], e.node[1], e.score, e.hop))
_EVENT = _Struct("HQq", lambda v: WireEvent(WireNode(v[0], v[1]), v[2]),
                 lambda e: (e.node[0], e.node[1], e.timestamp))
_TEXT = _Text()
_ERROR_LAYOUT = (("error", _TEXT),)
_NO_VIEWS = WireViews(*(np.empty(0, d) for d in _NODE_COLUMNS + _VIEW_COLUMNS))


# -- requests --------------------------------------------------------------------


@dataclass(frozen=True)
class GetFeaturesRequest:
    node: WireNode

    opcode = Opcode.GET_FEATURES
    layout = (("node", _NODE),)


@dataclass(frozen=True)
class PPRPushBatchRequest:
    seeds: tuple[WireNode, ...]
    alpha: float = 0.15
    r_max: float = 1e-4
    top_k: int = 200

    opcode = Opcode.PPR_PUSH_BATCH
    layout = (("seeds", _Seq("I", _NODE)), ("alpha", _F64), ("r_max", _F64), ("top_k", _U32))


@dataclass(frozen=True)
class NeighborsBatchRequest:
    nodes: tuple[WireNode, ...]  # each answered with its merged view

    opcode = Opcode.NEIGHBORS_BATCH
    layout = (("nodes", _Seq("I", _NODE)),)


@dataclass(frozen=True)
class TemporalLastNRequest:
    node: WireNode
    edge_type: int
    before_ts: int = TS_MAX
    n: int = COUNT_ALL

    opcode = Opcode.TEMPORAL_LAST_N
    layout = (("node", _NODE), ("edge_type", _U16), ("before_ts", _I64), ("n", _U32))


@dataclass(frozen=True)
class HealthRequest:
    opcode = Opcode.HEALTH
    layout = ()


# -- responses --------------------------------------------------------------------


@dataclass(frozen=True)
class SampleResponse:
    """One per-seed result of a ``SampleBatchResponse``."""

    status: Status = Status.OK
    entries: tuple[WireEntry, ...] = ()
    truncated: bool = False
    error: str = ""

    layout = (("truncated", _BOOL), ("entries", _Seq("I", _ENTRY)))


@dataclass(frozen=True)
class SampleBatchResponse:
    status: Status = Status.OK
    results: tuple[SampleResponse, ...] = ()
    error: str = ""

    opcode = Opcode.PPR_PUSH_BATCH
    layout = (("results", _Results()),)


@dataclass(frozen=True, eq=False)
class ViewsBatchResponse:
    """Per requested node, its merged view or its error, as columns. It holds
    arrays, so it has no ``==``: compare its columns."""

    status: Status = Status.OK
    views: WireViews = _NO_VIEWS
    error: str = ""

    opcode = Opcode.NEIGHBORS_BATCH
    layout = (("views", _Views()),)


@dataclass(frozen=True)
class FeaturesResponse:
    status: Status = Status.OK
    values: tuple[float, ...] = ()
    error: str = ""

    opcode = Opcode.GET_FEATURES
    layout = (("values", _Seq("I", _F64)),)


@dataclass(frozen=True)
class TemporalResponse:
    status: Status = Status.OK
    events: tuple[WireEvent, ...] = ()
    error: str = ""

    opcode = Opcode.TEMPORAL_LAST_N
    layout = (("events", _Seq("I", _EVENT)),)


@dataclass(frozen=True)
class HealthResponse:
    status: Status = Status.OK
    node_counts: tuple[tuple[int, int], ...] = ()  # (node_type, count)
    edge_counts: tuple[tuple[int, int], ...] = ()  # (edge_type, count)
    error: str = ""

    opcode = Opcode.HEALTH
    layout = (("node_counts", _Seq("H", _COUNT)), ("edge_counts", _Seq("H", _COUNT)))


_REQUEST_TYPES = {
    Opcode.GET_FEATURES: GetFeaturesRequest,
    Opcode.PPR_PUSH_BATCH: PPRPushBatchRequest,
    Opcode.TEMPORAL_LAST_N: TemporalLastNRequest,
    Opcode.HEALTH: HealthRequest,
    Opcode.NEIGHBORS_BATCH: NeighborsBatchRequest,
}
_RESPONSE_TYPES = {
    Opcode.GET_FEATURES: FeaturesResponse,
    Opcode.PPR_PUSH_BATCH: SampleBatchResponse,
    Opcode.TEMPORAL_LAST_N: TemporalResponse,
    Opcode.HEALTH: HealthResponse,
    Opcode.NEIGHBORS_BATCH: ViewsBatchResponse,
}


def error_response(opcode: Opcode, status: Status, message: str):
    """The reply to an ``opcode`` request that failed with a non-OK ``status``."""
    return _RESPONSE_TYPES[opcode](status=status, error=message)


# -- the codec ---------------------------------------------------------------------

_REQUEST_HEAD = struct.Struct("<B")
_RESPONSE_HEAD = struct.Struct("<BB")
_STATUSES = {int(s): s for s in Status}


def _reply_layout(cls, status: Status):
    return cls.layout if status == Status.OK else _ERROR_LAYOUT


def _pack(msg, layout, out: list) -> None:
    for name, codec in layout:
        codec.pack(getattr(msg, name), out)


def _unpack(layout, data, pos: int, fields: dict) -> dict:
    for name, codec in layout:
        fields[name], pos = codec.unpack(data, pos)
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes")
    return fields


def _unpack_reply(cls, st: int, data, pos: int):
    status = _STATUSES.get(st)
    if status is None:
        raise WireError(f"unknown status {st}")
    return cls(**_unpack(_reply_layout(cls, status), data, pos, {"status": status}))


def _frame(head: bytes, msg, layout) -> bytes:
    out = [b"", head]
    _pack(msg, layout, out)
    out[0] = _LEN.pack(sum(map(len, out)))
    return b"".join(out)


def encode_request(request) -> bytes:
    return _frame(_REQUEST_HEAD.pack(request.opcode), request, request.layout)


def encode_response(response) -> bytes:
    head = _RESPONSE_HEAD.pack(response.opcode, response.status)
    return _frame(head, response, _reply_layout(type(response), response.status))


def decode_request(payload: bytes):
    return _decode(payload, _REQUEST_HEAD, _REQUEST_TYPES,
                   lambda cls, data, pos: cls(**_unpack(cls.layout, data, pos, {})))


def decode_response(payload: bytes):
    return _decode(payload, _RESPONSE_HEAD, _RESPONSE_TYPES, _unpack_reply)


def _decode(payload: bytes, head: struct.Struct, types: dict, build: Callable):
    """Read the head, then ``build(cls, *rest_of_head, data, pos)``."""
    data = memoryview(payload)
    try:
        op, *rest = head.unpack_from(data)
        if op not in types:
            raise WireError(f"unknown opcode {op:#x}")
        return build(types[op], *rest, data, head.size)
    except struct.error:
        raise WireError("truncated payload") from None


# -- framing -----------------------------------------------------------------------


def read_frame(sock) -> bytes:
    """One frame's payload. A length over ``MAX_FRAME_BYTES`` raises
    ``WireError`` with the payload unread, so the stream is lost."""
    header = _read_exact(sock, 4)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes, over {MAX_FRAME_BYTES}")
    return _read_exact(sock, length)


def _read_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionResetError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
