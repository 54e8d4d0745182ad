"""Self-describing binary codec: values, payload kinds, and frames.

Every datagram the socket backend puts on the wire is one *frame*:

====== ======== ==========================================================
offset size     field
====== ======== ==========================================================
0      2        magic ``b"RW"``
2      1        wire version (:data:`WIRE_VERSION`)
3      1        frame kind — :data:`FRAME_DATA` or :data:`FRAME_CONTROL`
4      4        body length, big-endian u32 (must equal the remaining bytes)
8      n        body
====== ======== ==========================================================

A *data* body is ``varint count`` followed by ``count`` envelope records
(src, dst, send_time, deliver_time, size_bytes, payload).
A *control* body is a single encoded value (the deploy tracker's
register/peer-list/shutdown messages).

Values are tag-prefixed: ``None``/bools/ints (zigzag varint)/floats
(IEEE-754 f64)/str/bytes/tuple/list/dict nest freely, and any class
registered through :func:`register_kind` encodes as its wire id plus its
dataclass fields in declaration order.  The codec is self-describing at
the value level (a reader never needs the schema to skip a value) and
versioned at the frame level; evolving a kind's field list bumps
:data:`WIRE_VERSION`.

Robustness contract: :func:`decode_frame` raises :class:`CodecError` —
and nothing else — on any malformed input (bad magic, truncation, stray
trailing bytes, unknown tags/kinds, invalid UTF-8).  The socket fabric
turns that into a counted drop; a byte-flipped datagram must never take
a node down.
"""

from __future__ import annotations

import struct
from dataclasses import fields as dataclass_fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

MAGIC = b"RW"
# v2: recursive-hierarchy refactor extended the field lists of the
# hierarchy kinds (level-tagged directives, load-rate reports, AddLeaf
# attach points) and added ResolvePlacement (id 90).
# v3: GroupData lost its ``gossip`` field (watermarks travel only in
# StabilityGossip).
# v4: ReportLeafStatus and UpdateLeaf lost their request-rate field
# (nothing ever fed it).
# v5: the coordinator-cohort set travels with the requests it bounds
# (CCRequest.view_seq, CCReply.view_seq/cohorts; the GetMembers reply is
# (view seq, cohort set, other members)), the GetHierarchyInfo reply
# carries the branch tree, and ResolvePlacement (id 90) is retired.
# v6: GroupData carries the sequencer's stamp (``global_seq``, None off
# the sequencer) and StabilityGossip the abcast delivery frontier
# (``ordered``); its ``delivered`` holds only the entries that moved.
# v7: heartbeats are one-way — HeartbeatAck (id 33) is retired, and
# Subscribe (34) / Unsubscribe (35) say who is pushed to.
# v8: CCHedge (77) — a client asks the next rank of a cohort set to
# answer a read its coordinator has left unanswered.
# v9: CCHedge (77) is retired — a read goes to the coordinator alone as a
# CCRead (78), and its hedge is the same CCRead, sent to the next rank.
# v10: SegmentAck (2) grew ``high`` — a receiver with a gap reports where
# the gap ends, and the sender resends everything below it.
# v11: Probe (36) — a cohort holding a write the client hedged asks the
# coordinator for one Heartbeat now.
# v12: id 11, the sequencer's order for another member's abcast, is
# retired — that abcast goes to the sequencer alone, which relays a copy
# carrying ``GroupData.global_seq``.
WIRE_VERSION = 12

FRAME_DATA = 1
FRAME_CONTROL = 2

_HEADER = struct.Struct(">2sBBI")
HEADER_BYTES = _HEADER.size

# Safe single-datagram budget for UDP over loopback/LAN without relying
# on IP fragmentation limits being generous; anything bigger is refused
# at encode time and surfaces as a drop, not a crash.
MAX_FRAME_BYTES = 60000

_F64 = struct.Struct(">d")

# Value tags.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_TUPLE = 7
_T_LIST = 8
_T_DICT = 9
_T_KIND = 10


class CodecError(ValueError):
    """Malformed or unencodable wire data.  The only exception the codec
    raises for bad input — callers count it as a drop."""


class FrameTooLarge(CodecError):
    """An encoded record or frame exceeds :data:`MAX_FRAME_BYTES`."""


class _Kind:
    """One registered payload class: wire id + field-by-field codec."""

    __slots__ = ("kind_id", "cls", "field_names", "encode_fields", "build")

    def __init__(
        self,
        kind_id: int,
        cls: type,
        field_names: Tuple[str, ...],
        encode_fields: Optional[Callable[[Any], Sequence[Any]]],
        build: Optional[Callable[[Sequence[Any]], Any]],
    ) -> None:
        self.kind_id = kind_id
        self.cls = cls
        self.field_names = field_names
        self.encode_fields = encode_fields
        self.build = build


_KIND_BY_ID: Dict[int, _Kind] = {}
_KIND_BY_CLASS: Dict[type, _Kind] = {}


def register_kind(
    kind_id: int,
    cls: type,
    *,
    encode_fields: Optional[Callable[[Any], Sequence[Any]]] = None,
    build: Optional[Callable[[Sequence[Any]], Any]] = None,
) -> type:
    """Bind ``cls`` to stable wire id ``kind_id``.

    Dataclasses need no adapter: their fields encode in declaration order
    and decode back through the constructor.  Non-dataclasses (e.g.
    ``VectorClock``) supply ``encode_fields(obj) -> sequence`` and
    ``build(fields) -> obj``.  Ids are append-only across PRs — reusing
    or renumbering one is a wire-format break and requires a
    :data:`WIRE_VERSION` bump.
    """
    if kind_id in _KIND_BY_ID:
        raise ValueError(f"wire kind id {kind_id} already registered "
                         f"({_KIND_BY_ID[kind_id].cls.__name__})")
    if cls in _KIND_BY_CLASS:
        raise ValueError(f"{cls.__name__} already registered")
    if encode_fields is None or build is None:
        if not is_dataclass(cls):
            raise TypeError(
                f"{cls.__name__} is not a dataclass; pass encode_fields/build"
            )
        names = tuple(f.name for f in dataclass_fields(cls))
    else:
        names = ()
    _kind = _Kind(kind_id, cls, names, encode_fields, build)
    _KIND_BY_ID[kind_id] = _kind
    _KIND_BY_CLASS[cls] = _kind
    return cls


def registered_kinds() -> Dict[int, type]:
    """Snapshot of ``{wire id: class}`` — test/introspection surface."""
    return {kind_id: kind.cls for kind_id, kind in sorted(_KIND_BY_ID.items())}


# -- value encoding ----------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    # Unsigned LEB128.
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
        return
    cls = value.__class__
    if cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif cls is int:
        out.append(_T_INT)
        # Zigzag so small negatives stay small (arbitrary precision).
        _write_varint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)
    elif cls is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif cls is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out += raw
    elif cls is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif cls is tuple:
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif cls is list:
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif cls is dict:
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _write_value(out, key)
            _write_value(out, item)
    else:
        kind = _KIND_BY_CLASS.get(cls)
        if kind is None:
            raise CodecError(
                f"cannot encode {cls.__name__}: not a wire-registered kind"
            )
        out.append(_T_KIND)
        _write_varint(out, kind.kind_id)
        if kind.encode_fields is not None:
            parts = kind.encode_fields(value)
        else:
            parts = [getattr(value, name) for name in kind.field_names]
        _write_varint(out, len(parts))
        for part in parts:
            _write_value(out, part)


class _Reader:
    """Bounds-checked cursor over a frame body; every overrun is a
    :class:`CodecError`, never an ``IndexError``."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int, end: int) -> None:
        self.data = data
        self.pos = start
        self.end = end

    def take(self, n: int) -> bytes:
        pos = self.pos
        if n < 0 or pos + n > self.end:
            raise CodecError("truncated frame body")
        self.pos = pos + n
        return self.data[pos:pos + n]

    def byte(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise CodecError("truncated frame body")
        self.pos = pos + 1
        return self.data[pos]

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            # Python ints are arbitrary precision; bound the width only
            # against pathological continuation-bit streams (frame length
            # already bounds the byte count).
            if shift > 700:
                raise CodecError("varint too long")

    def length(self) -> int:
        n = self.varint()
        if self.pos + n > self.end:
            raise CodecError("length overruns frame body")
        return n


def _read_value(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        raw = reader.varint()
        return (raw >> 1) ^ -(raw & 1)
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        raw = reader.take(reader.length())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from None
    if tag == _T_BYTES:
        return reader.take(reader.length())
    if tag == _T_TUPLE:
        count = reader.varint()
        return tuple(_read_value(reader) for _ in range(count))
    if tag == _T_LIST:
        count = reader.varint()
        return [_read_value(reader) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.varint()
        result = {}
        for _ in range(count):
            key = _read_value(reader)
            result[key] = _read_value(reader)
        return result
    if tag == _T_KIND:
        kind_id = reader.varint()
        kind = _KIND_BY_ID.get(kind_id)
        if kind is None:
            raise CodecError(f"unknown wire kind id {kind_id}")
        count = reader.varint()
        parts = [_read_value(reader) for _ in range(count)]
        try:
            if kind.build is not None:
                return kind.build(parts)
            if count != len(kind.field_names):
                raise CodecError(
                    f"{kind.cls.__name__}: got {count} fields, "
                    f"expected {len(kind.field_names)}"
                )
            return kind.cls(**dict(zip(kind.field_names, parts)))
        except CodecError:
            raise
        except Exception as exc:
            # A corrupted field can violate a dataclass __post_init__
            # invariant; that is bad input, not a codec bug.
            raise CodecError(f"cannot rebuild {kind.cls.__name__}: {exc}") from None
    raise CodecError(f"unknown value tag {tag}")


# -- envelope records --------------------------------------------------------


def _write_envelope(out: bytearray, envelope: Any) -> None:
    _write_value(out, envelope.src)
    _write_value(out, envelope.dst)
    out += _F64.pack(envelope.send_time)
    out += _F64.pack(envelope.deliver_time)
    _write_varint(out, envelope.size_bytes)
    _write_value(out, envelope.payload)


def _read_envelope(reader: _Reader):
    from repro.net.message import Envelope

    src = _read_value(reader)
    dst = _read_value(reader)
    if not isinstance(src, str) or not isinstance(dst, str):
        raise CodecError("envelope src/dst must be addresses")
    send_time = _F64.unpack(reader.take(8))[0]
    deliver_time = _F64.unpack(reader.take(8))[0]
    size_bytes = reader.varint()
    payload = _read_value(reader)
    return Envelope(src, dst, payload, send_time, deliver_time, size_bytes)


# -- frames ------------------------------------------------------------------


def _frame(kind: int, body: bytes) -> bytes:
    return _HEADER.pack(MAGIC, WIRE_VERSION, kind, len(body)) + body


def encode_data_frames(
    envelopes: Sequence[Any],
    max_bytes: int = MAX_FRAME_BYTES,
) -> Tuple[List[bytes], List[Tuple[Any, str]]]:
    """Encode envelopes into as few frames as fit.

    Records pack greedily: k envelopes usually become one k-record
    frame, splitting only past ``max_bytes``.  Returns
    ``(frames, rejects)`` where each reject is ``(envelope, reason)`` —
    an unencodable payload or a single record bigger than a frame never
    poisons its batchmates.
    """
    budget = max_bytes - HEADER_BYTES - 5  # header + worst-case count varint
    frames: List[bytes] = []
    rejects: List[Tuple[Any, str]] = []
    pending: List[bytes] = []
    pending_size = 0

    def flush() -> None:
        nonlocal pending_size
        if not pending:
            return
        body = bytearray()
        _write_varint(body, len(pending))
        for record in pending:
            body += record
        frames.append(_frame(FRAME_DATA, bytes(body)))
        pending.clear()
        pending_size = 0

    for envelope in envelopes:
        record = bytearray()
        try:
            _write_envelope(record, envelope)
        except CodecError as exc:
            rejects.append((envelope, str(exc)))
            continue
        if len(record) > budget:
            rejects.append(
                (envelope, f"record of {len(record)} bytes exceeds "
                           f"{max_bytes}-byte frame budget")
            )
            continue
        if pending_size + len(record) > budget:
            flush()
        pending.append(bytes(record))
        pending_size += len(record)
    flush()
    return frames, rejects


def encode_control_frame(payload: Any) -> bytes:
    """One control-plane value as a single frame; raises on oversize."""
    body = bytearray()
    _write_value(body, payload)
    frame = _frame(FRAME_CONTROL, bytes(body))
    if len(frame) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"control frame of {len(frame)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return frame


def decode_frame(data: bytes) -> Tuple[int, Any]:
    """Decode one frame: ``(FRAME_DATA, [Envelope, ...])`` or
    ``(FRAME_CONTROL, value)``.  Raises :class:`CodecError` on anything
    malformed; no other exception escapes."""
    try:
        if len(data) < HEADER_BYTES:
            raise CodecError(f"frame shorter than header ({len(data)} bytes)")
        magic, version, frame_kind, body_len = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise CodecError(f"bad magic {magic!r}")
        if version != WIRE_VERSION:
            raise CodecError(f"unsupported wire version {version}")
        if body_len != len(data) - HEADER_BYTES:
            raise CodecError(
                f"length mismatch: header says {body_len}, "
                f"body has {len(data) - HEADER_BYTES}"
            )
        reader = _Reader(bytes(data), HEADER_BYTES, len(data))
        if frame_kind == FRAME_DATA:
            count = reader.varint()
            envelopes = [_read_envelope(reader) for _ in range(count)]
            if reader.pos != reader.end:
                raise CodecError("trailing bytes after last record")
            return FRAME_DATA, envelopes
        if frame_kind == FRAME_CONTROL:
            value = _read_value(reader)
            if reader.pos != reader.end:
                raise CodecError("trailing bytes after control value")
            return FRAME_CONTROL, value
        raise CodecError(f"unknown frame kind {frame_kind}")
    except CodecError:
        raise
    except Exception as exc:
        # struct.error, OverflowError, RecursionError from hostile
        # nesting, ... — all the same verdict: drop the datagram.
        raise CodecError(f"malformed frame: {exc}") from None
