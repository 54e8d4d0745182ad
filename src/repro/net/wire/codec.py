"""Self-describing binary codec: values, payload kinds, and frames.

Every datagram the socket backend puts on the wire is one *frame*:

====== ======== ==========================================================
offset size     field
====== ======== ==========================================================
0      1        wire version (:data:`WIRE_VERSION`)
1      1        frame kind — :data:`FRAME_DATA` or :data:`FRAME_CONTROL`
2      n        body, up to the end of the datagram
====== ======== ==========================================================

The header carries no magic and no body length: UDP already delimits
the datagram, and the body encoding is prefix-free, so a truncated
frame overruns and a padded one leaves trailing bytes — both
:class:`CodecError`.  Every frame up to v23 began with the magic
``b"RW"``, so an older peer's frame reads as version 0x52 and is
refused at its first byte.

A *data* body is ``varint count`` followed by ``count`` envelope records:
src, dst, then the payload value, untagged.  The src is a varint length
plus its UTF-8 bytes.  The dst is front-coded against the src's bytes:
one varint, ``suffix length × (src length + 1) + shared``, then the
dst's bytes past the ``shared`` bytes it has in common with the src
(``svc-w-240`` → ``svc-w-241`` is one varint and ``1``).  The decoder
takes ``divmod`` by ``src length + 1``, so no varint can name a prefix
longer than the src.  A dst that shares nothing costs the plain length
prefix v23 wrote whenever ``dst length × (src length + 1) < 128`` (any
two addresses of up to 10 bytes), and past that at most one varint byte
more for a src under 128 bytes, which the two header bytes v24 dropped
pay for in a one-record frame.  Nothing else travels: an envelope is
its src, dst and payload (a trace context stays on the sending node).
A *control* body is a single encoded value (the deploy tracker's
register/peer-list/shutdown messages).

Each data record spells a string once.  Its *string table* starts with
the record's src and dst and takes, in writing order, every non-empty
string literal of the payload (dict keys included) while it holds fewer
than :data:`STRING_TABLE_SIZE` entries; a string already in the table is
written as a back-reference — the tag and a varint index of at most two
bytes — never longer than its literal.  The table lives and dies with
the record: nothing carries over to the next record or frame, so a lost
or reordered datagram still decodes alone.  A control frame's value has
a table of its own that starts empty.

Values are tag-prefixed: ``None``/bools/ints (zigzag varint)/floats
(IEEE-754 f64)/str (or a back-reference)/bytes/tuple/list/dict nest
freely, and any class
registered through :func:`register_kind` encodes as its wire id, a field
count, and that many dataclass fields in declaration order.  A kind stops
at its last non-default field: trailing fields equal to their declared
default (same value *and* same class, so ``False`` never stands in for a
default ``0``) are not written, and the decoder fills them from the
defaults.  A field with no default, or with a ``default_factory``, is
always written.  The codec is self-describing at the value level (a
reader never needs the schema to skip a value) and versioned at the
frame level; evolving a kind's field list bumps :data:`WIRE_VERSION`.

Robustness contract: :func:`decode_frame` raises :class:`CodecError` —
and nothing else — on any malformed input (a version it does not speak,
truncation, stray trailing bytes, unknown tags/kinds, invalid UTF-8, a
back-reference past the table).  The socket fabric turns that into a
counted drop; a byte-flipped datagram must never take a node down.
"""

from __future__ import annotations

import struct
from dataclasses import MISSING, fields as dataclass_fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
# v13: the name service's kinds (60-63) and the parallel executor's
# ScatterTask (74) / PartialResult (75) are retired with the code that
# sent them — a v12 peer could still send one, so it is refused at the
# header rather than as an unknown kind.
# v14: a frame carries only what its receiver uses — the header loses
# its u32 body length (8 -> 4 bytes), an envelope record is src, dst
# (untagged) and payload, with no sender clock readings and no size
# model, and a kind stops at its last non-default field.
# v15: the level-tagged placement fields leave the hierarchy kinds —
# ReportLeafStatus level/path, Split/MergeDirective and Split/MergeCmd
# levels and paths, AddLeaf ``under`` — as both reorganisation modes
# share one canonical tree, whose rebuild renumbers every branch.
# v16: fields no receiver reads leave the wire — Flush ``proposed``,
# CCResultNote ``client``, TreeAck ``delivered_leaves`` — and a NewView's
# state snapshot goes to the joiners alone, on a copy without the old
# view's ``unstable`` and ``orders``.
# v17: GetLeafAssignment (52), the manager's round-robin leaf pick, is
# retired — every client places itself by walking the branch tree — and
# GetHierarchyInfo loses ``subtree``, which no request ever set.
# v18: a treecast stage is named — RelaySpec grows ``branch``, TreeAck
# and TreeCommit carry the child ``stage`` they close or address — and
# LeafTarget loses ``size``, which no receiver read.
# v19: FlushAbort (22) is new — an initiator that abandons a view change
# for want of a quorum tells the members that reported to it.
# v20: a request names itself once — CCRequest, CCRead, CCReply and the
# RPC kinds carry an integer id with no address prefix, CCRequest's
# ``client`` moves last and is written only on a copy passed on (empty
# means the sender), CCResultNote names the client again, store ops are
# positional tuples, and a GroupData's ordering is an int (0, 1 or 2).
# v21: the GetHierarchyInfo reply is the leaf directory — each leaf's
# contacts by id, the fanout, the depth and the reorg epoch — and no
# longer carries the branch tree, which a router packs from the ids, nor
# per-leaf sizes and loads or the leader's totals.
# v22: CCRequest grows ``lag``, declared before ``client`` — the request
# id minus the oldest id the client still waits on, so a set member
# drops the results of its client's finished writes.  It is 0, and so
# not written, on a CCRead and on a write with nothing older in flight.
# v23: a data record spells each string once — a per-record string table
# seeded with src and dst, and a back-reference tag (11) for a repeat —
# and a leaf group is named by its leaf id, ``<manager address>/<n>``,
# not ``<service>::leaf-<manager address>-<n>``, so SplitDirective and
# SplitCmd lose ``new_group``, which repeated ``new_leaf_id``.
# v24: an address costs only what differs — a record's dst is
# front-coded against its src — and the header loses the magic
# ``b"RW"`` (4 -> 2 bytes), so a v23 frame reads as version 0x52.
WIRE_VERSION = 24

FRAME_DATA = 1
FRAME_CONTROL = 2

_HEADER = struct.Struct(">BB")
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
_T_REF = 11

# A back-reference's index fits two varint bytes, so it is never longer
# than the literal it replaces (a non-empty literal takes at least three).
STRING_TABLE_SIZE = 1 << 14


class CodecError(ValueError):
    """Malformed or unencodable wire data.  The only exception the codec
    raises for bad input — callers count it as a drop."""


class FrameTooLarge(CodecError):
    """An encoded record or frame exceeds :data:`MAX_FRAME_BYTES`."""


class _Kind:
    """One registered payload class: wire id + field-by-field codec.

    ``defaults[i]`` is field i's declared default; ``required`` counts
    the leading fields always written — up to and including the last one
    with no plain default (none, or a ``default_factory``)."""

    __slots__ = (
        "kind_id", "cls", "field_names", "defaults", "required",
        "encode_fields", "build",
    )

    def __init__(
        self,
        kind_id: int,
        cls: type,
        field_names: Tuple[str, ...],
        defaults: Tuple[Any, ...],
        required: int,
        encode_fields: Optional[Callable[[Any], Sequence[Any]]],
        build: Optional[Callable[[Sequence[Any]], Any]],
    ) -> None:
        self.kind_id = kind_id
        self.cls = cls
        self.field_names = field_names
        self.defaults = defaults
        self.required = required
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

    Dataclasses need no adapter: their fields encode in declaration order,
    less the trailing ones left at their plain default, and decode back
    through the constructor.  Non-dataclasses (e.g.
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
        declared = dataclass_fields(cls)
        names = tuple(f.name for f in declared)
        defaults = tuple(f.default for f in declared)
        required = max(
            (i + 1 for i, default in enumerate(defaults) if default is MISSING),
            default=0,
        )
    else:
        names, defaults, required = (), (), 0
    _kind = _Kind(kind_id, cls, names, defaults, required, encode_fields, build)
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


def _write_utf8(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_varint(out, len(raw))
    out += raw


def _write_value(out: bytearray, value: Any, strings: Dict[str, int]) -> None:
    """Append ``value``; ``strings`` is its string table (string ->
    index)."""
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
        index = strings.get(value)
        if index is not None:
            out.append(_T_REF)
            _write_varint(out, index)
            return
        if value and len(strings) < STRING_TABLE_SIZE:
            strings[value] = len(strings)
        out.append(_T_STR)
        _write_utf8(out, value)
    elif cls is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif cls is tuple:
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, strings)
    elif cls is list:
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, strings)
    elif cls is dict:
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _write_value(out, key, strings)
            _write_value(out, item, strings)
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
            count = len(parts)
        else:
            parts = [getattr(value, name) for name in kind.field_names]
            count = len(parts)
            required = kind.required
            defaults = kind.defaults
            while count > required:
                part = parts[count - 1]
                default = defaults[count - 1]
                if part.__class__ is not default.__class__ or part != default:
                    break
                count -= 1
        _write_varint(out, count)
        for index in range(count):
            _write_value(out, parts[index], strings)


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
            # against pathological continuation-bit streams (the datagram's
            # length already bounds the byte count).
            if shift > 700:
                raise CodecError("varint too long")

    def length(self) -> int:
        n = self.varint()
        if self.pos + n > self.end:
            raise CodecError("length overruns frame body")
        return n


def _read_utf8(reader: _Reader) -> str:
    try:
        return reader.take(reader.length()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in string: {exc}") from None


def _read_value(reader: _Reader, strings: List[str]) -> Any:
    """The next value; ``strings`` is its string table."""
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
        text = _read_utf8(reader)
        if text and len(strings) < STRING_TABLE_SIZE:
            strings.append(text)
        return text
    if tag == _T_REF:
        index = reader.varint()
        if index >= len(strings):
            raise CodecError(
                f"string back-reference {index} past a table of {len(strings)}"
            )
        return strings[index]
    if tag == _T_BYTES:
        return reader.take(reader.length())
    if tag == _T_TUPLE:
        count = reader.varint()
        return tuple(_read_value(reader, strings) for _ in range(count))
    if tag == _T_LIST:
        count = reader.varint()
        return [_read_value(reader, strings) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.varint()
        result = {}
        for _ in range(count):
            key = _read_value(reader, strings)
            result[key] = _read_value(reader, strings)
        return result
    if tag == _T_KIND:
        kind_id = reader.varint()
        kind = _KIND_BY_ID.get(kind_id)
        if kind is None:
            raise CodecError(f"unknown wire kind id {kind_id}")
        count = reader.varint()
        parts = [_read_value(reader, strings) for _ in range(count)]
        try:
            if kind.build is not None:
                return kind.build(parts)
            if not kind.required <= count <= len(kind.field_names):
                raise CodecError(
                    f"{kind.cls.__name__}: got {count} fields, expected "
                    f"{kind.required} to {len(kind.field_names)}"
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
    src, dst = envelope.src, envelope.dst
    if src.__class__ is not str or dst.__class__ is not str:
        raise CodecError("envelope src/dst must be addresses")
    raw_src = src.encode("utf-8")
    raw_dst = dst.encode("utf-8")
    _write_varint(out, len(raw_src))
    out += raw_src
    shared = 0
    common = min(len(raw_src), len(raw_dst))
    while shared < common and raw_src[shared] == raw_dst[shared]:
        shared += 1
    _write_varint(out, (len(raw_dst) - shared) * (len(raw_src) + 1) + shared)
    out += raw_dst[shared:]
    strings = {src: 0} if src else {}
    if dst and dst not in strings:
        strings[dst] = len(strings)
    _write_value(out, envelope.payload, strings)


def _read_envelope(reader: _Reader):
    """An envelope as its record left it."""
    from repro.net.message import Envelope

    raw_src = reader.take(reader.length())
    suffix, shared = divmod(reader.varint(), len(raw_src) + 1)
    raw_dst = raw_src[:shared] + reader.take(suffix)
    try:
        src = raw_src.decode("utf-8")
        dst = raw_dst.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in address: {exc}") from None
    strings = [src] if src else []
    if dst and dst != src:
        strings.append(dst)
    payload = _read_value(reader, strings)
    return Envelope(src, dst, payload)


# -- frames ------------------------------------------------------------------


def _frame(kind: int, body: bytes) -> bytes:
    return _HEADER.pack(WIRE_VERSION, kind) + body


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
    _write_value(body, payload, {})
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
        version, frame_kind = _HEADER.unpack_from(data)
        if version != WIRE_VERSION:
            raise CodecError(f"unsupported wire version {version}")
        reader = _Reader(bytes(data), HEADER_BYTES, len(data))
        if frame_kind == FRAME_DATA:
            count = reader.varint()
            envelopes = [_read_envelope(reader) for _ in range(count)]
            if reader.pos != reader.end:
                raise CodecError("trailing bytes after last record")
            return FRAME_DATA, envelopes
        if frame_kind == FRAME_CONTROL:
            value = _read_value(reader, [])
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
