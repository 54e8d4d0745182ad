"""Property tests for the wire codec (repro.net.wire).

Three obligations, per docs/deployment.md:

* **Round-trip** — every registered payload kind survives
  encode -> decode across seeded fuzzing (values generated from each
  dataclass's field type hints) and with every suffix of its defaulted
  fields left at the default, as do envelope batches through the
  data-frame packer.
* **Rejection** — truncated, corrupted, or alien bytes raise
  :class:`CodecError` and nothing else; no exception escapes the socket
  fabric's receive path (a byte-flipped datagram is a counted drop).
* **Census** — every payload class registered with a typed wire
  receiver anywhere in ``src/repro`` (``.on(Kind, ...)``) has a wire id,
  so a deployment can carry every message the sim can.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.deploy.messages  # noqa: F401  -- registers control kinds 64-68
from repro.clocks.vector import VectorClock
from repro.core.treecast import LeafTarget, RelaySpec
from repro.membership.events import ORDERINGS, TOTAL, GroupData
from repro.membership.view import GroupView
from repro.net.message import Envelope
from repro.net.wire import (
    CodecError,
    FRAME_CONTROL,
    FRAME_DATA,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_frame,
    encode_control_frame,
    encode_data_frames,
    registered_kinds,
)
from repro.net.wire import codec
from repro.net.wire.codec import HEADER_BYTES, STRING_TABLE_SIZE
from repro.net.wire.registry import ensure_registered
from repro.sim.rand import SimRandom

ensure_registered()

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# -- fuzz value generation ----------------------------------------------------


def _primitive(rng: SimRandom, depth: int = 0):
    """A random encodable value; containers nest up to two levels."""
    roll = rng.randint(0, 9 if depth < 2 else 6)
    if roll == 0:
        return None
    if roll == 1:
        return rng.chance(0.5)
    if roll == 2:
        # Cover zero, small negatives, and ints past one varint chunk.
        return rng.choice(
            [0, -1, 1, 127, -128, 2**40, -(2**40), rng.randint(-10**6, 10**6)]
        )
    if roll == 3:
        return rng.uniform(-1e9, 1e9)
    if roll == 4:
        return "".join(
            rng.choice("abcXYZ-/Ω💡") for _ in range(rng.randint(0, 12))
        )
    if roll == 5:
        return bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 16)))
    if roll == 6:
        return rng.uniform(0.0, 1.0)
    if roll == 7:
        return tuple(
            _primitive(rng, depth + 1) for _ in range(rng.randint(0, 3))
        )
    if roll == 8:
        return [_primitive(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{i}": _primitive(rng, depth + 1) for i in range(rng.randint(0, 3))
    }


def _address(rng: SimRandom) -> str:
    return f"{rng.choice('svc grp node'.split())}-{rng.randint(0, 99)}"


def _group_view(rng: SimRandom) -> GroupView:
    # __post_init__ wants unique members and seq >= 1.
    count = rng.randint(1, 4)
    return GroupView(
        group=f"g{rng.randint(0, 9)}",
        seq=rng.randint(1, 50),
        members=tuple(f"m-{i}-{rng.randint(0, 9)}" for i in range(count)),
    )


def _relay_spec(rng: SimRandom, depth: int = 0) -> RelaySpec:
    children = (
        tuple(_relay_spec(rng, depth + 1) for _ in range(rng.randint(0, 2)))
        if depth < 2
        else ()
    )
    return RelaySpec(
        branch=f"svc/b{rng.randint(0, 9)}",
        relay=_address(rng),
        leaf_targets=tuple(
            LeafTarget(f"leaf{i}", _address(rng))
            for i in range(rng.randint(0, 2))
        ),
        children=children,
    )


def _group_data(rng: SimRandom) -> GroupData:
    return GroupData(
        group=f"g{rng.randint(0, 9)}",
        view_seq=rng.randint(1, 20),
        sender=_address(rng),
        sender_seq=rng.randint(1, 100),
        ordering=rng.choice(ORDERINGS),
        payload=_primitive(rng),
        stamp=None if rng.chance(0.5) else _vector_clock(rng),
        global_seq=None if rng.chance(0.5) else rng.randint(1, 2**20),
    )


def _vector_clock(rng: SimRandom) -> VectorClock:
    return VectorClock(
        {_address(rng): rng.randint(0, 50) for _ in range(rng.randint(0, 4))}
    )


_SPECIAL = {
    "GroupView": _group_view,
    "VectorClock": _vector_clock,
    "RelaySpec": _relay_spec,
    "GroupData": _group_data,
    "LeafTarget": lambda rng: LeafTarget(f"leaf{rng.randint(0, 9)}", _address(rng)),
    "MessageId": lambda rng: (_address(rng), rng.randint(1, 99)),
}


def _value_for(rng: SimRandom, type_str: str):
    """Generate a field value from a dataclass type-hint string."""
    type_str = type_str.strip().strip("'\"")
    fn = _SPECIAL.get(type_str)
    if fn is not None:
        return fn(rng)
    if type_str.startswith("Optional["):
        inner = type_str[len("Optional["):-1]
        return None if rng.chance(0.3) else _value_for(rng, inner)
    if type_str.startswith("Tuple["):
        inner = type_str[len("Tuple["):-1]
        if inner.endswith(", ..."):
            item = inner[: -len(", ...")]
            return tuple(
                _value_for(rng, item) for _ in range(rng.randint(0, 3))
            )
        return tuple(_value_for(rng, part) for part in _split_args(inner))
    if type_str.startswith("List["):
        inner = type_str[len("List["):-1]
        return [_value_for(rng, inner) for _ in range(rng.randint(0, 3))]
    if type_str.startswith("Dict["):
        key_t, value_t = _split_args(type_str[len("Dict["):-1])
        return {
            _value_for(rng, key_t): _value_for(rng, value_t)
            for _ in range(rng.randint(0, 3))
        }
    if type_str in ("str", "Address"):
        return _address(rng)
    if type_str == "bytes":
        return bytes(
            rng.randint(0, 255) for _ in range(rng.randint(0, 64))
        )
    if type_str == "int":
        return rng.randint(-(2**40), 2**40)
    if type_str == "float":
        return rng.uniform(-1e6, 1e6)
    if type_str == "bool":
        return rng.chance(0.5)
    if type_str == "Any":
        return _primitive(rng)
    raise AssertionError(
        f"no fuzz generator for field type {type_str!r} — "
        "extend _SPECIAL in tests/test_wire_codec.py"
    )


def _split_args(inner: str):
    """Split 'A, B' at top-level commas (brackets nest)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i].strip())
            start = i + 1
    parts.append(inner[start:].strip())
    return parts


def _instance(rng: SimRandom, cls: type):
    fn = _SPECIAL.get(cls.__name__)
    if fn is not None:
        return fn(rng)
    assert dataclasses.is_dataclass(cls), cls
    kwargs = {
        f.name: _value_for(rng, f.type) for f in dataclasses.fields(cls)
    }
    return cls(**kwargs)


def _round_trip(payload):
    frame = encode_control_frame(payload)
    frame_kind, decoded = decode_frame(frame)
    assert frame_kind == FRAME_CONTROL
    return decoded


# -- round-trip properties ----------------------------------------------------


@pytest.mark.parametrize(
    "kind_id", sorted(registered_kinds()), ids=lambda k: f"kind{k}"
)
def test_every_registered_kind_round_trips(kind_id):
    cls = registered_kinds()[kind_id]
    rng = SimRandom(1000 + kind_id)
    for _ in range(25):
        original = _instance(rng, cls)
        decoded = _round_trip(original)
        assert decoded.__class__ is cls
        assert decoded == original, f"{cls.__name__} diverged on round-trip"


def _has_plain_default(field) -> bool:
    return field.default is not dataclasses.MISSING


def _kinds_with_defaults():
    return [
        (kind_id, cls) for kind_id, cls in sorted(registered_kinds().items())
        if dataclasses.is_dataclass(cls)
        and any(_has_plain_default(f) for f in dataclasses.fields(cls))
    ]


def _equals_of_another_class(default):
    """``default`` as each other numeric class that still compares equal:
    ``0`` -> ``0.0`` and ``False``, ``-1.0`` -> ``-1``, ``True`` -> ``1``..."""
    return [
        other(default) for other in (int, float, bool)
        if other is not default.__class__ and other(default) == default
    ]


def _numeric_defaults():
    return [
        (kind_id, cls, index)
        for kind_id, cls in _kinds_with_defaults()
        for index, f in enumerate(dataclasses.fields(cls))
        if _has_plain_default(f) and f.default.__class__ in (int, float, bool)
    ]


def _written_field_count(frame: bytes) -> int:
    # Control body: tag KIND, kind id, field count (ids and counts < 128).
    assert frame[HEADER_BYTES] == 10
    return frame[HEADER_BYTES + 2]


@pytest.mark.parametrize(
    "kind_id,cls", _kinds_with_defaults(),
    ids=[cls.__name__ for _, cls in _kinds_with_defaults()],
)
def test_every_suffix_of_default_fields_round_trips(kind_id, cls):
    """Wire v14: a kind stops at its last non-default field.  Set the
    first k fields, leave the rest at their defaults, for every k the
    dataclass allows: the value round-trips, nothing past field k is
    written, and field k itself is written whenever it differs from its
    default.  A ``default_factory`` field is always written."""
    fields = dataclasses.fields(cls)
    required = max(
        (i + 1 for i, f in enumerate(fields) if not _has_plain_default(f)),
        default=0,
    )
    rng = SimRandom(2000 + kind_id)
    for set_count in range(required, len(fields) + 1):
        for _ in range(5):
            kwargs = {
                f.name: _value_for(rng, f.type) for f in fields[:set_count]
            }
            original = cls(**kwargs)
            frame = encode_control_frame(original)
            decoded = decode_frame(frame)[1]
            assert decoded.__class__ is cls and decoded == original
            written = _written_field_count(frame)
            assert required <= written <= set_count
            if set_count > required:
                last = fields[set_count - 1]
                value = kwargs[last.name]
                if value.__class__ is not last.default.__class__ or value != last.default:
                    assert written == set_count


@pytest.mark.parametrize(
    "kind_id,cls,index", _numeric_defaults(),
    ids=[f"{cls.__name__}.{dataclasses.fields(cls)[index].name}"
         for _, cls, index in _numeric_defaults()],
)
def test_a_default_of_another_class_is_written(kind_id, cls, index):
    """``False`` equals a default ``0`` and ``0`` a default ``0.0``, but the
    decoder would hand back the default's class: such a value is written,
    and comes back as the class it was sent as."""
    fields = dataclasses.fields(cls)
    field = fields[index]
    rng = SimRandom(3000 + kind_id)
    values = _equals_of_another_class(field.default)
    assert values
    for value in values:
        kwargs = {f.name: _value_for(rng, f.type) for f in fields[:index]}
        kwargs[field.name] = value
        frame = encode_control_frame(cls(**kwargs))
        assert _written_field_count(frame) == index + 1
        decoded = getattr(decode_frame(frame)[1], field.name)
        assert decoded == value and decoded.__class__ is value.__class__


def test_primitive_values_round_trip():
    rng = SimRandom(42)
    for _ in range(300):
        original = _primitive(rng)
        assert _round_trip(original) == original


def test_tuple_and_list_stay_distinct():
    assert _round_trip((1, 2)) == (1, 2)
    assert _round_trip([1, 2]) == [1, 2]
    assert isinstance(_round_trip((1,)), tuple)
    assert isinstance(_round_trip([1]), list)


def test_extreme_ints_round_trip():
    for value in (0, -1, 1, 2**400, -(2**400), 2**63 - 1, -(2**63)):
        assert _round_trip(value) == value


def test_hierarchy_payloads_round_trip():
    """The hierarchy kinds survive the wire with non-default values: the
    load-rate samples and the directives.  Wire v15:
    the directives, split/merge commands, reports and ``AddLeaf`` carry
    no level or branch path — the canonical tree renumbers its branches
    on every rebuild, so a carried path would go stale."""
    from repro.core.hierarchy import MergeCmd, SplitCmd
    from repro.core.leader import ReportLeafStatus
    from repro.core.policy import MergeDirective, SplitDirective
    from repro.core.views import AddLeaf, UpdateLeaf

    payloads = [
        SplitDirective(
            service="svc", leaf_id="svc-ldr-0/1", new_leaf_id="svc-ldr-0/2",
        ),
        MergeDirective(
            service="svc", leaf_id="svc-ldr-0/1", target_group="svc-ldr-0/3",
            target_contacts=("svc-w-0", "svc-w-1"),
        ),
        SplitCmd(new_leaf_id="svc-ldr-0/2", movers=("svc-w-2",)),
        MergeCmd(target_group="svc-ldr-0/3", target_contacts=("svc-w-0",)),
        ReportLeafStatus(
            service="svc", leaf_id="svc-ldr-0/1", size=9,
            contacts=("svc-w-0",), delivery_rate=41.5,
        ),
        AddLeaf(leaf_id="svc-ldr-0/2", size=4, contacts=("svc-w-2",)),
        UpdateLeaf(
            leaf_id="svc-ldr-0/1", size=9, contacts=("svc-w-0",),
            delivery_rate=33.0,
        ),
    ]
    for original in payloads:
        decoded = _round_trip(original)
        assert decoded == original, f"{type(original).__name__} diverged"


def test_cohort_set_and_tree_replies_round_trip():
    """Wire v5: the cohort set rides on the request path (view seq on the
    request, seq + set on a correcting reply and on the GetMembers reply)
    and the GetHierarchyInfo reply names the leaves routers pack the tree
    from.  Wire v9: a declared read is a CCRead, and its hedge the same
    CCRead sent to the next rank.  Wire v20: ids are integers, a store op
    is a tuple, and ``client`` is written only on a copy passed on.  Wire
    v22: a write carries ``lag``, the distance back to its client's
    oldest request in flight."""
    from repro.core import HierarchyState, LargeGroupParams
    from repro.core.leader import directory_reply
    from repro.core.views import AddLeaf
    from repro.proc.rpc import RpcReply
    from repro.toolkit import CCRead, CCReply, CCRequest

    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=2))
    for i in range(5):
        state.apply(AddLeaf(f"leaf-{i}", 4, (f"w-{i}a", f"w-{i}b")))
    state.apply(AddLeaf("leaf-5", 0, ()))  # listed before it has contacts
    info = directory_reply(state, 5)
    assert state.depth() > 2  # deeper than the root alone
    payloads = [
        CCRequest(
            group="svc::leaf-0", request_id=8, payload=("put", "k", 1),
            view_seq=7,
        ),
        CCRequest(  # passed on by a member outside the set
            group="svc::leaf-0", request_id=8, payload=("put", "k", 1),
            view_seq=7, client="client",
        ),
        CCRequest(  # sent with two older requests still in flight
            group="svc::leaf-0", request_id=8, payload=("put", "k", 1),
            view_seq=7, lag=2,
        ),
        CCRead(
            group="svc::leaf-0", request_id=9, payload=("get", "k"),
            view_seq=7,
        ),
        CCReply(
            request_id=9, result=("value", 1), view_seq=8,
            cohorts=("w-0b", "w-0c", "w-0d"),
        ),
        RpcReply(request_id=3, value=(8, ("w-0b", "w-0c"), ("w-0d",))),
        RpcReply(request_id=4, value=info),
    ]
    for original in payloads:
        decoded = _round_trip(original)
        assert decoded == original, f"{type(original).__name__} diverged"


def test_stamped_data_and_stability_plane_round_trip():
    """Wire v6: the sequencer's own abcast carries its global order (None
    off the sequencer), ``message_id`` is rebuilt rather than shipped, and
    both hops of the stability plane — entries that moved plus the abcast
    delivery frontier — are one kind."""
    from repro.membership.events import StabilityGossip

    for global_seq in (None, 1, 2**33):
        original = GroupData(
            group="g", view_seq=3, sender="g-0", sender_seq=7,
            ordering=TOTAL, payload={"op": "put"}, global_seq=global_seq,
        )
        decoded = _round_trip(original)
        assert decoded == original and decoded.global_seq == global_seq
        assert decoded.message_id == ("g-0", 7)
        assert decoded.message_id is decoded.message_id
    for original in (
        StabilityGossip(group="g", view_seq=3, delivered={"g-0": 41}, ordered=40),
        StabilityGossip(group="g", view_seq=3, delivered={}, ordered=41),
        StabilityGossip(group="g", view_seq=3, delivered={"g-0": 9, "g-5": 2}),
    ):
        assert _round_trip(original) == original


def test_envelope_batch_round_trips():
    """An envelope is its src, dst and payload, and all three travel."""
    rng = SimRandom(7)
    envelopes = [
        Envelope(
            _address(rng),
            _address(rng),
            _instance(rng, registered_kinds()[10]),  # GroupData
        )
        for _ in range(8)
    ]
    frames, rejects = encode_data_frames(envelopes)
    assert not rejects
    assert len(frames) == 1  # a small batch stays one frame
    frame_kind, decoded = decode_frame(frames[0])
    assert frame_kind == FRAME_DATA
    assert len(decoded) == len(envelopes)
    for original, copy in zip(envelopes, decoded):
        assert (copy.src, copy.dst) == (original.src, original.dst)
        assert copy.payload == original.payload


def test_the_receiving_fabric_stamps_arrival_with_its_own_clock():
    from types import SimpleNamespace

    from repro.net import HandlerTable
    from repro.net.latency import FixedLatency
    from repro.proc.env import Environment
    from repro.runtime.socket_backend import SocketRuntime

    runtime = SocketRuntime(seed=3)
    try:
        env = Environment(latency=FixedLatency(0.001), runtime=runtime)
        arrived = []
        env.network.register("b", HandlerTable(SimpleNamespace(
            unhandled=lambda payload, _src: arrived.append((env.network.now, payload))
        )))
        sent = Envelope("a", "b", GroupView("g", 2, ("a", "b")))
        (frame,), _ = encode_data_frames([sent])
        before = runtime.timers.now
        runtime.fabric._on_datagram(frame, ("127.0.0.1", 1))
        after = runtime.timers.now
        ((delivered_at, payload),) = arrived
        assert before <= delivered_at <= after < 1.0
        assert payload == sent.payload
        assert runtime.timers.take_error() is None
    finally:
        runtime.close()


def test_oversized_batch_splits_into_frames():
    big = "x" * 9000
    envelopes = [
        Envelope("a", "b", big)
        for _ in range(10)
    ]
    frames, rejects = encode_data_frames(envelopes, max_bytes=30000)
    assert not rejects
    assert len(frames) > 1
    total = sum(len(decode_frame(f)[1]) for f in frames)
    assert total == len(envelopes)
    assert all(len(f) <= 30000 for f in frames)


def test_unencodable_and_oversized_records_reject_without_poisoning():
    class Alien:
        pass

    envelopes = [
        Envelope("a", "b", "fine"),
        Envelope("a", "b", Alien()),
        Envelope("a", "b", "x" * 70000),
        Envelope("a", "b", "also fine"),
    ]
    frames, rejects = encode_data_frames(envelopes)
    assert len(rejects) == 2
    decoded = [e for f in frames for e in decode_frame(f)[1]]
    assert [e.payload for e in decoded] == ["fine", "also fine"]


# -- wire budget ----------------------------------------------------------------

_LEAF = "svc-ldr-0/2"
_PUT = ("put", "k17", 17)
_MEMBERS = tuple(f"svc-w-{16 + i}" for i in range(7))


def _unstable():
    """Eight abcasts of one leaf view, by four senders, each stamped: what
    a churn view change carries when a coordinator dies mid-stream."""
    return [
        GroupData(_LEAF, 12, _MEMBERS[i % 4], 40 + i, TOTAL,
                  ("put", f"k{20 + i}", i), global_seq=300 + i)
        for i in range(8)
    ]


def _budget_cases():
    from repro.failure.detector import Heartbeat
    from repro.membership.events import FlushOk, NewView, StabilityGossip
    from repro.toolkit.coordinator_cohort import CCRead, CCReply, CCRequest
    from repro.transport.channel import Segment, SegmentAck

    unstable = _unstable()
    orders = [(data.global_seq, data.message_id) for data in unstable]
    return {
        "heartbeat": (
            Envelope("svc-w-517", "svc-w-516", Heartbeat()),
            18, "180101097376632d772d35313712360a2000",
        ),
        "group-data": (
            Envelope("svc-w-16", "svc-w-17", Segment(41, GroupData(
                _LEAF, 16, "svc-w-16", 57, TOTAL, _PUT, global_seq=312,
            ))),
            61,
            "180101087376632d772d313610370a010203520a0a08050b7376632d6c6472"
            "2d302f3203200b00037203040703050370757405036b313703220003f004",
        ),
        "cc-request": (
            Envelope("client-0", "svc-w-16", CCRequest(_LEAF, 10, _PUT, 16)),
            55,
            "18010108636c69656e742d30487376632d772d31360a4604050b7376632d6c"
            "64722d302f3203140703050370757405036b313703220320",
        ),
        "cc-request-lag": (
            Envelope("client-0", "svc-w-16", CCRequest(_LEAF, 10, _PUT, 16, 3)),
            57,
            "18010108636c69656e742d30487376632d772d31360a4605050b7376632d6c"
            "64722d302f3203140703050370757405036b3137032203200306",
        ),
        "cc-read": (
            Envelope("client-0", "svc-w-16", CCRead(_LEAF, 4097, ("get", "k17"), 16)),
            54,
            "18010108636c69656e742d30487376632d772d31360a4e04050b7376632d6c"
            "64722d302f320382400702050367657405036b31370320",
        ),
        "cc-reply": (
            Envelope("svc-w-16", "client-0", CCReply(4097, ("value", 17), 16)),
            40,
            "180101087376632d772d313648636c69656e742d300a470303824007020505"
            "76616c756503220320",
        ),
        "transport-ack": (
            Envelope("svc-w-17", "svc-w-16", SegmentAck(cum_seq=41)),
            19, "180101087376632d772d313710360a02010352",
        ),
        "group-stability": (
            Envelope("svc-w-17", "svc-w-16", Segment(42, StabilityGossip(
                _LEAF, 12, {"svc-w-17": 57, "svc-w-18": 12}, 311,
            ))),
            58,
            "180101087376632d772d313710360a010203540a0c04050b7376632d6c6472"
            "2d302f32031809020b00037205087376632d772d3138031803ee04",
        ),
        "group-new-view": (
            Envelope("svc-w-16", "svc-w-17", Segment(58, NewView(
                GroupView(_LEAF, 13, _MEMBERS), unstable, orders, 308,
            ))),
            418,
            "180101087376632d772d313610370a010203740a0f040a1303050b7376632d"
            "6c64722d302f32031a07070b000b0105087376632d772d313805087376632d"
            "772d313905087376632d772d323005087376632d772d323105087376632d77"
            "2d323208080a0a080b0203180b00035003040703050370757405036b323003"
            "000003d8040a0a080b0203180b010352030407030b0805036b323103020003"
            "da040a0a080b0203180b030354030407030b0805036b323203040003dc040a"
            "0a080b0203180b040356030407030b0805036b323303060003de040a0a080b"
            "0203180b000358030407030b0805036b323403080003e0040a0a080b020318"
            "0b01035a030407030b0805036b3235030a0003e2040a0a080b0203180b0303"
            "5c030407030b0805036b3236030c0003e4040a0a080b0203180b04035e0304"
            "07030b0805036b3237030e0003e6040808070203d80407020b000350070203"
            "da0407020b010352070203dc0407020b030354070203de0407020b04035607"
            "0203e00407020b000358070203e20407020b01035a070203e40407020b0303"
            "5c070203e60407020b04035e03e804",
        ),
        "group-flush-ok": (
            Envelope("svc-w-17", "svc-w-16", Segment(43, FlushOk(
                _LEAF, 13, unstable, orders, 308,
            ))),
            375,
            "180101087376632d772d313710360a010203560a0e05050b7376632d6c6472"
            "2d302f32031a08080a0a080b0203180b01035003040703050370757405036b"
            "323003000003d8040a0a080b0203180b000352030407030b0305036b323103"
            "020003da040a0a080b02031805087376632d772d31380354030407030b0305"
            "036b323203040003dc040a0a080b02031805087376632d772d313903560304"
            "07030b0305036b323303060003de040a0a080b0203180b010358030407030b"
            "0305036b323403080003e0040a0a080b0203180b00035a030407030b030503"
            "6b3235030a0003e2040a0a080b0203180b06035c030407030b0305036b3236"
            "030c0003e4040a0a080b0203180b08035e030407030b0305036b3237030e00"
            "03e6040808070203d80407020b010350070203da0407020b000352070203dc"
            "0407020b060354070203de0407020b080356070203e00407020b0103580702"
            "03e20407020b00035a070203e40407020b06035c070203e60407020b08035e"
            "03e804",
        ),
    }


_BUDGET = ("heartbeat", "group-data", "cc-request", "cc-request-lag", "cc-read",
           "cc-reply", "transport-ack", "group-stability", "group-new-view",
           "group-flush-ok")


@pytest.mark.parametrize("name", _BUDGET)
def test_wire_budget(name):
    """The exact bytes of the frames that dominate the e2e workloads, as a
    data frame of one record (v13 wrote the first four in 52, 140, 130
    and 58 bytes); the case table holds each frame's size and hex, so a
    re-pin changes the table, not the test's name.  A change that grows
    one fails here first: re-pin it with the bytes it adds and why.
    Wire v20 cut, against v19:
    ``group-data`` 109 -> 88 (5 B for the ordering, an int not the
    string ``"total"``; 16 B for the put as a tuple, not a dict);
    ``cc-request`` 106 -> 67 (13 B for the integer id, 10 B for the
    client the envelope already names, 16 B for the tuple); ``cc-read``
    99 -> 66 (14, 10 and 9 B the same ways) and ``cc-reply`` 56 -> 42
    (14 B, the id): the two frames of a get, 88% of the e2e ``kv_read``
    workload's wire bytes (91% under v19).  Wire v22 changed the six in
    the version byte only; ``cc-request-lag`` is the same put sent while
    its process still waits on the request three ids older: 2 B more
    for ``lag`` (its tag and value; the record's field count stays one
    byte).  Wire v23 names a leaf ``svc-ldr-0/2``, not
    ``svc::leaf-svc-ldr-0-2`` (10 B off every frame naming its group:
    ``cc-request`` 67 -> 57, ``cc-request-lag`` 69 -> 59, ``cc-read``
    66 -> 56), and spells each string of a record once: ``group-data``
    88 -> 70 (the leaf name, and 8 B for a sender equal to the record's
    src); the three view-plane frames, new at v23, are the stability
    report (85 B at v22), and a churn view change's ``NewView`` (770)
    and ``FlushOk`` (695) of eight unstable abcasts by four senders,
    whose group, senders and message ids each repeat one literal.
    Wire v24 drops the header's magic (2 B off every frame) and
    front-codes the dst against the src: between ring neighbours
    (``svc-w-517`` -> ``svc-w-516``, ``svc-w-17`` -> ``svc-w-16``) the
    dst is a varint and the one byte that differs, 2 B where it was 10
    or 9, so the heartbeat 28 -> 18, ``transport-ack``
    28 -> 19, ``group-data`` 70 -> 61, ``group-stability`` 67 -> 58,
    ``group-new-view`` 427 -> 418 and ``group-flush-ok`` 384 -> 375; a
    client's frames share nothing with the server's address and lose
    the header bytes only (``cc-request`` 57 -> 55, ``cc-request-lag``
    59 -> 57, ``cc-read`` 56 -> 54, ``cc-reply`` 42 -> 40)."""
    envelope, size, expected = _budget_cases()[name]
    (frame,), rejects = encode_data_frames([envelope])
    assert not rejects
    assert len(frame) == size
    assert frame.hex() == expected
    (decoded,) = decode_frame(frame)[1]
    assert decoded.payload == envelope.payload


def test_a_dst_sharing_nothing_costs_its_v23_bytes_less_the_header():
    """A client and a server share no address prefix, so front coding
    leaves the dst what v23 wrote, a one-byte length and its bytes
    (``8 × (8 + 1) < 128``), and these frames lose the header's magic
    alone.  The sizes on the right are v23's pins."""
    cases = _budget_cases()
    v23 = {"cc-read": 56, "cc-request": 57, "cc-request-lag": 59, "cc-reply": 42}
    for name, size in v23.items():
        envelope, pinned, expected = cases[name]
        assert envelope.src[0] != envelope.dst[0]
        assert pinned == size - 2, name
        src, dst = envelope.src.encode(), envelope.dst.encode()
        at = HEADER_BYTES + 2 + len(src)  # past the count and the src
        record = bytes.fromhex(expected)[at:at + 1 + len(dst)]
        assert record == bytes([len(dst) * (len(src) + 1)]) + dst


def _directory_frame(leaf_count: int):
    """The GetHierarchyInfo reply of a leader holding ``leaf_count`` leaves
    of three contacts each (r = 3, fanout 8, ids as a leader names them),
    encoded as one data frame's envelope."""
    from repro.core import HierarchyState, LargeGroupParams
    from repro.core.leader import directory_reply
    from repro.core.views import AddLeaf
    from repro.proc.rpc import RpcReply

    state = HierarchyState("svc", LargeGroupParams(resiliency=3, fanout=8))
    for i in range(leaf_count):
        contacts = tuple(f"svc-w-{3 * i + k}" for k in range(3))
        state.apply(AddLeaf(f"svc-ldr-0/{i + 1}", 8, contacts))
    reply = RpcReply(request_id=4097, value=directory_reply(state, 64))
    return Envelope("svc-ldr-0", "client-0", reply)


_DIRECTORY = {64: 3092, 256: 12658, 1024: 53155}


@pytest.mark.parametrize("leaf_count", sorted(_DIRECTORY))
def test_directory_reply_budget(leaf_count):
    """A directory fetch's exact bytes (``_DIRECTORY``, by leaf count).
    Wire v21 sends each leaf's id and
    contacts and the fanout, depth and epoch; v20 also sent per-leaf size
    and load, the leader's totals and the branch tree a router now packs
    itself: 7,664 and 31,001 bytes at 64 and 256 leaves, and at 1,024 a
    126,807-byte record that no frame took, so no router could place a
    key on such a service over UDP.  Wire v23's leaf ids, ``svc-ldr-0/n``
    for ``leaf-svc-ldr-0-n``, take 5 B a leaf off v22's 3,414, 13,940 and
    58,277 B, and the largest directory one frame holds goes from 1,053
    leaves to 1,150 (nothing repeats in a reply, so the string table
    saves nothing here).  Wire v24 takes the header's 2 B off each:
    ``svc-ldr-0`` and ``client-0`` share no prefix."""
    size = _DIRECTORY[leaf_count]
    envelope = _directory_frame(leaf_count)
    frames, rejects = encode_data_frames([envelope])
    assert not rejects
    assert [len(frame) for frame in frames] == [size]
    (decoded,) = decode_frame(frames[0])[1]
    assert decoded.payload == envelope.payload


# -- the per-record string table -----------------------------------------------

_ADDRESSES = ("svc-w-16", "svc-w-17", "client-0")
_WORDS = st.sampled_from(_ADDRESSES + ("", "k", "svc-ldr-0/2", "put", "ключ", "é"))
_STRINGS = _WORDS | st.text(max_size=6)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _STRINGS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, inner, max_size=4)
        | st.builds(GroupData, _STRINGS, st.integers(1, 9), _STRINGS,
                    st.integers(1, 9), st.sampled_from(ORDERINGS), inner)
    ),
    max_leaves=16,
)
_RECORDS = st.lists(
    st.tuples(st.sampled_from(_ADDRESSES), st.sampled_from(_ADDRESSES), _VALUES),
    min_size=1, max_size=4,
)


def _varint_size(value: int) -> int:
    return max(1, (value.bit_length() + 6) // 7)


def _utf8_size(text: str) -> int:
    raw = len(text.encode("utf-8"))
    return _varint_size(raw) + raw


class _FullTable(dict):
    """A string table that holds nothing and takes nothing in, so every
    string is spelled out."""

    def get(self, key, default=None):
        return default

    def __len__(self) -> int:
        return STRING_TABLE_SIZE


def _spelled_size(value) -> int:
    """The bytes ``value`` takes with every string spelled out."""
    out = bytearray()
    codec._write_value(out, value, _FullTable())
    return len(out)


def _dst_size(src: str, dst: str) -> int:
    """The bytes a record's dst takes, front-coded against its src."""
    raw_src, raw_dst = src.encode(), dst.encode()
    shared = 0
    while shared < min(len(raw_src), len(raw_dst)) and raw_src[shared] == raw_dst[shared]:
        shared += 1
    suffix = len(raw_dst) - shared
    return _varint_size(suffix * (len(raw_src) + 1) + shared) + suffix


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
def test_repeated_strings_round_trip_and_never_grow_a_record(records):
    """A k-record frame of nested values whose strings repeat each other
    and the records' src and dst (dict keys, empty and non-ASCII strings
    too) decodes to what was sent, and no record's payload is longer
    than the same value with every string spelled out."""
    envelopes = [Envelope(src, dst, value) for src, dst, value in records]
    frames, rejects = encode_data_frames(envelopes)
    assert not rejects and len(frames) == 1
    decoded = decode_frame(frames[0])[1]
    assert [(e.src, e.dst, e.payload) for e in decoded] == records
    for src, dst, value in records:
        (frame,), _ = encode_data_frames([Envelope(src, dst, value)])
        payload = len(frame) - HEADER_BYTES - 1 - _utf8_size(src) - _dst_size(src, dst)
        assert payload <= _spelled_size(value)


def test_a_repeat_costs_a_back_reference_and_nothing_carries_across_records():
    name = "svc-ldr-0/2"
    once = encode_data_frames([Envelope("a", "b", (name,))])[0][0]
    twice = encode_data_frames([Envelope("a", "b", (name, name))])[0][0]
    assert len(twice) - len(once) == 2  # the tag and a one-byte index
    echo = encode_data_frames([Envelope("svc-w-16", "b", ("svc-w-16",))])[0][0]
    other = encode_data_frames([Envelope("svc-w-16", "b", ("svc-w-17",))])[0][0]
    assert len(other) - len(echo) == 8  # a 10-byte literal, a 2-byte reference
    # Each record starts a fresh table: the second record spells the name
    # again, so either one decodes alone.
    (frame,), _ = encode_data_frames(
        [Envelope("a", "b", (name,)), Envelope("a", "b", (name,))]
    )
    assert frame.count(name.encode()) == 2


def _data_frame(body: bytes) -> bytes:
    """A one-record data frame from src ``a``, dst ``b`` (a suffix of one
    byte sharing none: ``1 × (1 + 1) + 0``) and a raw payload encoding."""
    return bytes([WIRE_VERSION, FRAME_DATA, 1, 1]) + b"a\x02b" + body


def test_a_back_reference_past_the_table_is_refused():
    ref, string = 11, 5
    assert decode_frame(_data_frame(bytes([ref, 1])))[1][0].payload == "b"
    with pytest.raises(CodecError, match="past a table of 2"):
        decode_frame(_data_frame(bytes([ref, 2])))
    # A literal enters the table; a reference then reaches it.
    body = bytes([7, 2, string, 1]) + b"x" + bytes([ref, 2])
    assert decode_frame(_data_frame(body))[1][0].payload == ("x", "x")
    # An empty string does not (its literal is no longer than a reference).
    body = bytes([7, 2, string, 0, ref, 2])
    with pytest.raises(CodecError, match="past a table of 2"):
        decode_frame(_data_frame(body))
    with pytest.raises(CodecError):
        decode_frame(_data_frame(bytes([ref, 0x80, 0x80, 0x80, 0x80, 0x01])))
    # A control frame's table starts empty.
    control = encode_control_frame(("x", "x"))
    assert control[HEADER_BYTES:] == bytes([7, 2, string, 1]) + b"x" + bytes([ref, 0])
    assert decode_frame(control) == (FRAME_CONTROL, ("x", "x"))
    with pytest.raises(CodecError, match="past a table of 1"):
        decode_frame(control[:-1] + bytes([1]))
    with pytest.raises(CodecError, match="past a table of 0"):
        decode_frame(control[:HEADER_BYTES] + bytes([ref, 0]))


def test_the_table_stops_growing_so_an_index_stays_two_bytes():
    """src and dst take the first two entries and the first words the
    rest; a word past the table is spelled out each time it comes.  (The
    record outgrows a UDP frame, so it is packed under a larger budget.)"""
    words = [f"w{i}" for i in range(STRING_TABLE_SIZE + 1)]
    (frame,), rejects = encode_data_frames(
        [Envelope("a", "b", (words, words))], max_bytes=1 << 20
    )
    assert not rejects
    assert decode_frame(frame)[1][0].payload == (words, words)
    spelled = sum(1 + _utf8_size(word) for word in words)
    kept = STRING_TABLE_SIZE - 2
    referenced = sum(1 + _varint_size(2 + i) for i in range(kept)) + sum(
        1 + _utf8_size(word) for word in words[kept:]
    )
    container = 1 + _varint_size(len(words))
    envelope = 1 + 2 * _utf8_size("a")  # record count, src, dst
    assert len(frame) == (
        HEADER_BYTES + envelope + 2 + 2 * container + spelled + referenced
    )
    # The decoder's table stops where the encoder's does: the last entry
    # is reachable, one past it is not, though more words were spelled.
    (frame,), _ = encode_data_frames(
        [Envelope("a", "b", (words, "tail"))], max_bytes=1 << 20
    )
    body = frame[: -len(b"\x05\x04tail")]
    last = decode_frame(body + bytes([11, 0xFF, 0x7F]))[1][0]
    assert last.payload == (words, words[kept - 1])
    with pytest.raises(CodecError, match="past a table of 16384"):
        decode_frame(body + bytes([11, 0x80, 0x80, 0x01]))


# -- front-coded addresses ------------------------------------------------------

_STEMS = st.sampled_from(("", "svc-w-", "svc-w-24", "svc-ldr-0", "client-", "é", "ключ"))
_PAIRS = st.tuples(_STEMS, st.text(max_size=12), st.text(max_size=12)).map(
    lambda parts: (parts[0] + parts[1], parts[0] + parts[2])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAIRS, min_size=1, max_size=4))
@example([("é", "ê")])  # a shared byte prefix that splits a code point
@example([("", "svc-w-16")])
@example([("svc-w-16", "")])
@example([("svc-w-240", "svc-w-240")])
@example([("svc-w-240", "svc-w-241"), ("svc-w-24", "svc-w-240")])
def test_a_dst_front_coded_against_its_src_round_trips(pairs):
    """Wire v24 writes a record's dst as a varint, ``suffix length ×
    (src length + 1) + shared``, and the dst's bytes past the prefix it
    shares with the src, counted in bytes: such frames decode to the
    addresses sent, a dst costs exactly that, and one sharing nothing
    costs v23's length and bytes while ``dst length × (src length + 1)``
    fits one varint byte."""
    envelopes = [Envelope(src, dst, None) for src, dst in pairs]
    (frame,), rejects = encode_data_frames(envelopes)
    assert not rejects
    assert [(e.src, e.dst) for e in decode_frame(frame)[1]] == pairs
    for src, dst in pairs:
        (frame,), _ = encode_data_frames([Envelope(src, dst, None)])
        assert len(frame) == HEADER_BYTES + 1 + _utf8_size(src) + _dst_size(src, dst) + 1
        raw_src, raw_dst = src.encode(), dst.encode()
        if raw_src[:1] != raw_dst[:1] and len(raw_dst) * (len(raw_src) + 1) < 128:
            assert _dst_size(src, dst) == _utf8_size(dst)


def test_a_dst_varint_cannot_reach_past_the_src():
    """The shared count is the varint modulo ``src length + 1``, so no
    value names more of the src than it has; a suffix past the frame
    overruns, and shared bytes that end mid code point with no suffix to
    finish it are invalid UTF-8 — each a :class:`CodecError`."""
    def record(src: bytes, dst_varint: int, suffix: bytes) -> bytes:
        out = bytearray([WIRE_VERSION, FRAME_DATA, 1, len(src)]) + src
        codec._write_varint(out, dst_varint)
        return bytes(out + suffix + bytes([0]))  # payload None

    for varint in range(12):
        suffix, shared = divmod(varint, 3)
        (decoded,) = decode_frame(record(b"ab", varint, b"x" * suffix))[1]
        assert decoded.dst == "ab"[:shared] + "x" * suffix
    with pytest.raises(CodecError, match="truncated"):
        decode_frame(record(b"ab", 50 * 3, b""))
    with pytest.raises(CodecError, match="utf-8"):
        decode_frame(record("é".encode(), 1, b""))  # half of é, then the payload


def test_every_v23_frame_is_refused_at_its_first_byte():
    """Every frame up to v23 began with the magic ``b"RW"``; v24 has none,
    so an old peer's frame reads as version 0x52 and goes no further,
    whatever follows — the pinned v23 heartbeat included."""
    v23_heartbeat = bytes.fromhex(
        "5257170101097376632d772d353137097376632d772d3531360a2000"
    )
    with pytest.raises(CodecError, match="unsupported wire version 82"):
        decode_frame(v23_heartbeat)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((FRAME_DATA, FRAME_CONTROL)), st.binary(max_size=64))
    def refused(frame_kind, body):
        with pytest.raises(CodecError, match="unsupported wire version 82"):
            decode_frame(b"RW" + bytes([23, frame_kind]) + body)

    refused()


# -- rejection properties -----------------------------------------------------


def test_truncated_frames_raise_codec_error_only():
    frame = encode_control_frame({"k": [1, 2.5, "three", None]})
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_frame(frame[:cut])


def test_corrupted_frames_never_raise_anything_else():
    """A control frame, a data frame whose records lean on their string
    tables (a churn ``NewView`` and ``FlushOk``) and a heartbeat whose
    dst is front-coded against its src: a flipped bit that lands on a
    back-reference or on the dst's varint must read as bad input too."""
    rng = SimRandom(99)
    cases = _budget_cases()
    control = encode_control_frame(
        {"view": _group_view(rng), "clock": _vector_clock(rng)}
    )
    (data,), _ = encode_data_frames(
        [cases["group-new-view"][0], cases["group-flush-ok"][0]]
    )
    (heartbeat,), _ = encode_data_frames([cases["heartbeat"][0]])
    for original in (control, data, heartbeat):
        frame = bytearray(original)
        flips = 0
        for _ in range(400):
            index = rng.randint(0, len(frame) - 1)
            old = frame[index]
            frame[index] ^= 1 << rng.randint(0, 7)
            try:
                decode_frame(bytes(frame))
            except CodecError:
                flips += 1
            frame[index] = old
        assert flips > 0  # corruption was actually detected, not ignored


def test_random_garbage_rejected():
    rng = SimRandom(5)
    for _ in range(200):
        blob = bytes(
            rng.randint(0, 255) for _ in range(rng.randint(0, 64))
        )
        with pytest.raises(CodecError):
            decode_frame(blob)


def test_bad_magic_version_kind_and_length():
    """Since v24 the header is the version byte and the frame kind: a
    frame that starts with the old magic, or with any other byte that is
    not :data:`WIRE_VERSION`, is refused there."""
    good = encode_control_frame(1)
    with pytest.raises(CodecError, match="version 88"):
        decode_frame(b"XX" + good[2:])
    # Skew in either direction: a newer peer, and a v23 peer, which
    # still writes the magic ``b"RW"`` before its version.
    newer = bytes([WIRE_VERSION + 1]) + good[1:]
    v23 = b"RW" + bytes([WIRE_VERSION - 1]) + good[1:]
    for skewed in (newer, v23):
        with pytest.raises(CodecError, match="unsupported wire version"):
            decode_frame(skewed)
    with pytest.raises(CodecError):
        decode_frame(good[:1] + b"\x07" + good[2:])  # unknown frame kind
    with pytest.raises(CodecError, match="shorter than header"):
        decode_frame(good[:1])
    with pytest.raises(CodecError):
        decode_frame(good + b"\x00")  # padding: trailing bytes
    with pytest.raises(CodecError):
        decode_frame(b"")


def test_control_frame_oversize_raises():
    from repro.net.wire import FrameTooLarge

    with pytest.raises(FrameTooLarge):
        encode_control_frame("x" * (MAX_FRAME_BYTES + 1))


def test_corrupted_kind_fields_stay_codec_errors():
    # A decoded field combination that violates __post_init__ must read
    # as bad input, not crash: GroupView with a duplicate member.
    frame = bytearray(encode_control_frame(GroupView("g", 2, ("a", "bb"))))
    payload = frame[frame.index(b"bb") : frame.index(b"bb") + 2]
    frame[frame.index(b"bb") : frame.index(b"bb") + 2] = b"a\x00"[:len(payload)]
    try:
        decode_frame(bytes(frame))
    except CodecError:
        pass  # either verdict is fine; anything else would have raised


def test_no_exception_escapes_the_fabric_receive_path():
    from repro.proc.env import Environment
    from repro.net.latency import FixedLatency
    from repro.runtime.socket_backend import SocketRuntime

    runtime = SocketRuntime(seed=3)
    try:
        env = Environment(latency=FixedLatency(0.001), runtime=runtime)
        fabric = runtime.fabric
        rng = SimRandom(11)
        before = env.network.stats.dropped
        blobs = [
            b"",
            b"garbage",
            encode_control_frame("control on the data plane"),
            bytes(rng.randint(0, 255) for _ in range(64)),
            encode_data_frames(
                [Envelope("a", "b", "ok")]
            )[0][0][:-3],  # truncated data frame
        ]
        for blob in blobs:
            fabric._on_datagram(blob, ("127.0.0.1", 1))
        assert fabric.decode_errors == len(blobs)
        assert env.network.stats.dropped - before == len(blobs)
        assert runtime.timers.take_error() is None
    finally:
        runtime.close()


# -- census -------------------------------------------------------------------


def test_every_wire_handler_kind_is_registered():
    """Grep src/repro for typed receiver registrations ``.on(Kind, ...)``
    and require each kind to carry a wire id: if the sim can route it, a
    deployment must be able to encode it."""
    registered = {cls.__name__ for cls in registered_kinds().values()}
    registered.add("Kind")  # the docstring placeholder, not a class
    pattern = re.compile(r"\.on\(\s*([A-Z]\w+)\s*,")
    missing = {}
    for path in SRC.rglob("*.py"):
        for name in pattern.findall(path.read_text()):
            if name not in registered:
                missing.setdefault(name, []).append(
                    str(path.relative_to(SRC))
                )
    assert not missing, (
        f"payload kinds handled but not wire-registered: {missing} — "
        "add them to src/repro/net/wire/registry.py"
    )


def test_wire_ids_are_unique_and_stable():
    kinds = registered_kinds()
    assert len(kinds) == len(set(kinds.values())), "class registered twice"
    # Anchor a few ids that are on the wire today: renumbering them is a
    # format break (docs/deployment.md) and must bump WIRE_VERSION.
    assert kinds[1].__name__ == "Segment"
    assert kinds[10].__name__ == "GroupData"
    assert kinds[22].__name__ == "FlushAbort"  # new in v19
    assert 11 not in kinds  # the sequencer's order message, retired in v12
    assert kinds[64].__name__ == "NodeRegister"
    assert 90 not in kinds  # ResolvePlacement, retired in v5: never reused
    assert 52 not in kinds  # the manager's leaf assignment, retired in v17: never reused
    assert kinds[32].__name__ == "Heartbeat"
    assert 33 not in kinds  # HeartbeatAck, retired in v7: never reused
    assert (kinds[34].__name__, kinds[35].__name__) == ("Subscribe", "Unsubscribe")
    assert kinds[36].__name__ == "Probe"
    for retired in (60, 61, 62, 63):
        assert retired not in kinds  # the name service, retired in v13: never reused
    assert kinds[70].__name__ == "CCRequest"
    for retired in (74, 75):
        assert retired not in kinds  # ScatterTask / PartialResult, retired in v13: never reused
    assert 77 not in kinds  # CCHedge, retired in v9: never reused
    assert kinds[78].__name__ == "CCRead"
    # The deleted parallel engine's barrier frames: never reused.  They
    # only ever travelled on a pipe between a hub and the workers it
    # spawned from the same tree, so no frame a deployed node sends or
    # accepts changed and WIRE_VERSION stays where it was.
    assert not set(range(91, 96)) & set(kinds)
    # v2: the recursive-hierarchy refactor evolved the hierarchy kinds'
    # field lists (a format change even with ids unchanged).  v3:
    # GroupData lost its ``gossip`` field.  v4: ReportLeafStatus and
    # UpdateLeaf lost their request-rate field.  v5: CCRequest/CCReply
    # carry the cohort set's view, the info reply carries the branch tree,
    # ResolvePlacement is gone.  v6: GroupData carries the sequencer's
    # stamp, StabilityGossip the abcast delivery frontier.  v7: heartbeats
    # are one-way; HeartbeatAck is gone, Subscribe / Unsubscribe are new.
    # v8: CCHedge is new; CCRequest is unchanged, so a failure-free
    # request is the same bytes as under v7 apart from the version byte.
    # v9: CCHedge is gone — a read is a CCRead, and its hedge the same
    # CCRead sent to the next rank — so a v8 peer's hedge is refused at
    # the header.  v10: SegmentAck grew ``high`` (the gap report).  v11:
    # Probe is new — a v10 peer would not know kind 36.  v12: kind 11 is
    # gone — a non-sequencer's abcast is relayed through the sequencer,
    # whose copy carries ``global_seq`` — so a v11 peer's order message
    # is refused at the header.  v13: the name service's kinds (60-63)
    # and the parallel executor's (74, 75) are gone with their code, so a
    # v12 peer's lookup or scatter is refused at the header.  v14: the
    # header drops its body length, an envelope record is src, dst and
    # payload alone, and a kind stops at its last non-default field.
    # v15: the hierarchy kinds lose their level-tagged placement fields
    # (report level/path, directive and command levels and paths,
    # AddLeaf ``under``): both reorganisation modes share one canonical
    # tree.  v16: Flush loses ``proposed``, CCResultNote ``client`` and
    # TreeAck ``delivered_leaves``, which no receiver read; the four
    # pinned frames changed only in the version byte.  v17: the
    # manager's round-robin leaf assignment is gone — every client places
    # itself on the branch tree — and GetHierarchyInfo loses ``subtree``;
    # the pinned frames again changed only in the version byte.  v18: a
    # treecast stage is named (RelaySpec ``branch``, TreeAck and
    # TreeCommit ``stage``) and LeafTarget loses ``size``; the pinned
    # frames changed only in the version byte.  v19: FlushAbort (22) is
    # new; the pinned frames changed only in the version byte.  v20: a
    # request names itself once — integer ids, ``client`` only on a copy
    # passed on, store ops as tuples, the ordering an int — and
    # CCResultNote names the client again.  v21: the GetHierarchyInfo
    # reply is the leaf directory (contacts by id, fanout, depth, epoch),
    # and a router packs the tree from the ids; the pinned frames changed
    # only in the version byte.  v22: CCRequest grows ``lag`` before
    # ``client``, so a set member can drop the results of its client's
    # finished writes; it is not written when 0, so the pinned frames
    # changed only in the version byte.  v23: a data record spells each
    # string once (a per-record table, back-reference tag 11), and a leaf
    # group is named by its leaf id, ``<manager address>/<n>``.  v24: a
    # record's dst is front-coded against its src, and the header is the
    # version and frame kind alone (no magic); no kind changed.
    assert WIRE_VERSION == 24


def test_the_v16_slimmed_kinds_round_trip():
    """What v16 left of Flush, CCResultNote and TreeAck is all their
    receivers read, and it survives the codec field for field.  TreeAck
    gained ``stage`` in v18: the child stage the ack closes, which its
    receiver reads to count one ack per child.  CCResultNote gained
    ``client`` back in v20: with integer ids a cohort holds a write under
    (client, id), and the note's sender is the coordinator."""
    from repro.core.treecast import TreeAck
    from repro.membership.events import Flush
    from repro.toolkit.coordinator_cohort import CCResultNote

    assert [f.name for f in dataclasses.fields(Flush)] == [
        "group", "target_seq", "initiator",
    ]
    assert [f.name for f in dataclasses.fields(CCResultNote)] == [
        "group", "request_id", "result", "client",
    ]
    assert [f.name for f in dataclasses.fields(TreeAck)] == [
        "broadcast_id", "stage",
    ]
    for payload in (
        Flush(group="svc::leaf-0", target_seq=17, initiator="svc-w-3"),
        CCResultNote(group="svc::leaf-0", request_id=10, result=("ok",),
                     client="client-0"),
        CCResultNote(group="svc::leaf-0"),
        TreeAck(broadcast_id="svc-ldr-0/tb4", stage="svc/b2"),
    ):
        assert decode_frame(encode_control_frame(payload)) == (FRAME_CONTROL, payload)
        envelope = Envelope("svc-w-3", "svc-w-4", payload)
        (frame,), rejects = encode_data_frames([envelope])
        assert not rejects
        (decoded,) = decode_frame(frame)[1]
        assert decoded.payload == payload


def test_a_gap_report_round_trips():
    from repro.transport.channel import SegmentAck

    for ack in (
        SegmentAck(cum_seq=41, incarnation=2, epoch=3, high=57),
        SegmentAck(cum_seq=0),  # no gap: high stays 0
    ):
        kind, value = decode_frame(encode_control_frame(ack))
        assert (kind, value) == (FRAME_CONTROL, ack)
    envelope = Envelope("a", "b", SegmentAck(cum_seq=7, high=9))
    frames, rejects = encode_data_frames([envelope])
    assert not rejects
    (decoded,) = decode_frame(frames[0])[1]
    assert decoded.payload == SegmentAck(cum_seq=7, high=9)


def test_a_v9_segment_ack_is_refused_at_the_header():
    """A v9 peer's ack has three fields, and so, since v14, does an ack
    with no gap: ``high`` is left at its default and not written.  The
    count on the wire is the count written, so the v9 frame is turned
    away by its header alone (since v24 at its first byte, the magic a v9
    peer still writes), and a body with more fields than the kind
    declares is refused by the count."""
    from repro.transport.channel import SegmentAck

    ack = SegmentAck(cum_seq=5, epoch=1)
    frame = bytearray(encode_control_frame(ack))
    # The body: tag KIND, kind id 2, 3 fields, then cum_seq (zigzag 10),
    # incarnation (0) and epoch (zigzag 2) — ``high`` is not written.
    assert frame[HEADER_BYTES:] == bytes([10, 2, 3, 3, 10, 3, 0, 3, 2])
    assert decode_frame(bytes(frame)) == (FRAME_CONTROL, ack)
    v9 = b"RW" + bytes([9]) + frame[1:]  # a v9 peer's header: magic, version, kind
    with pytest.raises(CodecError, match="version"):
        decode_frame(v9)
    five = frame[:HEADER_BYTES] + bytes([10, 2, 5]) + frame[HEADER_BYTES + 3:] + bytes([3, 0, 3, 0])
    with pytest.raises(CodecError, match="got 5 fields, expected 1 to 4"):
        decode_frame(bytes(five))


def test_a_v13_frame_is_a_counted_decode_error():
    """A v13 peer still writes an 8-byte header (a u32 body length) and
    both clock readings and the size model in every record.  Its frame
    is turned away at its first byte — the magic, which reads as version
    0x52 since v24 — and the socket fabric counts it as a decode error
    and a drop."""
    from types import SimpleNamespace

    from repro.net import HandlerTable
    from repro.net.latency import FixedLatency
    from repro.proc.env import Environment
    from repro.runtime.socket_backend import SocketRuntime

    def string(text):
        return bytes([5, len(text)]) + text.encode()

    body = (bytes([1]) + string("g-1") + string("g-0")
            + bytes(8) + bytes(8) + bytes([16, 10, 32, 0]))
    v13 = b"RW" + bytes([13, FRAME_DATA]) + len(body).to_bytes(4, "big") + body
    with pytest.raises(CodecError, match="unsupported wire version 82"):
        decode_frame(v13)
    runtime = SocketRuntime(seed=3)
    try:
        env = Environment(latency=FixedLatency(0.001), runtime=runtime)
        env.network.register("g-0", lambda e: pytest.fail("v13 frame delivered"))
        before = env.network.stats.dropped
        runtime.fabric._on_datagram(v13, ("127.0.0.1", 1))
        assert runtime.fabric.decode_errors == 1
        assert env.network.stats.dropped - before == 1
        assert runtime.timers.take_error() is None
    finally:
        runtime.close()


def test_a_v6_heartbeat_ack_is_refused_by_version_not_by_kind():
    """What a v6 peer still sends: kind 33, empty field list.  The frame
    is turned away at the header — nothing looks the kind up, so nothing
    can mistake it for whatever v7 or later puts near that id.  A v6
    peer writes the magic ``b"RW"``, its version and the frame kind."""
    from repro.failure.detector import Subscribe

    frame = bytearray(encode_control_frame(Subscribe()))
    assert frame[0] == WIRE_VERSION and frame.count(34) == 1
    frame[frame.index(34)] = 33
    with pytest.raises(CodecError, match="unknown wire kind id 33"):
        decode_frame(bytes(frame))
    v6 = b"RW" + bytes([6]) + frame[1:]
    with pytest.raises(CodecError, match="version"):
        decode_frame(v6)


def test_a_probe_round_trips_and_a_v10_frame_is_refused():
    """Wire v11: a Probe is kind 36 with no fields, alone in a control
    frame or inside a data frame.  A v10 peer knows no kind 36: a frame
    stamped v10 is turned away at the header, whatever it carries."""
    from repro.failure.detector import Probe
    frame = bytearray(encode_control_frame(Probe()))
    assert decode_frame(bytes(frame)) == (FRAME_CONTROL, Probe())
    assert frame[HEADER_BYTES:] == bytes([10, 36, 0])  # tag KIND, id 36, 0 fields
    envelope = Envelope("g-1", "g-0", Probe())
    frames, rejects = encode_data_frames([envelope])
    assert not rejects
    (decoded,) = decode_frame(frames[0])[1]
    assert decoded.payload == Probe()
    v10 = b"RW" + bytes([10]) + frame[1:]  # magic, version, kind, body
    with pytest.raises(CodecError, match="version"):
        decode_frame(v10)


def test_kind_11_is_unused_and_a_v11_frame_is_refused():
    """Wire v12: a v11 peer still sends the sequencer's order for another
    member's abcast as kind 11 and expects no relayed copy.  Its frame is
    turned away at the header; were the header skipped, kind 11 is
    unknown."""
    from repro.membership import GroupData
    data = GroupData(group="g", view_seq=3, sender="g-4", sender_seq=1,
                     ordering=TOTAL, payload=None, global_seq=7)
    frame = bytearray(encode_control_frame(data))
    assert decode_frame(bytes(frame)) == (FRAME_CONTROL, data)
    assert frame[HEADER_BYTES:HEADER_BYTES + 2] == bytes([10, 10])  # tag KIND, id 10
    frame[HEADER_BYTES + 1] = 11
    with pytest.raises(CodecError, match="unknown wire kind id 11"):
        decode_frame(bytes(frame))
    v11 = b"RW" + bytes([11]) + frame[1:]  # magic, version, kind, body
    with pytest.raises(CodecError, match="version"):
        decode_frame(v11)
