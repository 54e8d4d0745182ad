"""Property tests for the wire codec (repro.net.wire).

Three obligations, per docs/deployment.md:

* **Round-trip** — every registered payload kind survives
  encode -> decode across seeded fuzzing (values generated from each
  dataclass's field type hints), as do envelope batches through the
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

import repro.deploy.messages  # noqa: F401  -- registers control kinds 64-68
from repro.clocks.vector import VectorClock
from repro.core.treecast import LeafTarget, RelaySpec
from repro.membership.events import GroupData
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
        relay=_address(rng),
        leaf_targets=tuple(
            LeafTarget(f"leaf{i}", _address(rng), rng.randint(1, 8))
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
        ordering=rng.choice(["fifo", "causal", "total"]),
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
    "LeafTarget": lambda rng: LeafTarget(
        f"leaf{rng.randint(0, 9)}", _address(rng), rng.randint(1, 8)
    ),
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


def test_level_tagged_hierarchy_payloads_round_trip():
    """The recursive-hierarchy fields (wire v2): levels, branch paths,
    load-rate samples and explicit attach points survive the wire with
    non-default values."""
    from repro.core.hierarchy import MergeCmd, SplitCmd
    from repro.core.leader import (
        GetHierarchyInfo,
        MergeDirective,
        ReportLeafStatus,
        SplitDirective,
    )
    from repro.core.views import AddLeaf, UpdateLeaf

    payloads = [
        SplitDirective(
            service="svc", leaf_id="leaf-a", new_leaf_id="leaf-b",
            new_group="svc::leaf-b", level=3,
            parent_path=("branch-root", "svc/b2", "svc/b7"),
        ),
        MergeDirective(
            service="svc", leaf_id="leaf-a", target_group="svc::leaf-c",
            target_contacts=("svc-w-0", "svc-w-1"), level=4,
            target_path=("branch-root", "svc/b1"),
        ),
        SplitCmd(
            new_leaf_id="leaf-b", new_group="svc::leaf-b",
            movers=("svc-w-2",), level=3,
            parent_path=("branch-root", "svc/b2"),
        ),
        MergeCmd(
            target_group="svc::leaf-c", target_contacts=("svc-w-0",),
            level=2, target_path=("branch-root",),
        ),
        ReportLeafStatus(
            service="svc", leaf_id="leaf-a", size=9,
            contacts=("svc-w-0",), level=3,
            path=("branch-root", "svc/b2"),
            delivery_rate=41.5,
        ),
        AddLeaf(
            leaf_id="leaf-b", size=4, contacts=("svc-w-2",),
            under="svc/b2",
        ),
        UpdateLeaf(
            leaf_id="leaf-a", size=9, contacts=("svc-w-0",),
            delivery_rate=33.0,
        ),
        GetHierarchyInfo(service="svc", subtree="svc/b2"),
    ]
    for original in payloads:
        decoded = _round_trip(original)
        assert decoded == original, f"{type(original).__name__} diverged"


def test_cohort_set_and_tree_replies_round_trip():
    """Wire v5: the cohort set rides on the request path (view seq on the
    request, seq + set on a correcting reply and on the GetMembers reply)
    and the GetHierarchyInfo reply carries the branch tree routers walk.
    Wire v9: a declared read is a CCRead, and its hedge the same CCRead
    sent to the next rank."""
    from repro.core import HierarchyState, LargeGroupParams
    from repro.core.views import AddLeaf
    from repro.proc.rpc import RpcReply
    from repro.toolkit import CCRead, CCReply, CCRequest

    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=2))
    for i in range(5):
        state.apply(AddLeaf(f"leaf-{i}", 4, (f"w-{i}a", f"w-{i}b")))
    info = dict(state.summary(), reorg_epoch=5)
    assert len(info["tree"]) > 1  # deeper than the root alone
    payloads = [
        CCRequest(
            group="svc::leaf-0", request_id="client/cc8",
            payload={"op": "put", "key": "k", "value": 1}, client="client",
            view_seq=7,
        ),
        CCRead(
            group="svc::leaf-0", request_id="client/cc9",
            payload={"op": "get", "key": "k"}, client="client", view_seq=7,
        ),
        CCReply(
            request_id="client/cc9", result=("value", 1), view_seq=8,
            cohorts=("w-0b", "w-0c", "w-0d"),
        ),
        RpcReply(request_id="client#3", value=(8, ("w-0b", "w-0c"), ("w-0d",))),
        RpcReply(request_id="client#4", value=info),
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
            ordering="total", payload={"op": "put"}, global_seq=global_seq,
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
    rng = SimRandom(7)
    envelopes = [
        Envelope(
            _address(rng),
            _address(rng),
            _instance(rng, registered_kinds()[10]),  # GroupData
            send_time=rng.uniform(0, 10),
            deliver_time=rng.uniform(0, 10),
            size_bytes=rng.randint(1, 4096),
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
        assert copy.send_time == original.send_time
        assert copy.deliver_time == original.deliver_time
        assert copy.size_bytes == original.size_bytes
        assert copy.payload == original.payload


def test_oversized_batch_splits_into_frames():
    big = "x" * 9000
    envelopes = [
        Envelope("a", "b", big, send_time=0.0, deliver_time=0.0)
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
        Envelope("a", "b", "fine", send_time=0.0, deliver_time=0.0),
        Envelope("a", "b", Alien(), send_time=0.0, deliver_time=0.0),
        Envelope("a", "b", "x" * 70000, send_time=0.0, deliver_time=0.0),
        Envelope("a", "b", "also fine", send_time=0.0, deliver_time=0.0),
    ]
    frames, rejects = encode_data_frames(envelopes)
    assert len(rejects) == 2
    decoded = [e for f in frames for e in decode_frame(f)[1]]
    assert [e.payload for e in decoded] == ["fine", "also fine"]


# -- rejection properties -----------------------------------------------------


def test_truncated_frames_raise_codec_error_only():
    frame = encode_control_frame({"k": [1, 2.5, "three", None]})
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_frame(frame[:cut])


def test_corrupted_frames_never_raise_anything_else():
    rng = SimRandom(99)
    frame = bytearray(
        encode_control_frame(
            {"view": _group_view(rng), "clock": _vector_clock(rng)}
        )
    )
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
    good = encode_control_frame(1)
    with pytest.raises(CodecError):
        decode_frame(b"XX" + good[2:])
    # Skew in either direction: a newer peer, and a v3 peer whose
    # ReportLeafStatus / UpdateLeaf still carry a request-rate field.
    for version in (WIRE_VERSION + 1, WIRE_VERSION - 1):
        skewed = bytes([good[0], good[1], version]) + good[3:]
        with pytest.raises(CodecError):
            decode_frame(skewed)
    with pytest.raises(CodecError):
        decode_frame(good[:3] + b"\x07" + good[4:])  # unknown frame kind
    with pytest.raises(CodecError):
        decode_frame(good + b"\x00")  # length mismatch
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
                [Envelope("a", "b", "ok", send_time=0.0, deliver_time=0.0)]
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
    assert 11 not in kinds  # the sequencer's order message, retired in v12
    assert kinds[64].__name__ == "NodeRegister"
    assert 90 not in kinds  # ResolvePlacement, retired in v5: never reused
    assert kinds[32].__name__ == "Heartbeat"
    assert 33 not in kinds  # HeartbeatAck, retired in v7: never reused
    assert (kinds[34].__name__, kinds[35].__name__) == ("Subscribe", "Unsubscribe")
    assert kinds[36].__name__ == "Probe"
    assert kinds[70].__name__ == "CCRequest"
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
    # is refused at the header.
    assert WIRE_VERSION == 12


def test_a_gap_report_round_trips():
    from repro.transport.channel import SegmentAck

    for ack in (
        SegmentAck(cum_seq=41, incarnation=2, epoch=3, high=57),
        SegmentAck(cum_seq=0),  # no gap: high stays 0
    ):
        kind, value = decode_frame(encode_control_frame(ack))
        assert (kind, value) == (FRAME_CONTROL, ack)
    envelope = Envelope(
        "a", "b", SegmentAck(cum_seq=7, high=9), send_time=1.0, deliver_time=1.5
    )
    frames, rejects = encode_data_frames([envelope])
    assert not rejects
    (decoded,) = decode_frame(frames[0])[1]
    assert decoded.payload == SegmentAck(cum_seq=7, high=9)


def test_a_v9_segment_ack_is_refused_at_the_header():
    """A v9 peer's ack has three fields.  Its frame is turned away by the
    version byte; were the header skipped, the field count would refuse
    it again rather than build an ack with a made-up ``high``."""
    from repro.net.wire.codec import HEADER_BYTES
    from repro.transport.channel import SegmentAck

    frame = bytearray(encode_control_frame(SegmentAck(cum_seq=5, epoch=1)))
    # The body: tag KIND, kind id 2, 4 fields, then cum_seq, incarnation,
    # epoch and high (0: tag INT, zigzag 0) — drop the last field.
    assert frame[HEADER_BYTES:HEADER_BYTES + 3] == bytes([10, 2, 4])
    assert frame[-2:] == bytes([3, 0])
    v9 = frame[:HEADER_BYTES] + bytes([10, 2, 3]) + frame[HEADER_BYTES + 3:-2]
    v9[4:HEADER_BYTES] = (len(v9) - HEADER_BYTES).to_bytes(4, "big")
    v9[2] = 9
    with pytest.raises(CodecError, match="version"):
        decode_frame(bytes(v9))
    v9[2] = WIRE_VERSION
    with pytest.raises(CodecError, match="got 3 fields, expected 4"):
        decode_frame(bytes(v9))


def test_a_v6_heartbeat_ack_is_refused_by_version_not_by_kind():
    """What a v6 peer still sends: kind 33, empty field list.  The frame
    is turned away at the header — nothing looks the kind up, so nothing
    can mistake it for whatever v7 or later puts near that id."""
    from repro.failure.detector import Subscribe

    frame = bytearray(encode_control_frame(Subscribe()))
    assert frame[2] == WIRE_VERSION and frame.count(34) == 1
    frame[frame.index(34)] = 33
    with pytest.raises(CodecError, match="unknown wire kind id 33"):
        decode_frame(bytes(frame))
    frame[2] = 6
    with pytest.raises(CodecError, match="version"):
        decode_frame(bytes(frame))


def test_a_probe_round_trips_and_a_v10_frame_is_refused():
    """Wire v11: a Probe is kind 36 with no fields, alone in a control
    frame or inside a data frame.  A v10 peer knows no kind 36: a frame
    stamped v10 is turned away at the header, whatever it carries."""
    from repro.failure.detector import Probe
    from repro.net.wire.codec import HEADER_BYTES

    frame = bytearray(encode_control_frame(Probe()))
    assert decode_frame(bytes(frame)) == (FRAME_CONTROL, Probe())
    assert frame[HEADER_BYTES:] == bytes([10, 36, 0])  # tag KIND, id 36, 0 fields
    envelope = Envelope("g-1", "g-0", Probe(), send_time=1.0, deliver_time=1.002)
    frames, rejects = encode_data_frames([envelope])
    assert not rejects
    (decoded,) = decode_frame(frames[0])[1]
    assert decoded.payload == Probe()
    frame[2] = 10
    with pytest.raises(CodecError, match="version"):
        decode_frame(bytes(frame))


def test_kind_11_is_unused_and_a_v11_frame_is_refused():
    """Wire v12: a v11 peer still sends the sequencer's order for another
    member's abcast as kind 11 and expects no relayed copy.  Its frame is
    turned away at the header; were the header skipped, kind 11 is
    unknown."""
    from repro.membership import GroupData
    from repro.net.wire.codec import HEADER_BYTES

    data = GroupData(group="g", view_seq=3, sender="g-4", sender_seq=1,
                     ordering="total", payload=None, global_seq=7)
    frame = bytearray(encode_control_frame(data))
    assert decode_frame(bytes(frame)) == (FRAME_CONTROL, data)
    assert frame[HEADER_BYTES:HEADER_BYTES + 2] == bytes([10, 10])  # tag KIND, id 10
    frame[HEADER_BYTES + 1] = 11
    with pytest.raises(CodecError, match="unknown wire kind id 11"):
        decode_frame(bytes(frame))
    frame[2] = 11
    with pytest.raises(CodecError, match="version"):
        decode_frame(bytes(frame))
