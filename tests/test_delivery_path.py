"""The delivery path keeps only what a delivery needs.

A put is abcast to its leaf and delivered at every member, so the host
cost of a write is the cost of one delivery times the leaf's size.  These
tests pin what that path must not pay for (docs/simulator.md,
"Allocation discipline"): a table that stays sized for a burst once the
burst is stable, a call that does no work, and the behaviour that each
shortcut must keep bit for bit — the jitter draw every trajectory
depends on, the transport's in-order fast path, and a multicast that
crosses the network in one call.
"""

import gc
import random
import sys
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
import pytest

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.membership import GroupNode, build_group
from repro.membership.events import TOTAL
from repro.net import HEADER_BYTES, FixedLatency, HandlerTable, LanLatency, Network
from repro.proc import Environment
from repro.sim import Scheduler
from repro.sim.rand import SimRandom
from repro.toolkit import PartitionedStoreClient, PartitionedStoreServer, ReplicatedDict
from repro.transport import ReceiveState, Segment

LEAF = 16  # the e2e store's leaf size


def leaf(seed=1):
    env = Environment(seed=seed, latency=LanLatency())
    nodes, members = build_group(env, "leaf", LEAF)
    return env, nodes, members, [ReplicatedDict(m) for m in members]


# -- emptied tables are given back ----------------------------------------------


def test_a_drained_burst_leaves_no_table_sized_for_it():
    """300 puts from the coordinator in one burst, then a drain: every
    member has delivered all of them and the stability plane has
    announced it, so the abcast order history is empty, and so is every
    channel's unacked table but for a gossip report whose ack is still
    held.  An empty table holds no more memory than a new dict (before
    the tables were rebuilt on emptying, both kept 9,304 bytes here)."""
    env, nodes, members, dicts = leaf()
    for i in range(300):
        dicts[0].put(i, i)
    env.run_for(3.0)
    assert all(len(d) == 300 for d in dicts)
    empty = sys.getsizeof({})
    for member in members:
        history = member._engines[TOTAL]._history
        assert not history and sys.getsizeof(history) == empty
    states = [s for node in nodes for s in node.runtime.transport._send.values()]
    emptied = [s.unacked for s in states if not s.unacked]
    assert len(emptied) >= len(states) - LEAF
    assert all(sys.getsizeof(table) == empty for table in emptied)


# -- the jitter draw is bit-identical ---------------------------------------------


class Sized:
    """A datagram whose size is its own (read per send)."""

    category = "sized"

    def __init__(self, k, size):
        self.k = k
        self._size = size

    @property
    def size_bytes(self):
        return self._size


@pytest.mark.parametrize("jitter", [0.2, 0.05, 0.0])
def test_the_jitter_draw_is_random_uniform_float_for_float(jitter):
    """``LanLatency.sample`` spells ``random.uniform`` out; over 10,000
    draws each delay is the float ``uniform`` gives, and a zero jitter
    returns the nominal delay and draws nothing.  The network draws the
    same delays inline: 2,000 datagrams of mixed sizes sent at 0 are
    delivered at the times ``sample`` gives on a twin stream, float for
    float, and the two streams end in step."""
    seed = 20_240_857
    lan = LanLatency(jitter=jitter)
    ours, reference = SimRandom(seed), random.Random(seed)
    for k in range(10_000):
        size = (k * 37) % 1_500
        nominal = lan.base + lan.per_byte * size
        expected = nominal * reference.uniform(1.0 - jitter, 1.0 + jitter) if jitter else nominal
        assert lan.sample(ours, "a", "b", size).hex() == expected.hex()
    assert ours.random() == reference.random()  # the streams stayed in step

    scheduler, rng, twin = Scheduler(), SimRandom(seed), SimRandom(seed)
    network = Network(scheduler, rng, latency=lan)
    arrivals = {}
    network.register("b", HandlerTable(SimpleNamespace(
        unhandled=lambda payload, _src: arrivals.__setitem__(payload.k, scheduler.now)
    )))
    expected = []
    for k in range(2_000):
        size = (k * 37) % 1_500
        network.send("a", "b", Sized(k, size))
        expected.append(lan.sample(twin, "a", "b", size + HEADER_BYTES).hex())
    scheduler.run()
    assert [arrivals[k].hex() for k in range(2_000)] == expected
    assert rng.random() == twin.random()


# -- the transport's fast path against the old accept ----------------------------------


def reference_accept(state, segment):
    """``ReceiveState.accept`` before its in-order fast path."""
    if segment.seq < state.expected:
        return []
    state.out_of_order.setdefault(segment.seq, segment.payload)
    ready = []
    while state.expected in state.out_of_order:
        ready.append(state.out_of_order.pop(state.expected))
        state.expected += 1
    return ready


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=24), max_size=80))
def test_accept_agrees_with_the_old_accept_on_any_arrival_order(arrivals):
    """Arrivals with duplicates and gaps; a payload names its arrival, so
    which copy of a duplicate is kept is compared too."""
    ours, reference = ReceiveState(), ReceiveState()
    for index, seq in enumerate(arrivals):
        segment = Segment(seq, (seq, index))
        assert list(ours.accept(segment)) == reference_accept(reference, segment)
        assert (ours.expected, ours.out_of_order, ours.high) == (
            reference.expected, reference.out_of_order, reference.high,
        )


# -- a fan-out is its unicast sends ---------------------------------------------------


class Ping:
    category = "ping"
    size_bytes = 40

    def __init__(self, n):
        self.n = n


def network_run(latency, fan_out):
    """Twenty rounds from ``src`` to eight peers, two of them partitioned
    away, on a lossy, duplicating network with a tap attached: each round
    one payload to all, then one segment each, every other one carrying
    an ack (so their sizes differ).  ``fan_out`` sends each round as two
    calls, else as one send per destination."""
    scheduler = Scheduler()
    rng = SimRandom(20_240_859)
    network = Network(
        scheduler, rng, latency=latency,
        drop_probability=0.2, duplicate_probability=0.2,
    )
    dsts = tuple(f"m{i}" for i in range(8))
    arrivals = []
    for address in ("src",) + dsts:
        network.register(address, HandlerTable(SimpleNamespace(
            unhandled=lambda _payload, _src, dst=address: arrivals.append((dst, scheduler.now))
        )))
    events = []
    network.add_tap(lambda kind, env: events.append(
        (kind, env.src, env.dst, scheduler.now)
    ))
    network.partitions.partition(("m3", "m5"))
    for n in range(20):
        payload = Ping(n)
        segments = [Segment(i, payload) for i in range(len(dsts))]
        for segment in segments[::2]:
            segment.carry_ack(n, 0)
        if fan_out:
            network.multicast("src", dsts, payload)
            network.send_each("src", dsts, segments[0], segments)
        else:
            for dst in dsts:
                network.send("src", dst, payload)
            for dst, segment in zip(dsts, segments):
                network.send("src", dst, segment)
        scheduler.run_for(0.0007)
    scheduler.run()
    return network.stats.snapshot(), events, arrivals, rng._rng.getstate()


@pytest.mark.parametrize(
    "latency", [FixedLatency(0.001), LanLatency()], ids=["fixed", "lan"]
)
def test_a_fan_out_leaves_the_network_where_its_unicast_sends_do(latency):
    """The same stats, tap events in the same order, the same (dst,
    deliver time) sequence and the same random stream afterwards; and the
    run is not vacuous: something was partitioned, lost and duplicated."""
    fan_out = network_run(latency, fan_out=True)
    assert fan_out == network_run(latency, fan_out=False)
    stats, events, arrivals, _state = fan_out
    assert stats.messages == 20 * 16 and stats.by_category["ping"] == 20 * 16
    drops = sum(kind == "drop" for kind, *_ in events)
    assert drops == stats.dropped > 20 * 4  # the partition's, and the losses
    assert len(arrivals) > stats.messages - stats.dropped  # duplicates


def test_a_raising_tap_leaves_the_counts_of_the_sends_it_saw():
    """A send tap that raises on a multicast's second copy stops the
    fan-out there, and the stats count the two copies it saw, as two
    unicast sends would have."""
    network = Network(Scheduler(), SimRandom(1))
    seen = []

    def tap(_kind, envelope):
        seen.append(envelope.dst)
        if len(seen) == 2:
            raise RuntimeError("tap")

    network.add_tap(tap, ("send",))
    with pytest.raises(RuntimeError):
        network.multicast("src", ("a", "b", "c"), Ping(0))
    stats = network.stats
    assert seen == ["a", "b"]
    assert stats.messages == stats.by_category["ping"] == 2
    assert stats.wire_packets == 2


class Pong:
    category = "pong"
    size_bytes = 100


def test_the_derived_counts_are_the_sends():
    """``messages``, ``bytes`` and ``wire_packets`` are read from the two
    per-category tallies (and hardware multicast's shared packets): a
    scripted run of unicasts, a fan-out, a drop, a duplicate, a
    partitioned destination and a hardware multicast with one
    destination cut off reads the hand-counted values, in ``snapshot()``
    and in ``since()`` alike.  A ping is 40 + 64 bytes, a pong 100 + 64."""
    scheduler = Scheduler()
    network = Network(scheduler, SimRandom(3))
    arrivals = []
    for address in "abcd":
        network.register(address, HandlerTable(SimpleNamespace(
            unhandled=lambda _payload, _src, dst=address: arrivals.append(dst)
        )))
    network.send("a", "b", Ping(0))
    network.send("a", "gone", Pong())  # dropped at delivery: no endpoint
    network.multicast("a", ("b", "c", "d"), Ping(1))  # three packets
    scheduler.run()
    before = network.stats.snapshot()
    network.duplicate_probability = 0.9
    network.send("a", "c", Pong())  # one message, delivered twice
    network.duplicate_probability = 0.0
    network.partitions.partition(("d",))
    network.send("a", "d", Ping(2))  # dropped at send, still one packet
    network.hardware_multicast = True
    network.multicast("a", ("b", "c", "d"), Pong())  # one shared packet
    scheduler.run()
    assert arrivals == ["b", "b", "c", "d", "c", "c", "b", "c"]

    expected = dict(
        messages=10, bytes=5 * 104 + 5 * 164, wire_packets=7 + 1, dropped=3,
        by_category={"ping": 5, "pong": 5},
        bytes_by_category={"ping": 5 * 104, "pong": 5 * 164},
    )
    for stats in (network.stats, network.stats.snapshot()):
        assert {key: getattr(stats, key) for key in expected} == expected
    expected = dict(
        messages=5, bytes=104 + 4 * 164, wire_packets=3, dropped=2,
        by_category={"ping": 1, "pong": 4},
        bytes_by_category={"ping": 104, "pong": 4 * 164},
    )
    since = network.stats.since(before)
    assert {key: getattr(since, key) for key in expected} == expected


# -- a call-count ceiling -------------------------------------------------------------

CALL_CEILING = 58_000


def count_calls(run):
    """Every Python call ``run()`` makes (generator resumes included),
    ``run`` itself counted, under ``sys.setprofile``, with the collector
    off so that no ``gc.callbacks`` hook is counted."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_a_delivered_put_costs_at_most_its_pinned_python_calls():
    """200 puts from a 16-member leaf's coordinator, run 1 s: a ceiling
    of 58,000 calls, 18.13 per delivered put (55,641 made).  Host time
    cannot gate this path, an exact count can.  Before the delivery path
    was trimmed it made 126,131 (39.42 per delivered put), 91,504 (28.59)
    while same-instant deliveries still shared a bucket, 88,489 (27.65)
    while each copy of a multicast crossed the transport, the process and
    the network on its own, 68,257 (21.33) while every delivery passed
    through a dispatch frame of the process's, and 65,018 (20.32) while
    each delivery was a pooled event, each latency draw a ``sample``
    frame and each group delivery a ``DeliveryEvent`` built for the
    listeners."""
    env, _nodes, _members, dicts = leaf()
    env.run_for(0.5)

    def puts():
        for i in range(200):
            dicts[0].put(i, i)
        env.run_for(1.0)

    calls = count_calls(puts)
    delivered = sum(d.commands_applied for d in dicts)
    assert delivered == 200 * LEAF
    assert calls <= CALL_CEILING, f"{calls} calls, {calls / delivered:.2f} per delivered put"


BACKGROUND_CEILING = 5_100


def test_idle_background_costs_at_most_its_pinned_python_calls():
    """A 64-worker heartbeat hierarchy (the guard's ``hier_steady``
    build), idle for 2 logical seconds after 6 s of set-up: heartbeat
    pushes, their deliveries, detector ticks and gossip ticks with
    nothing to gossip, and nothing else.  A ceiling of 5,100 calls
    (4,869 made) over exactly 1,664 events and 726 messages.  It made
    10,519 while each periodic tick passed through a timer frame and a
    re-arm call, each delivery through the process's dispatch frame, each
    clock read through a property, and each idle gossip tick through the
    stability tracker's take."""
    from tools.perf_report import _build_hier

    env = _build_hier(64, seed=1, join_stagger=0.02)
    env.run_for(6.0)
    events = env.scheduler.events_processed
    messages = env.network.stats.messages
    calls = count_calls(lambda: env.run_for(2.0))
    assert env.scheduler.events_processed - events == 1_664
    assert env.network.stats.messages - messages == 726
    assert calls <= BACKGROUND_CEILING, f"{calls} calls"


GET_CEILING = 7_800
GETS = 200


def test_a_routed_get_costs_at_most_its_pinned_python_calls():
    """200 gets through a ``PartitionedStoreClient`` whose router holds
    the tree, on a 12-worker store, run 0.5 s: a ceiling of 7,800 calls
    (7,511 made, 37.56 a get, the store's background included).  Each layer of the get path
    is one frame and builds only what travels or is kept.  Before that it
    made 9,721 (48.6 a get), while each call armed a ``Timer`` through a
    closure and each reply cancelled it through two more frames, the
    router placed a key through a callback and two more calls, the store
    and the key router built four closures a get, and the server's reply
    and the client's finish were frames of their own."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", 12, params, contacts)
    for member in members:
        PartitionedStoreServer(member)
    env.run_for(5.0 + 0.3 * 12)
    node = GroupNode(env, "store-client")
    client = PartitionedStoreClient(node, node.runtime.rpc, contacts, "svc")
    acked = []
    for i in range(8):
        client.put(f"k{i}", i, acked.append)
    env.run_for(0.5)
    for i in range(80):  # enough clean replies to arm hedges, as under load
        client.get(f"k{i % 8}", acked.append)
    env.run_for(0.5)
    assert acked == [True] * 8 + [i % 8 for i in range(80)]
    router = client.router
    lookups, hits = router.placement_lookups, router.placement_hits

    values = []

    def gets():
        for i in range(GETS):
            client.get(f"k{i % 8}", values.append)
        env.run_for(0.5)

    calls = count_calls(gets)
    assert values == [i % 8 for i in range(GETS)]
    assert (router.placement_lookups, router.placement_hits) == (lookups, hits + GETS)
    assert calls <= GET_CEILING, f"{calls} calls, {calls / GETS:.2f} per get"
