"""What is always on below the protocols (docs/comms.md): cumulative
delayed acks in the reliable transport, per-category byte accounting
and hardware-multicast wire counting.

The ack contract under test: every received segment is acknowledged
exactly once — riding a reverse segment, absorbed into a cumulative
standalone ack, or standalone after ``rto / 5`` of reverse idleness —
and nothing short of a reboot discards a pending ack."""

from dataclasses import dataclass

import pytest

from repro.membership import FIFO, TOTAL, build_group
from repro.metrics.sanitizer import install_sanitizer
from repro.net import FixedLatency, Network
from repro.net.message import HEADER_BYTES
from repro.proc import Environment, Process
from repro.runtime import AsyncioRuntime
from repro.sim import Scheduler, SimRandom
from repro.transport import ReliableTransport

LATENCY = 0.005


@dataclass
class App:
    category = "app"
    size_bytes = 32
    n: int = 0


@dataclass
class Ping:
    category = "ping"
    size_bytes = 32
    n: int = 0


def make_net(**kwargs):
    sched = Scheduler()
    net = Network(sched, SimRandom(1), **kwargs)
    return sched, net


def collector(inbox):
    return lambda env: inbox.append((env.payload, env.src, env.deliver_time))


def sends(env, category):
    """Record (time, src, dst) of every ``category`` datagram sent from
    now on."""
    log = []

    def tap(_event, envelope):
        if envelope.category == category:
            log.append((env.now, envelope.src, envelope.dst))

    env.network.add_tap(tap, events=("send",))
    return log


# ----------------------------------------------------------- delayed acks


class Peer(Process):
    def __init__(self, env, address, rto=0.05):
        super().__init__(env, address)
        self.transport = ReliableTransport(self, rto=rto)
        self.inbox = []
        self.on(App, lambda m, s: self.inbox.append((m.n, s)))

    def quiet(self):
        """Nothing unacked, no sweep armed, no ack held back."""
        t = self.transport
        return (
            not any(state.unacked for state in t._send.values())
            and t._sweep_timer is None
            and not t._ack_timers
            and not t._ack_pending
        )


def make_transport_pair(seed=1, rto=0.05, **env_kwargs):
    env = Environment(seed=seed, latency=FixedLatency(LATENCY), **env_kwargs)
    return env, Peer(env, "a", rto), Peer(env, "b", rto)


def test_ack_delay_must_stay_below_rto():
    # The delay is derived (rto / 5), not set, so it cannot reach rto.
    for rto in (0.02, 0.05, 0.2):
        env, a, b = make_transport_pair(rto=rto)
        acks = sends(env, "transport-ack")
        a.transport.send("b", App(1))
        env.run_for(2 * rto)
        assert acks == [(pytest.approx(LATENCY + rto / 5), "b", "a")]
        assert acks[0][0] - LATENCY < rto


def test_idle_reverse_path_falls_back_to_standalone_ack():
    env, a, b = make_transport_pair()
    a.transport.send("b", App(1))
    env.run_for(0.012)  # delivered, but the ack is still being held back
    assert b.inbox == [(1, "a")]
    assert env.network.stats.by_category["transport-ack"] == 0
    env.run_for(0.1)  # the idle fallback timer fired
    assert env.network.stats.by_category["transport-ack"] == 1
    assert a.transport.unacked_count("b") == 0


def test_ack_rides_on_reverse_segment():
    env, a, b = make_transport_pair()
    a.transport.send("b", App(1))
    # b answers within the ack window: its segment carries the ack.
    env.scheduler.after(0.01, lambda: b.transport.send("a", App(2)))
    env.run_for(0.5)
    assert b.inbox == [(1, "a")] and a.inbox == [(2, "b")]
    stats = env.network.stats
    assert stats.acks_piggybacked == 1
    # The only standalone ack is a's (nothing flowed a->b afterwards).
    assert stats.by_category["transport-ack"] == 1
    assert a.transport.unacked_count("b") == 0
    assert b.transport.unacked_count("a") == 0


def test_one_cumulative_ack_covers_a_burst():
    env, a, b = make_transport_pair()
    for i in range(10):
        a.transport.send("b", App(i))
    env.run_for(1.0)
    assert [n for n, _ in b.inbox] == list(range(10))
    stats = env.network.stats
    # All ten segments arrived inside one ack window: one standalone
    # cumulative ack absorbed the other nine.
    assert stats.by_category["transport-ack"] == 1
    assert stats.acks_piggybacked == 9
    assert a.transport.unacked_count("b") == 0


def test_delayed_acks_never_provoke_retransmission():
    env, a, b = make_transport_pair()
    for i in range(20):
        env.scheduler.after(0.02 * i, lambda i=i: a.transport.send("b", App(i)))
    env.run_for(3.0)
    assert [n for n, _ in b.inbox] == list(range(20))
    # Clean network + ack delay << rto: every segment crossed exactly once.
    assert env.network.stats.by_category["app"] == 20


def test_pending_ack_dies_with_a_crashed_receiver():
    env, a, b = make_transport_pair()
    a.transport.send("b", App(1))
    env.scheduler.after(0.007, b.crash)  # after delivery, before the ack
    env.run_for(0.2)
    assert b.inbox == [(1, "a")]
    # The armed fallback timer fired into a dead process: no ack escaped.
    assert env.network.stats.by_category["transport-ack"] == 0


def test_lossy_duplicating_link_delivers_exactly_once_and_goes_quiet():
    env, a, b = make_transport_pair(
        seed=3, drop_probability=0.05, duplicate_probability=0.05
    )
    for i in range(200):
        env.scheduler.after(0.003 * i, lambda i=i: a.transport.send("b", App(i)))
        env.scheduler.after(
            0.004 * i, lambda i=i: b.transport.send("a", App(1000 + i))
        )
    env.run_for(5.0)
    assert env.network.stats.dropped > 0
    assert b.inbox == [(i, "a") for i in range(200)]
    assert a.inbox == [(1000 + i, "b") for i in range(200)]
    assert a.transport.unacked_count("b") == 0
    assert b.transport.unacked_count("a") == 0
    assert a.quiet() and b.quiet()


@pytest.mark.parametrize("rto", [0.02, 0.05, 0.2])
def test_lossless_link_acks_ride_or_go_out_once_per_burst(rto):
    # While segments flow both ways within rto / 5 of each other every
    # ack rides; only the last segment of the exchange has nothing to
    # ride on.
    env, a, b = make_transport_pair(rto=rto)
    a.on(Ping, lambda m, s: m.n < 50 and a.transport.send(s, Ping(m.n + 1)))
    b.on(Ping, lambda m, s: b.transport.send(s, Ping(m.n + 1)))
    a.transport.send("b", Ping(0))
    env.run_for(52 * LATENCY + 2 * rto)
    stats = env.network.stats
    assert stats.by_category["ping"] == 52  # 0 retransmissions
    assert stats.acks_piggybacked == 51
    assert stats.by_category["transport-ack"] == 1
    assert a.quiet() and b.quiet()

    # One-way bursts with an idle reverse path: one standalone
    # cumulative ack per burst, whatever the burst size.
    env, a, b = make_transport_pair(rto=rto)
    for burst in range(8):
        def fire(burst=burst):
            for i in range(5):
                a.transport.send("b", App(5 * burst + i))
        env.scheduler.after(2 * rto * burst, fire)
    env.run_for(2 * rto * 8 + 2 * rto)
    stats = env.network.stats
    assert [n for n, _ in b.inbox] == list(range(40))
    assert stats.by_category["app"] == 40  # 0 retransmissions
    assert stats.by_category["transport-ack"] == 8
    assert stats.acks_piggybacked == 32
    assert a.quiet() and b.quiet()


def abcast_leaf(sender_rank):
    """kv_write in the small: 100 ABCASTs from one member of a 16-member
    leaf, 20 ms apart.  Gossip is off so that every ack in the count
    answers a data or set-order segment."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    _nodes, members = build_group(env, "g", 16, gossip_interval=None)
    sanitizer = install_sanitizer(members, strict=True)
    got = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(lambda e, me=m.me: got[me].append(e.payload.n))
    for i in range(100):
        env.scheduler.after(
            0.02 * (i + 1),
            lambda i=i: members[sender_rank].multicast(App(i), TOTAL),
        )
    env.run_for(3.0)
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
    assert all(seen == list(range(100)) for seen in got.values())
    return env.network.stats


def test_abcast_leaf_draws_one_standalone_ack_per_message_per_receiver():
    # From the sequencer the data carries its own order: one segment per
    # receiver per message, and one ack each (the reverse path is idle).
    stats = abcast_leaf(sender_rank=0)
    assert stats.by_category["group-data"] == 100 * 15
    assert stats.by_category["group-setorder"] == 0
    assert stats.by_category["transport-ack"] == 100 * 15
    assert stats.acks_piggybacked == 0
    # From anyone else the sequencer's set-order round follows the data.
    # A receiver owes the sender and the sequencer an ack each; only the
    # sequencer's own, for the data, has a segment (the set-order it
    # multicasts on receipt) to ride on.
    stats = abcast_leaf(sender_rank=5)
    assert stats.by_category["group-data"] == 100 * 15
    assert stats.by_category["group-setorder"] == 100 * 15
    assert stats.acks_piggybacked == 100
    assert stats.by_category["transport-ack"] + stats.acks_piggybacked == 2 * 100 * 15


def test_member_removed_by_a_view_still_gets_its_ack():
    # g-3 is alive but falsely suspected, and multicasts just as the
    # view that removes it is being agreed.  The others install that
    # view — abandoning their channels to g-3 — while still holding the
    # ack for its segment; dropping it would leave a live process
    # retransmitting to peers that will never answer.
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 4, gossip_interval=None)
    data = sends(env, "group-data")
    held_at_install = []
    for node, member in zip(nodes[:3], members[:3]):
        member.add_view_listener(
            lambda _event, t=node.runtime.transport: held_at_install.append(
                "g-3" in t._ack_pending
            )
        )

    def suspect():
        for member in members[:3]:
            member._on_suspect("g-3")

    env.scheduler.after(0.499, suspect)
    env.scheduler.after(0.5, lambda: members[3].multicast(App(1), FIFO))
    env.run_for(2.0)
    assert [m.view.members for m in members[:3]] == [("g-0", "g-1", "g-2")] * 3
    assert any(held_at_install)
    assert all(
        nodes[3].runtime.transport.unacked_count(f"g-{i}") == 0 for i in range(3)
    )
    # One transmission per peer: every ack arrived before the first sweep.
    assert sorted(dst for _t, src, dst in data if src == "g-3") == [
        "g-0", "g-1", "g-2",
    ]


# ------------------------------------------- stats breakdown & accounting


def test_bytes_by_category_breakdown():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.send("a", "b", Ping())
    net.send("a", "b", App())
    sched.run()
    stats = net.stats.snapshot()
    assert stats.bytes_by_category["ping"] == 2 * (32 + HEADER_BYTES)
    assert stats.bytes_by_category["app"] == 32 + HEADER_BYTES
    assert sum(stats.bytes_by_category.values()) == stats.bytes


# ---------------------------------------- hardware-multicast wire counting


def test_hardware_multicast_fully_partitioned_never_hits_the_wire():
    sched, net = make_net(hardware_multicast=True)
    net.register("a", collector([]))
    for name in "bcd":
        net.register(name, collector([]))
    net.partitions.partition({"a"}, {"b", "c", "d"})
    net.multicast("a", ["b", "c", "d"], Ping())
    sched.run()
    assert net.stats.messages == 3  # logical sends still counted...
    assert net.stats.dropped == 3
    assert net.stats.wire_packets == 0  # ...but no packet ever left a


def test_hardware_multicast_partial_partition_costs_one_packet():
    sched, net = make_net(hardware_multicast=True)
    box_b = []
    net.register("a", collector([]))
    net.register("b", collector(box_b))
    net.register("c", collector([]))
    net.register("d", collector([]))
    net.partitions.partition({"a", "b"}, {"c", "d"})
    net.multicast("a", ["b", "c", "d"], Ping())
    sched.run()
    assert len(box_b) == 1
    assert net.stats.dropped == 2
    assert net.stats.wire_packets == 1


# ----------------------------------- end-to-end: logical identity, parity


def run_flat_group(seed=7, runtime=None):
    env = Environment(
        latency=FixedLatency(0.002),
        **({"runtime": runtime} if runtime is not None else {"seed": seed}),
    )
    _nodes, members = build_group(env, "g", 4)
    sanitizer = install_sanitizer(members)
    logs = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(
            lambda e, me=m.me: logs[me].append((e.sender, e.payload))
        )
    traffic = [
        (0.10, members[0], ("f0", "f1", "f2")),
        (0.15, members[1], ("c0", "c1")),
        (0.20, members[2], ("t0", "t1")),
        (0.25, members[3], ("g0", "g1")),
    ]
    for start, member, payloads in traffic:
        def burst(member=member, payloads=payloads):
            for payload in payloads:
                member.multicast(payload, FIFO)
        env.scheduler.after(start, burst)
    # Past the coordinator's floor announcement (it leaves at 2.0 s, one
    # gossip interval after the reports) and the acks that answer it.
    env.run_for(2.5)
    counters = sanitizer.check(at_quiescence=True)
    per_sender = {
        me: {
            sender: [p for s, p in log if s == sender]
            for sender in {s for s, _ in log}
        }
        for me, log in logs.items()
    }
    return env.network.stats.snapshot(), per_sender, counters


def test_delayed_acks_preserve_logical_traffic():
    stats, seqs, counters = run_flat_group()
    assert counters["violations"] == 0
    for seqs_at in seqs.values():
        assert seqs_at["g-0"] == ["f0", "f1", "f2"]
        assert seqs_at["g-3"] == ["g0", "g1"]
    # Everything this group sends but the acks themselves is a reliable
    # segment, and on a lossless link every segment is acknowledged
    # exactly once: standalone, ridden or absorbed.
    standalone = stats.by_category["transport-ack"]
    segments = stats.messages - standalone
    assert standalone + stats.acks_piggybacked == segments
    assert stats.acks_piggybacked > 0
    assert stats.wire_packets == stats.messages


def test_flat_group_sanitizer_clean_on_asyncio():
    runtime = AsyncioRuntime(seed=7, time_scale=0.05)
    try:
        stats, seqs, counters = run_flat_group(runtime=runtime)
    finally:
        runtime.close()
    assert counters["violations"] == 0
    assert counters["deliveries_checked"] > 0
    # Every member saw every burst, in sender order.
    for seqs_at in seqs.values():
        assert seqs_at["g-0"] == ["f0", "f1", "f2"]
        assert seqs_at["g-3"] == ["g0", "g1"]
    assert stats.acks_piggybacked > 0
