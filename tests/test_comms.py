"""What is always on below the protocols (docs/comms.md): cumulative
held acks in the reliable transport, per-category byte accounting
and hardware-multicast wire counting.

The ack contract under test: every received segment is acknowledged
exactly once — riding a reverse segment, absorbed into a cumulative
standalone ack, or standalone after ``rto / 5`` of reverse idleness (a
round of the stability plane for group data and stability messages) —
a gap is reported at once, and nothing short of a reboot discards a
pending ack."""

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


def quiet(t):
    """Nothing unacked, no sweep armed, no ack or gap held back."""
    return (
        not any(state.unacked for state in t._send.values())
        and t._sweep_timer is None
        and not t._ack_timers
        and not t._ack_pending
        and not t._gap_since
    )


class Peer(Process):
    def __init__(self, env, address, rto=0.05):
        super().__init__(env, address)
        self.transport = ReliableTransport(self, rto=rto)
        self.inbox = []
        self.on(App, lambda m, s: self.inbox.append((m.n, s)))

    def quiet(self):
        return quiet(self.transport)


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


def abcast_leaf(sender_rank, gossip_interval=None):
    """kv_write in the small: 100 ABCASTs from one member of a 16-member
    leaf, 20 ms apart.  Gossip is off unless asked for, so that every ack
    in the count answers a data segment.  With gossip on the
    run lasts until the stability plane and its held acks are quiet."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 16, gossip_interval=gossip_interval)
    sanitizer = install_sanitizer(members, strict=True)
    got = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(lambda e, me=m.me: got[me].append(e.payload.n))
    for i in range(100):
        env.scheduler.after(
            0.02 * (i + 1),
            lambda i=i: members[sender_rank].multicast(App(i), TOTAL),
        )
    env.run_for(3.0 if gossip_interval is None else 4.0)
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
    assert all(seen == list(range(100)) for seen in got.values())
    if gossip_interval is not None:
        assert all(quiet(node.runtime.transport) for node in nodes)
    return env.network.stats


def test_abcast_leaf_draws_one_standalone_ack_per_message_per_receiver():
    # From the sequencer the data carries its own order: one segment per
    # receiver per message, and one ack each (the reverse path is idle).
    stats = abcast_leaf(sender_rank=0)
    assert stats.by_category["group-data"] == 100 * 15
    assert set(stats.by_category) == {"group-data", "transport-ack"}
    assert stats.by_category["transport-ack"] == 100 * 15
    assert stats.acks_piggybacked == 0
    # From anyone else the abcast goes to the sequencer alone, which
    # relays a stamped copy to the other 15, the sender included: 16
    # segments per message, not 15 data and 15 orders.  Each is acked
    # once; only the sequencer's ack to the sender has a segment (the
    # copy it relays on receipt) to ride on.
    stats = abcast_leaf(sender_rank=5)
    assert stats.by_category["group-data"] == 100 * 16
    assert set(stats.by_category) == {"group-data", "transport-ack"}
    assert stats.acks_piggybacked == 100
    assert stats.by_category["transport-ack"] + stats.acks_piggybacked == 100 * 16


def test_abcast_leaf_with_the_stability_plane_draws_no_ack_per_message():
    # The same puts with gossip on: each receiver's report goes to the
    # coordinator, which is the sequencer, once a round and carries the
    # ack for every abcast since the last one; the coordinator's floors
    # carry its acks for the reports.  Only acks with nothing left to
    # ride on go standalone — those for the last floors of the run.
    stats = abcast_leaf(sender_rank=0, gossip_interval=0.5)
    assert stats.by_category["group-data"] == 100 * 15
    standalone = stats.by_category["transport-ack"]
    assert standalone <= 100  # 1,500 with gossip off (above)
    # The ack identity of the gossip-off tests holds exactly.
    assert standalone + stats.acks_piggybacked == stats.messages - standalone


# Gossip off, lossless, but reordering: 200 multicasts of 1,400-byte and
# 8-byte payloads 0.5 ms apart in an 8-member group under LanLatency's
# per-byte cost and jitter, so a small segment often overtakes a large one
# sent just before it.  Every segment and ack datagram as (event, time,
# src, dst, seq, cumulative ack) is hashed; the digest and the counts are
# those of the transport before acks could be held for a stability round
# or a gap reported — a gap that closes within ``rto / 5`` changes nothing.
# (Re-recorded when members 1 and 2's abcasts began to be relayed through
# the sequencer: 2,023 → 1,611 messages.  The transport of before held
# acks, run under the relay, prints the same six values.)
REORDERING_GOSSIP_OFF = """
import hashlib, json
from dataclasses import dataclass
from repro.membership import FIFO, TOTAL, build_group
from repro.net import LanLatency
from repro.proc import Environment
from repro.transport.channel import Segment, SegmentAck

@dataclass
class Big:
    category = "app"
    size_bytes = 1400
    n: int = 0

@dataclass
class Small:
    category = "app"
    size_bytes = 8
    n: int = 0

env = Environment(seed=1, latency=LanLatency())
_nodes, members = build_group(env, "g", 8, gossip_interval=None)
digest, last, reorders = hashlib.sha256(), {}, 0

def tap(event, envelope):
    global reorders
    p = envelope.payload
    if isinstance(p, Segment):
        fields = (p.seq, p.ack_cum_seq)
        if event == "deliver":
            key = (envelope.src, envelope.dst)
            reorders += p.seq < last.get(key, 0)
            last[key] = max(last.get(key, 0), p.seq)
    elif isinstance(p, SegmentAck):
        fields = (p.cum_seq,)
    else:
        return
    digest.update(repr(
        (event, round(env.now, 9), envelope.src, envelope.dst) + fields
    ).encode())

env.network.add_tap(tap)
for i in range(200):
    env.scheduler.after(
        0.5 + 0.0005 * i,
        lambda i=i: members[i % 3].multicast(
            (Big if i % 2 == 0 else Small)(i), TOTAL if i % 4 < 2 else FIFO
        ),
    )
env.run_for(3.0)
s = env.network.stats
print(json.dumps([reorders, s.messages, s.by_category["transport-ack"],
                  s.acks_piggybacked, s.bytes, digest.hexdigest()[:16]]))
"""


def test_gossip_off_reordering_places_every_ack_as_before():
    import json

    from tests.test_perf_determinism import pinned_python

    reorders, *placement = json.loads(pinned_python(REORDERING_GOSSIP_OFF))
    assert reorders == 81
    assert placement == [1611, 144, 1323, 321536, "ab4769b0629c3f12"]


def repairs(env, latency, rto, hold):
    """Watch every reliable segment; at the end, for each one whose first
    transmission was lost, how it was repaired: ``("gap", late)`` when a
    later segment of its channel arrived first — ``late`` is how far the
    repair missed ``rto / 5 + 2 × latency`` after that arrival, or after
    every earlier segment had arrived if that was later (a gap report
    covers the first gap only) — or ``("tail", late)`` for the sweep's
    resend against ``hold + 2 × rto`` (``2 × rto`` for a prompt payload)
    after the loss.  A gap repair is only judged when no datagram between
    the two peers was lost in its window: a lost gap report or resend is
    repaired again later."""
    from repro.membership.events import GroupData, StabilityGossip
    from repro.transport.channel import Segment

    log = []

    def tap(event, envelope):
        segment = envelope.payload
        pair = frozenset((envelope.src, envelope.dst))
        if isinstance(segment, Segment):
            log.append((env.now, event, envelope.src, envelope.dst, pair,
                        segment.seq, type(segment.payload)))
        elif event == "drop":
            log.append((env.now, event, envelope.src, envelope.dst, pair, None, None))

    env.network.add_tap(tap)

    def judge():
        window = rto / 5 + 2 * latency
        drops = {}
        for t, event, _src, _dst, pair, _seq, _kind in log:
            if event == "drop":
                drops.setdefault(pair, []).append(t)
        arrivals = {}
        first_arrival = {}
        sends = {}
        lost = []
        for t, event, src, dst, _pair, seq, kind in log:
            if seq is None:
                continue
            key = (src, dst, seq)
            if event == "send":
                sends.setdefault(key, []).append(t)
            elif event == "deliver":
                arrivals.setdefault((src, dst), []).append((t, seq))
                first_arrival.setdefault(key, t)
            elif len(sends[key]) == 1:  # the first transmission was lost
                lost.append((t, key, kind))
        verdicts = []
        for t, (src, dst, seq), kind in lost:
            on_channel = arrivals[(src, dst)]
            repaired = min(at for at, s in on_channel if s == seq and at > t)
            later = [at for at, s in on_channel if s > seq and t < at < repaired]
            if later:
                before = (first_arrival[(src, dst, s)] for s in range(1, seq))
                opened = max(min(later), max(before, default=0.0))
                if not any(opened <= d <= opened + window for d in drops[frozenset((src, dst))]):
                    verdicts.append(("gap", repaired - (opened + window)))
            else:
                lazy = kind in (GroupData, StabilityGossip)
                first_resend = sends[(src, dst, seq)][1]
                bound = (hold if lazy else 0.0) + 2 * rto
                verdicts.append(("tail", first_resend - (t + bound)))
        return verdicts

    return judge


def test_a_lossy_leaf_repairs_gaps_at_once_and_lazy_tails_within_a_round():
    latency, rto, gossip = 0.002, 0.05, 0.5
    env = Environment(
        seed=1, latency=FixedLatency(latency),
        drop_probability=0.05, duplicate_probability=0.05,
    )
    nodes, members = build_group(env, "g", 16, gossip_interval=gossip)
    sanitizer = install_sanitizer(members, strict=True)
    judge = repairs(env, latency, rto, gossip)
    got = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(lambda e, me=m.me: got[me].append(e.payload.n))
    # Bursts of abcasts from the sequencer (rank 0) and from rank 5, each
    # followed by an idle second, so that channels go quiet with their
    # last segments lost as well as losing segments mid-stream.
    sent = []
    for burst in range(6):
        for i in range(10):
            at = 1.2 * burst + 0.02 * (i + 1)
            for rank, n in ((0, 100 * burst + i), (5, 1000 + 100 * burst + i)):
                sent.append(n)
                env.scheduler.after(
                    at + 0.01 * (rank == 5),
                    lambda rank=rank, n=n: members[rank].multicast(App(n), TOTAL),
                )
    env.run_for(12.0)
    assert env.network.stats.dropped > 0
    assert env.network.stats.by_category["transport-ack"] > 0
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
    # Exactly once, in one total order, everywhere.
    assert sorted(got["g-0"]) == sorted(sent)
    assert all(seen == got["g-0"] for seen in got.values())
    assert all(quiet(node.runtime.transport) for node in nodes)
    verdicts = judge()
    gaps = [late for how, late in verdicts if how == "gap"]
    tails = [late for how, late in verdicts if how == "tail"]
    assert len(gaps) >= 20 and tails
    assert max(gaps) <= 1e-9, sorted(gaps)[-5:]
    assert max(tails) <= 1e-9, sorted(tails)[-5:]


def test_wan_jitter_reorders_without_a_gap_report_or_resend():
    """Two sites 30 ms ± 25% apart, no loss, gossip on, ``rto`` above the
    round trip: WAN jitter reorders segments by up to 15 ms, so gaps open
    all the time, but each closes well within ``rto / 5`` (40 ms).  No gap
    is reported and nothing is resent — not even by a standalone ack that
    falls due while a gap has just opened."""
    from repro.membership import GroupNode
    from repro.net import SiteLatency
    from repro.transport.channel import Segment, SegmentAck

    env = Environment(seed=1, latency=SiteLatency())
    addresses = [f"{site}.{i}" for site in ("nyc", "sfo") for i in range(4)]
    nodes = [GroupNode(env, a, gossip_interval=0.5, rto=0.2) for a in addresses]
    members = [node.runtime.create_group("wan", addresses) for node in nodes]
    seen, resent, reports, overtaken, last = set(), [], [], [0], {}

    def tap(event, envelope):
        p = envelope.payload
        if isinstance(p, Segment):
            key = (envelope.src, envelope.dst)
            if event == "send":
                if (key, p.epoch, p.seq) in seen:
                    resent.append((key, p.seq))
                seen.add((key, p.epoch, p.seq))
            elif event == "deliver":
                overtaken[0] += p.seq < last.get(key, 0)
                last[key] = max(last.get(key, 0), p.seq)
        elif isinstance(p, SegmentAck) and p.high:
            reports.append(p)

    env.network.add_tap(tap)
    for i in range(150):
        for rank in (0, 5):
            env.scheduler.after(
                0.5 + 0.01 * i,
                lambda rank=rank, i=i: members[rank].multicast(App(i), TOTAL),
            )
    env.run_for(4.0)
    assert overtaken[0] > 50
    assert reports == [] and resent == []
    assert all(quiet(node.runtime.transport) for node in nodes)


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
    # gossip interval after the reports) and the acks that answer it: a
    # floor is lazy, so its ack is held for up to a round, until 3.0 s.
    env.run_for(3.5)
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
