"""Constant per-member background traffic in a flat group (docs/comms.md):
ring failure monitoring is complete, stability gossip is quiescent, a
removed member is neither retransmitted to nor black-holed, suspicion
fires at the deadline, and a recovered process gets its periodic timers
back."""

from dataclasses import dataclass
from itertools import combinations
from math import ceil

import pytest

from repro.failure.detector import RENEW_TICKS, HeartbeatDetector
from repro.membership import TOTAL, build_group
from repro.membership.group import MONITOR_K
from repro.metrics.sanitizer import install_sanitizer
from repro.net import FixedLatency
from repro.proc import Environment, Process
from repro.transport import ReliableTransport

INTERVAL = 0.2
SUSPECT_AFTER = 1.0
FLUSH_TIMEOUT = 1.0
GOSSIP = 0.5


@dataclass
class App:
    category = "app"
    tag: str = ""


def hb(node):
    return HeartbeatDetector(node, interval=INTERVAL, suspect_after=SUSPECT_AFTER)


def make(n, seed=1, **env_kwargs):
    env = Environment(seed=seed, latency=FixedLatency(0.002), **env_kwargs)
    nodes, members = build_group(
        env, "g", n, detector_factory=hb, gossip_interval=GOSSIP,
        flush_timeout=FLUSH_TIMEOUT,
    )
    return env, nodes, members


def sends(env, category=None):
    """Record (time, src, dst, category, kind) of every datagram sent from
    now on."""
    log = []

    def tap(_event, envelope):
        if category is None or envelope.category == category:
            log.append((
                env.now, envelope.src, envelope.dst, envelope.category,
                type(envelope.payload).__name__,
            ))

    env.network.add_tap(tap, events=("send",))
    return log


# -------------------------------------------------------------- completeness


def detection_bound(failures):
    """Suspicion walks the ring MONITOR_K members per detection period; a
    coordinator that was not told of every casualty finds the rest when
    its flush times out."""
    rounds = ceil(failures / MONITOR_K)
    return rounds * SUSPECT_AFTER + FLUSH_TIMEOUT + INTERVAL


@pytest.mark.parametrize("failures", range(1, 8))
def test_every_crash_set_is_excluded_within_the_bound(failures):
    """All C(8, f) crash sets, 254 over f = 1..7 — the coordinator together
    with all K of its watchers (0-3), K+1 consecutive ranks, everyone but
    one — end with the survivors in one view of exactly the survivors,
    virtual synchrony intact."""
    for dead in combinations(range(8), failures):
        env, nodes, members = make(8)
        survivors = [m for rank, m in enumerate(members) if rank not in dead]
        want = tuple(m.me for m in survivors)
        sanitizer = install_sanitizer(survivors)
        env.run_for(0.5)
        for member in members:
            member.multicast(App(f"in-flight-{member.me}"), TOTAL)
        for rank in dead:
            nodes[rank].crash()
        crashed_at = env.now
        env.run_for(detection_bound(failures))
        for member in survivors:
            assert member.view.members == want, (dead, member.me, env.now - crashed_at)
            assert member.view.seq == 2, (dead, member.me)
        env.run_for(2.0)  # and it is stable: nobody is suspected afterwards
        assert all(m.view.seq == 2 for m in survivors), dead
        assert sanitizer.check(at_quiescence=True)["violations"] == 0, dead


# ------------------------------------------------------- monitoring topology


@pytest.mark.parametrize("size", [8, 16, 32])
def test_heartbeat_sends_per_member_do_not_grow_with_the_group(size):
    env, nodes, members = make(size)
    env.run_for(1.1)  # between two ticks, long before the first renewal
    log = sends(env, "heartbeat")
    ticks = 10
    env.run_for(ticks * INTERVAL)
    per_tick = {}
    for at, src, _dst, _category, kind in log:
        assert kind == "Heartbeat"
        per_tick[at, src] = per_tick.get((at, src), 0) + 1
    # K pushes to the successors that watch it, and nobody replies.
    assert {src for _at, src in per_tick} == {m.me for m in members}
    assert all(count <= MONITOR_K for count in per_tick.values())
    assert len(log) == size * MONITOR_K * ticks
    # The same ten ticks round the renewal (every watch was made at
    # t = 0): one Subscribe per watch more, unanswered.
    env.run(until=RENEW_TICKS * INTERVAL - 0.1)
    del log[:]
    env.run_for(ticks * INTERVAL)
    kinds = [kind for *_rest, kind in log]
    assert kinds.count("Heartbeat") == size * MONITOR_K * ticks
    assert kinds.count("Subscribe") == size * MONITOR_K
    assert len(log) == size * MONITOR_K * (ticks + 1)


def test_watch_set_is_the_nearest_unsuspected_predecessors():
    env, nodes, members = make(8)
    watched = nodes[4].runtime.detector.watched
    assert watched() == {"g-3", "g-2", "g-1"}
    assert nodes[1].runtime.detector.watched() == {"g-0", "g-7", "g-6"}
    members[4]._on_suspect("g-2")
    assert watched() == {"g-3", "g-1", "g-0"}


def test_small_groups_are_monitored_all_to_all():
    env, nodes, members = make(MONITOR_K + 1)
    for node in nodes:
        others = {n.address for n in nodes} - {node.address}
        assert node.runtime.detector.watched() == others


def test_suspicion_fires_at_the_deadline_not_the_next_tick():
    env, nodes, members = make(8)
    suspicions = []
    nodes[1].runtime.detector.add_listener(
        lambda address: suspicions.append((address, env.now))
    )
    env.run_for(0.5)
    last_heard = nodes[1].runtime.detector._last_heard["g-0"]
    nodes[0].crash()
    env.run_for(2.0)
    assert suspicions == [("g-0", pytest.approx(last_heard + SUSPECT_AFTER))]


# ---------------------------------------------------------- quiescent gossip


def test_idle_group_sends_no_gossip_and_no_acks():
    env, nodes, members = make(16)
    env.run_for(1.0)
    before = env.stats_snapshot()
    env.run_for(10 * GOSSIP)
    delta = env.stats_since(before)
    assert delta.by_category.get("group-stability", 0) == 0
    assert delta.by_category.get("transport-ack", 0) == 0
    assert delta.by_category["heartbeat"] == delta.messages


def test_busy_group_keeps_gossiping_and_truncating():
    env, nodes, members = make(16)
    period = 0.05

    def load(i=0):
        members[i % 16].multicast(App(f"m{i}"), TOTAL)
        env.scheduler.after(period, lambda: load(i + 1))

    load()
    tracker = lambda: members[3]._stability  # noqa: E731 - same view throughout
    log_sizes, floors = [], []
    for _second in range(6):
        env.run_for(1.0)
        log_sizes.append(tracker().log_size())
        floors.append(sum(tracker().stable_floor(m.me) for m in members))
    # Everything older than two gossip rounds is stable and dropped.
    assert max(log_sizes) <= 2 * GOSSIP / period + 16
    assert all(later > earlier for earlier, later in zip(floors, floors[1:]))
    assert env.network.stats.by_category["group-stability"] > 0


# ------------------------------------------------- channels to the departed


def test_no_datagram_to_a_crashed_member_after_the_view_that_removed_it():
    env, nodes, members = make(16)
    env.run_for(0.5)
    for member in members:
        member.multicast(App(f"unacked-{member.me}"), TOTAL)
    nodes[9].crash()  # most survivors never suspect it themselves
    log = sends(env)
    installs = []
    for member in members:
        member.add_view_listener(lambda event, me=member.me: installs.append(env.now))
    env.run_for(4.0)
    assert len(installs) == 15
    late = [entry for entry in log if entry[2] == "g-9" and entry[0] > max(installs)]
    assert late == []
    assert all(
        node.runtime.transport.unacked_count("g-9") == 0
        for node in nodes if node.alive
    )


def test_falsely_removed_member_rejoins_and_traffic_flows_both_ways():
    """A partition cuts g-5 off for long enough to be removed but not for
    long enough to suspect everyone itself, so who abandoned which channel
    is asymmetric — the case forgetting the peer would black-hole."""
    env, nodes, members = make(8)
    env.run_for(0.5)
    members[5].multicast(App("before"), TOTAL)
    members[2].multicast(App("before"), TOTAL)
    env.run_for(0.1)
    everyone = {n.address for n in nodes}
    env.network.partitions.partition({"g-5"}, everyone - {"g-5"})
    env.run_for(1.6)
    majority = [m for m in members if m.me != "g-5"]
    assert all(m.view.members == tuple(x.me for x in majority) for m in majority)
    env.network.partitions.heal()
    env.run_for(0.5)
    # g-5's reports on its stale view are not believed
    assert all(m.view.seq == 2 for m in majority)
    rejoined = nodes[5].runtime.rejoin_group("g", contact="g-0")
    env.run_for(2.0)
    assert rejoined.is_member
    assert set(members[0].view.members) == everyone
    got = {m.me: [] for m in majority}
    got["g-5"] = []
    for member in majority + [rejoined]:
        member.add_delivery_listener(
            lambda event, me=member.me: got[me].append((event.sender, event.payload.tag))
        )
    rejoined.multicast(App("from-5"), TOTAL)
    members[6].multicast(App("from-6"), TOTAL)  # g-6 watched g-5 and suspected it
    members[3].multicast(App("from-3"), TOTAL)  # g-5 watched g-3 and suspected it
    env.run_for(2.0)
    for me, seen in got.items():
        assert sorted(seen) == [
            ("g-3", "from-3"), ("g-5", "from-5"), ("g-6", "from-6")
        ], me


# ------------------------------------------------- timers across a recovery


def test_recovered_member_monitors_again():
    env, nodes, members = make(4)
    env.run_for(0.5)
    nodes[1].crash()
    env.run_for(3.0)
    nodes[1].recover()
    assert len(nodes[1]._timers) >= 2  # heartbeat tick, gossip tick
    rejoined = nodes[1].runtime.rejoin_group("g", contact="g-0")
    env.run_for(3.0)
    assert rejoined.is_member
    suspicions = []
    nodes[1].runtime.detector.add_listener(suspicions.append)
    nodes[3].crash()
    env.run_for(3.0)
    assert suspicions == ["g-3"]
    assert rejoined.view.members == ("g-0", "g-2", "g-1")


def test_recovered_detector_measures_silence_from_recovery():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    a, b = Process(env, "a"), Process(env, "b")
    detector, _answers_pings = hb(a), hb(b)
    suspicions = []
    detector.add_listener(suspicions.append)
    detector.watch("b")
    env.run_for(1.0)
    a.crash()
    env.run_for(5.0)  # far longer than suspect_after, and b was up throughout
    a.recover()
    env.run_for(3.0)
    assert suspicions == []
    b.crash()
    env.run_for(3.0)
    assert suspicions == ["b"]


class Peer(Process):
    def __init__(self, env, address):
        super().__init__(env, address)
        self.transport = ReliableTransport(self, rto=0.05)
        self.inbox = []
        self.on(App, lambda m, s: self.inbox.append(m.tag))


def test_recovered_process_retransmits_over_a_lossy_link():
    env = Environment(seed=4, latency=FixedLatency(0.005), drop_probability=0.4)
    a, b = Peer(env, "a"), Peer(env, "b")
    a.crash()
    a.recover()
    tags = [f"m{i}" for i in range(20)]
    for tag in tags:
        a.transport.send("b", App(tag))
    env.run_for(20.0)
    assert b.inbox == tags
    assert a.transport.unacked_count("b") == 0


def test_idle_transport_has_no_timer():
    env = Environment(seed=1, latency=FixedLatency(0.005))
    a, b = Peer(env, "a"), Peer(env, "b")
    a.transport.send("b", App("x"))
    env.run_for(1.0)
    assert b.inbox == ["x"]
    before = env.scheduler.events_processed
    env.run_for(10.0)
    assert env.scheduler.events_processed == before
