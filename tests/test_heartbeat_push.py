"""One-way heartbeats under a lease (docs/comms.md, "Ring monitoring").

A watched peer costs one datagram per tick and nobody replies; a new
subscriber is answered at once; a subscription that was lost, lapsed,
dropped or died with its holder is re-made by the watcher before silence
becomes suspicion; a subscriber that went away stops being pushed to —
at the view that removes it inside a group, within one lease outside one.
Under loss an idle group, and one serving puts whose hedges make rank 1
probe its coordinator, are held to their false-suspicion counts.  The
last section is the executable spec of the detector's classes:
completeness, accuracy and the bounded leak, each held for the probe path
too.
"""

import json
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.failure.detector import (
    LEASE_TICKS,
    PROBES,
    RENEW_TICKS,
    Heartbeat,
    HeartbeatDetector,
    OracleDetector,
    Probe,
    Subscribe,
)
from repro.membership import GroupNode, build_group
from repro.net import FixedLatency
from repro.net.latency import LatencyModel
from repro.proc import Environment, Process
from repro.toolkit import (
    CoordinatorCohortClient,
    CoordinatorCohortServer,
    ReplicatedDict,
)
from tests.test_perf_determinism import pinned_python

INTERVAL = 0.2
SUSPECT_AFTER = 1.0
HOP = 0.002


def hb(node):
    return HeartbeatDetector(node, interval=INTERVAL, suspect_after=SUSPECT_AFTER)


def cluster(names, latency=None):
    env = Environment(seed=1, latency=latency or FixedLatency(HOP))
    procs = {name: Process(env, name) for name in names}
    detectors = {name: hb(proc) for name, proc in procs.items()}
    return env, procs, detectors


def sent(env):
    """(time, src, dst, kind) of every datagram sent from now on."""
    log = []
    env.network.add_tap(
        lambda _event, e: log.append(
            (env.now, e.src, e.dst, type(e.payload).__name__)
        ),
        events=("send",),
    )
    return log


def suspicions_of(detectors, env):
    events = []
    for name, detector in detectors.items():
        detector.add_listener(
            lambda peer, name=name: events.append((env.now, name, peer))
        )
    return events


def heard(env, watcher, peer):
    """Times at which ``watcher`` hears ``peer``, from now on."""
    times = []

    def tap(_event, e):
        if (e.src, e.dst) == (peer, watcher) and isinstance(e.payload, Heartbeat):
            times.append(env.now)

    env.network.add_tap(tap, events=("deliver",))
    return times


# ------------------------------------------------------------ who sends what


def test_a_watched_peer_costs_one_datagram_a_tick_and_nobody_replies():
    env, procs, detectors = cluster("ab")
    log = sent(env)
    detectors["a"].watch("b")
    env.run_for(HOP * 3)
    # Set-up is the old ping/ack round: asked, answered at once.
    assert [entry[1:] for entry in log] == [
        ("a", "b", "Subscribe"), ("b", "a", "Heartbeat")
    ]
    assert detectors["a"]._last_heard["b"] == pytest.approx(2 * HOP)
    del log[:]
    env.run(until=10 * INTERVAL + 0.1)
    assert [entry[1:] for entry in log] == [("b", "a", "Heartbeat")] * 10


def test_a_renewal_is_not_answered_and_keeps_the_lease_alive():
    env, procs, detectors = cluster("ab")
    detectors["a"].watch("b")
    env.run(until=(RENEW_TICKS - 1) * INTERVAL + 0.1)
    log = sent(env)
    env.run_for(2 * INTERVAL)  # the renewal tick and the one after
    assert Counter(entry[1:] for entry in log) == {
        ("a", "b", "Subscribe"): 1, ("b", "a", "Heartbeat"): 2
    }
    del log[:]
    env.run_for(3 * LEASE_TICKS * INTERVAL)  # three leases on, still served
    pushes = [entry for entry in log if entry[3] == "Heartbeat"]
    assert len(pushes) == 3 * LEASE_TICKS
    assert sum(entry[3] == "Subscribe" for entry in log) == 6
    assert not detectors["a"].is_suspected("b")


def test_unwatch_sends_nothing_and_a_stale_subscription_costs_one_push():
    env, procs, detectors = cluster("ab")
    detectors["a"].watch("b")
    env.run_for(1.1)
    log = sent(env)
    detectors["a"].unwatch("b")
    assert log == []
    env.run_for(5.0)
    assert [entry[1:] for entry in log] == [
        ("b", "a", "Heartbeat"), ("a", "b", "Unsubscribe")
    ]
    assert "a" not in detectors["b"]._subscribers


def test_the_protocol_needs_two_silent_intervals_and_a_round_trip():
    env = Environment(seed=1, latency=FixedLatency(HOP))
    for interval, suspect_after in [(0.2, 0.2), (0.2, 0.5), (0.2, 0.6), (0.0, 1.0)]:
        with pytest.raises(ValueError, match="re-subscribed"):
            HeartbeatDetector(
                Process(env, f"p-{interval}-{suspect_after}"),
                interval=interval, suspect_after=suspect_after,
            )
    HeartbeatDetector(Process(env, "ok"), interval=0.2, suspect_after=0.61)


def test_the_oracle_ignores_the_departure_hook():
    env = Environment(seed=1, latency=FixedLatency(HOP))
    detector = OracleDetector(env, owner="a")
    detector.watch("b")
    detector.forget("b")
    assert detector.watched() == {"b"}


# ------------------------------------------------------------------- repair


def test_a_dropped_subscribe_is_repaired_before_suspect_after():
    env, procs, detectors = cluster("ab")
    suspicions = suspicions_of(detectors, env)
    times = heard(env, "a", "b")
    env.run_for(0.05)
    env.network.partitions.cut_link("a", "b")
    detectors["a"].watch("b")  # the Subscribe is lost on the link
    env.network.partitions.restore_link("a", "b")
    assert env.network.stats.dropped == 1
    env.run_for(5.0)
    # Asked again on the first tick that finds two intervals of silence,
    # answered at once.
    assert times[0] == pytest.approx(3 * INTERVAL + 2 * HOP)
    assert times[0] < 0.05 + SUSPECT_AFTER
    assert suspicions == []
    assert len(times) > 20


def test_a_target_that_recovers_lost_its_table_and_is_asked_again():
    env, procs, detectors = cluster(["t", "w1", "w2", "w3"])
    suspicions = suspicions_of(detectors, env)
    watchers = ["w1", "w2", "w3"]
    for name in watchers:
        detectors[name].watch("t")
    env.run_for(1.05)
    procs["t"].crash()
    env.run_for(0.1)
    procs["t"].recover()
    recovered_at = env.now
    assert detectors["t"]._subscribers == {}
    times = {name: heard(env, name, "t") for name in watchers}
    env.run_for(5.0)
    for name in watchers:
        assert times[name][0] <= recovered_at + 3 * INTERVAL, name
        assert len(times[name]) > 20, name
    assert suspicions == []


class Detour(LatencyModel):
    """Fixed latency, except on the directed links listed in ``slow``."""

    def __init__(self):
        self.slow = {}

    def floor(self):
        return HOP

    def sample(self, rng, src, dst, size_bytes):
        return self.slow.get((src, dst), HOP)


def test_unwatch_then_watch_across_a_reordered_unsubscribe_heals():
    latency = Detour()
    env, procs, detectors = cluster("ab", latency=latency)
    suspicions = suspicions_of(detectors, env)
    detectors["a"].watch("b")
    env.run(until=1.0 + HOP / 2)  # b's push of t = 1.0 is in flight
    detectors["a"].unwatch("b")
    latency.slow["a", "b"] = 0.05  # the Unsubscribe takes the long way
    env.run_for(HOP)
    latency.slow.clear()
    log = sent(env)
    detectors["a"].watch("b")  # this Subscribe overtakes it
    env.run_for(0.1)
    # b saw a renewal from a subscriber, then the stale Unsubscribe.
    assert log == [(pytest.approx(1.0 + 1.5 * HOP), "a", "b", "Subscribe")]
    assert "a" not in detectors["b"]._subscribers
    times = heard(env, "a", "b")
    env.run_for(5.0)
    assert times[0] <= 1.0 + 3 * INTERVAL + 3 * HOP
    assert suspicions == [] and len(times) > 20


def test_a_healed_partition_unsuspects_and_a_later_crash_is_reported_again():
    """A suspected peer is never re-subscribed to, but its lease outlives
    a short partition: the first push after the heal proves it alive and
    clears the suspicion, as a late ack used to."""
    env, procs, detectors = cluster("ab")
    suspicions = suspicions_of(detectors, env)
    detectors["a"].watch("b")
    env.run_for(1.05)
    env.network.partitions.partition({"a"}, {"b"})
    env.run_for(1.5)
    assert [(who, peer) for _at, who, peer in suspicions] == [("a", "b")]
    assert detectors["a"].is_suspected("b")
    env.network.partitions.heal()
    env.run_for(INTERVAL + 2 * HOP)
    assert not detectors["a"].is_suspected("b")
    env.run_for(3.0)
    assert len(suspicions) == 1
    procs["b"].crash()
    env.run_for(2.0)
    assert [(who, peer) for _at, who, peer in suspicions] == [("a", "b")] * 2


# ------------------------------------------------- subscribers that went away


def test_a_crashed_subscriber_outside_any_group_is_pushed_to_for_one_lease():
    env, procs, detectors = cluster("ab")
    detectors["a"].watch("b")
    env.run_for(1.05)
    procs["a"].crash()
    log = sent(env)
    env.run_for(3 * LEASE_TICKS * INTERVAL)
    assert all(entry[1:] == ("b", "a", "Heartbeat") for entry in log)
    assert 0 < len(log) <= LEASE_TICKS
    assert log[-1][0] <= 1.05 + LEASE_TICKS * INTERVAL
    assert detectors["b"]._subscribers == {}


def make_group(n, name="g", seed=1, drop=0.0, detector_factory=hb):
    env = Environment(seed=seed, latency=FixedLatency(HOP), drop_probability=drop)
    nodes, members = build_group(
        env, name, n, detector_factory=detector_factory, gossip_interval=0.5,
        flush_timeout=1.0,
    )
    return env, nodes, members


def test_a_departed_member_is_dropped_at_the_view_that_removes_it():
    env, nodes, members = make_group(16)
    env.run_for(0.5)
    pushers = [nodes[rank].runtime.detector for rank in (6, 7, 8)]
    assert all("g-9" in detector._subscribers for detector in pushers)
    nodes[9].crash()
    log = sent(env)
    env.run_for(4.0)
    assert all(m.view.size == 15 for m in members if m.me != "g-9")
    assert all("g-9" not in detector._subscribers for detector in pushers)
    # One lease would have been LEASE_TICKS pushes from each of the three.
    to_the_dead = [entry for entry in log if entry[2] == "g-9"]
    assert 0 < len(to_the_dead) < LEASE_TICKS


def test_leaving_one_group_keeps_the_liveness_another_still_needs():
    """g-5 leaves group "a" and stays in group "b" on the same eight
    nodes.  The three members it watches drop its subscription at the
    "a" view that removes it; it still watches them for "b", finds them
    quiet and asks again."""
    env, nodes, a_members = make_group(8, name="a")
    addresses = [node.address for node in nodes]
    b_members = [node.runtime.create_group("b", addresses) for node in nodes]
    suspicions = suspicions_of(
        {node.address: node.runtime.detector for node in nodes}, env
    )
    watched = sorted(nodes[5].runtime.detector.watched())
    assert watched == ["a-2", "a-3", "a-4"]
    times = {peer: heard(env, "a-5", peer) for peer in watched}
    env.run_for(1.05)
    a_members[5].leave()
    env.run_for(6.0)
    assert all(m.view.size == 7 for m in a_members if m.me != "a-5")
    assert all(m.view.size == 8 and m.view.seq == 1 for m in b_members)
    assert suspicions == []
    for peer in watched:
        gaps = [b - a for a, b in zip(times[peer], times[peer][1:])]
        assert max(gaps) <= 3 * INTERVAL + 2 * HOP, peer
        assert max(gaps) > INTERVAL + HOP, peer  # the subscription was dropped
        assert len(times[peer]) > 20, peer


# ------------------------------------------------------- the leader's watches

PARAMS = LargeGroupParams(resiliency=3, fanout=4)


def hierarchy(workers):
    env = Environment(seed=3, latency=FixedLatency(HOP))
    kwargs = dict(detector_factory=hb, gossip_interval=0.5)
    leaders = build_leader_group(env, "svc", PARAMS, **kwargs)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", workers, PARAMS, contacts, **kwargs)
    env.run_for(5.0 + 0.3 * workers)
    assert all(m.is_member for m in members)
    return env, leaders, members


def test_leaf_watch_reports_a_dead_coordinator_at_suspect_after():
    env, leaders, members = hierarchy(24)
    manager = next(r for r in leaders if r.is_manager)
    detector = manager.node.runtime.detector
    coordinators = sorted(manager._watched)
    assert len(coordinators) >= 3
    assert coordinators == sorted(
        {m.leaf_member.view.coordinator for m in members}
    )
    victim = coordinators[0]
    events = []
    detector.add_listener(lambda peer: events.append((env.now, peer)))
    env.run_for(0.5)
    last_heard = detector._last_heard[victim]
    env.crash(victim)
    env.run_for(3.0)
    assert events[0] == (pytest.approx(last_heard + SUSPECT_AFTER), victim)


def test_a_dead_manager_costs_each_coordinator_at_most_one_lease():
    env, leaders, members = hierarchy(24)
    manager = next(r for r in leaders if r.is_manager)
    dead = manager.node.address
    coordinators = sorted(manager._watched)
    env.crash(dead)
    crashed_at = env.now
    log = sent(env)
    env.run_for(2 * LEASE_TICKS * INTERVAL)
    to_the_dead = [
        entry for entry in log if entry[2] == dead and entry[3] == "Heartbeat"
    ]
    per_coordinator = Counter(entry[1] for entry in to_the_dead)
    # The other leaders shared a group with it and dropped it at the view
    # that removed it; the coordinators share none and run out the lease.
    assert set(per_coordinator) >= set(coordinators)
    assert all(count <= LEASE_TICKS for count in per_coordinator.values())
    assert max(entry[0] for entry in to_the_dead) <= (
        crashed_at + LEASE_TICKS * INTERVAL
    )
    # ... while the manager that took over watches them all again.
    successor = next(r for r in leaders if r.is_manager and r.node.alive)
    assert sorted(successor._watched) == coordinators


# ------------------------------------------------------------- accuracy, loss

# False suspicions (a live member reported) per seed 1..5 in an idle
# 16-member group over 120 logical seconds, ping/ack as measured at the
# parent of the PR that made heartbeats one-way (PYTHONHASHSEED=0: the
# network's drop stream is a hashed RNG fork).  A round needed two
# datagrams to survive, a push needs one: ~(2p)^4 against p^4 per window.
DROPS = (0.01, 0.03, 0.05, 0.10)
PING_ACK_FALSE_SUSPICIONS = {  # 0 on every seed at 1% and 3%
    0.05: [0, 0, 2, 2, 2],
    0.10: [12, 13, 20, 14, 15],
}


def false_suspicions(drop, seed, seconds=120.0):
    env, nodes, _members = make_group(16, seed=seed, drop=drop)
    suspected = []
    for node in nodes:
        node.runtime.detector.add_listener(suspected.append)
    env.run_for(seconds)
    return len(suspected)  # nobody crashes: every suspicion is false


@pytest.fixture(scope="module")
def loss_table():
    code = (
        "import json;"
        "from tests.test_heartbeat_push import DROPS, false_suspicions;"
        "print(json.dumps([[false_suspicions(drop, seed)"
        " for seed in range(1, 6)] for drop in DROPS]))"
    )
    return dict(zip(DROPS, json.loads(pinned_python(code))))


@pytest.mark.parametrize("drop", [0.01, 0.03])
def test_no_false_suspicion_at_one_and_three_percent_loss(loss_table, drop):
    assert loss_table[drop] == [0] * 5


@pytest.mark.parametrize("drop", [0.05, 0.10])
def test_never_more_false_suspicions_than_ping_ack_under_heavy_loss(
    loss_table, drop
):
    was, now = PING_ACK_FALSE_SUSPICIONS[drop], loss_table[drop]
    assert all(n <= w for n, w in zip(now, was)), (now, was)
    assert sum(now) < sum(was) / 2


# The same group under load: a coordinator-cohort service on it takes a
# put every 20 ms for the whole 120 s, each an abcast to a replicated
# table.  Under loss a put whose copy to the coordinator is lost is hedged
# and rank 1, which holds it, probes the coordinator: the one path by which
# a probe can suspect a live peer.  False suspicions per seed 1..5 at the
# parent of the PR that added the probe (PYTHONHASHSEED=0, the runs in this
# order in one interpreter).  Every lost datagram, and every extra one,
# reshuffles which later datagrams the drop stream takes, so single
# suspicions move between seeds; compare totals.
LOADED_PARENT_FALSE_SUSPICIONS = {
    0.01: [0] * 5,
    0.03: [0] * 5,
    0.05: [1, 1, 0, 0, 0],
    0.10: [0, 1, 4, 4, 1],
}


def loaded_false_suspicions(drop, seed, seconds=120.0, rate=50.0):
    """The silence each (false) suspicion claimed, in the 16-member group
    serving puts at ``rate`` a second: under ``SUSPECT_AFTER``, a probe's."""
    silences = []

    def detector(node):
        hb_detector = hb(node)
        # Ahead of the group layer's listener, which unwatches the suspect
        # and with it the time it was last heard.
        hb_detector.add_listener(lambda peer: silences.append(
            node.env.now - hb_detector._last_heard[peer]
        ))
        return hb_detector

    env, _nodes, members = make_group(
        16, seed=seed, drop=drop, detector_factory=detector
    )
    for member in members:
        table = ReplicatedDict(member, "t")

        def handle(payload, _client, member=member, table=table):
            if member.is_member:  # not once excluded by a false suspicion
                table.put(*payload)
            return "ok"

        CoordinatorCohortServer(member, handle, resiliency=3)
    node = GroupNode(env, "client", detector_factory=hb, gossip_interval=0.5)
    client = CoordinatorCohortClient(node, "g", contacts=("g-0",), rpc=node.runtime.rpc)
    for i in range(int(seconds * rate)):
        env.scheduler.after(
            i / rate, lambda i=i: client.request((f"k{i % 64}", i), lambda r: None)
        )
    env.run_for(seconds)
    return silences


@pytest.fixture(scope="module")
def loaded_loss_table():
    code = (
        "import json;"
        "from tests.test_heartbeat_push import DROPS, loaded_false_suspicions;"
        "print(json.dumps([[loaded_false_suspicions(drop, seed)"
        " for seed in range(1, 6)] for drop in DROPS]))"
    )
    return dict(zip(DROPS, json.loads(pinned_python(code))))


@pytest.mark.parametrize("drop", [0.01, 0.03])
def test_no_false_suspicion_in_a_loaded_group_at_one_and_three_percent_loss(
    loaded_loss_table, drop
):
    assert loaded_loss_table[drop] == [[]] * 5


def test_no_more_false_suspicions_in_a_loaded_group_than_before_probes_at_5_percent(
    loaded_loss_table,
):
    now = [len(silences) for silences in loaded_loss_table[0.05]]
    assert sum(now) <= sum(LOADED_PARENT_FALSE_SUSPICIONS[0.05]), now


def test_at_ten_percent_loss_a_probe_suspects_a_live_peer_about_once_in_ten_minutes(
    loaded_loss_table,
):
    """10% loss, 120 s, five seeds: the probe's own false suspicions are
    gated, the total is reported.  The four-round window holds a push, so a
    false suspicion needs four probe rounds and that push lost, about
    16 p**5; with three rounds (a window that can miss the push) the probes
    made 13 of 20.  The rest come from silence, as before probes, and the
    reshuffled drop stream moves their count: [3, 3, 4, 1, 2] here against
    the parent's [0, 1, 4, 4, 1]; over seeds 1..20, 48 against 39, and 47
    with five rounds."""
    silences = [s for seed in loaded_loss_table[0.10] for s in seed]
    probed = [s for s in silences if s < SUSPECT_AFTER]
    assert len(probed) <= 1, probed


# ------------------------------------------------------- the executable spec

SPEC_INTERVAL = 0.1
SPEC_SUSPECT_AFTER = 0.5
NAMES = ("p0", "p1", "p2", "p3")
PAIRS = [(a, b) for a in NAMES for b in NAMES if a != b]
SLACK = 3 * HOP
PROBE_WINDOW = PROBES * SPEC_INTERVAL / 4  # first probe to suspicion


class DetectorSpec(RuleBasedStateMachine):
    """Four bare detectors under watch / unwatch / probe / crash / recover
    / drop-the-next-k, held after every step to the three properties that
    define the class of detector the group layer relies on:

    *completeness* — a watcher that has been up, and watching a peer that
    has been down, for ``suspect_after`` plus one interval suspects it;
    one that probed a peer already down suspects it within
    ``PROBES * interval / 4`` plus one hop;

    *accuracy* — no suspicion fires for a peer that was up, on links that
    dropped nothing in either direction, for the whole of the silence the
    suspicion claims (whatever the watcher's own crashes, re-watches and
    lapsed leases did in that time); and one that fires before
    ``suspect_after`` of silence is a probe's, after all ``PROBES`` of its
    rounds went out and nothing at all was heard since the first — so a
    live peer is suspected early only if every probe round and every push
    in that window were dropped;

    *bounded leak* — nobody says "alive" to a peer that has not asked
    within one lease, except once to each probe; and no probe is still
    running after its window, nor after the prober recovers.
    """

    def __init__(self):
        super().__init__()
        self.env = Environment(seed=1, latency=FixedLatency(HOP))
        self.procs = {name: Process(self.env, name) for name in NAMES}
        self.detectors = {
            name: HeartbeatDetector(
                proc, interval=SPEC_INTERVAL, suspect_after=SPEC_SUSPECT_AFTER
            )
            for name, proc in self.procs.items()
        }
        self.watching_since = {}  # (watcher, peer) -> time
        self.down_since = {}  # name -> time of the crash it is still in
        self.up_since = {name: 0.0 for name in NAMES}
        self.disturbed = {pair: [] for pair in PAIRS}  # [start, end] per cut
        self.cuts = {}  # (src, dst) -> datagrams still to drop
        self.down_spans = {name: [] for name in NAMES}  # closed [start, end]
        self.asked = {}  # (watcher, peer) -> time of the last Subscribe sent
        self.heard = {}  # (watcher, peer) -> last Heartbeat delivered while watched
        self.probed = {}  # (watcher, peer) -> start of its latest probe run
        self.probes = {pair: [] for pair in PAIRS}  # times a Probe was sent
        self.probe_arrived = {}  # (prober, probed) -> last Probe delivered
        self.suspicions = []
        self.checked = 0
        self.leaks = []
        for name, detector in self.detectors.items():
            detector.add_listener(
                lambda peer, name=name: self._on_suspect(name, peer)
            )
        self.env.network.add_tap(self._on_send, events=("send",))
        self.env.network.add_tap(self._on_deliver, events=("deliver",))
        self.env.network.add_tap(self._on_drop, events=("drop",))

    # -- observation ---------------------------------------------------------

    def _on_suspect(self, watcher, peer):
        """Note the suspicion with what was known when it fired: when the
        watcher last heard the peer (or watched it afresh, or came up
        again) and when its latest probe run of the peer started."""
        pair = (watcher, peer)
        silent_from = max(
            self.heard.get(pair, 0.0),
            self.watching_since[pair],
            self.up_since[watcher],
        )
        self.suspicions.append(
            (self.env.now, watcher, peer, silent_from, self.probed.get(pair))
        )

    def _on_send(self, _event, envelope):
        now, src, dst = self.env.now, envelope.src, envelope.dst
        if isinstance(envelope.payload, Subscribe):
            self.asked[src, dst] = now
        elif isinstance(envelope.payload, Probe):
            self.probes[src, dst].append(now)
        elif isinstance(envelope.payload, Heartbeat):
            if self.probe_arrived.get((dst, src)) == now:
                return  # the answer to a probe
            asked = self.asked.get((dst, src))
            lease = LEASE_TICKS * SPEC_INTERVAL + SLACK
            if asked is None or now - asked > lease:
                self.leaks.append((now, src, dst, asked))

    def _on_deliver(self, _event, envelope):
        pair = (envelope.dst, envelope.src)
        if isinstance(envelope.payload, Probe):
            self.probe_arrived[envelope.src, envelope.dst] = self.env.now
        elif isinstance(envelope.payload, Heartbeat) and pair in self.watching_since:
            self.heard[pair] = self.env.now

    def _on_drop(self, _event, envelope):
        link = (envelope.src, envelope.dst)
        left = self.cuts.get(link)
        if left is None:
            return
        if left > 1:
            self.cuts[link] = left - 1
        else:
            self._restore(link)

    def _cut(self, link, count):
        if link not in self.cuts:
            self.env.network.partitions.cut_link(*link)
            self.disturbed[link].append([self.env.now, None])
        self.cuts[link] = count

    def _restore(self, link):
        del self.cuts[link]
        self.env.network.partitions.restore_link(*link)
        self.disturbed[link][-1][1] = self.env.now

    # -- rules ---------------------------------------------------------------

    @initialize()
    def ring(self):
        """Start as the group layer does: each watches its predecessor."""
        for i, name in enumerate(NAMES):
            self.watch((name, NAMES[i - 1]))

    @rule(pair=st.sampled_from(PAIRS))
    def watch(self, pair):
        watcher, peer = pair
        detector = self.detectors[watcher]
        # Watching a peer it already watches changes nothing — unless it
        # suspects the peer, which starts the watch afresh.
        if pair not in self.watching_since or detector.is_suspected(peer):
            self.watching_since[pair] = self.env.now
            self.heard.pop(pair, None)
        detector.watch(peer)

    @rule(pair=st.sampled_from(PAIRS))
    def unwatch(self, pair):
        self.detectors[pair[0]].unwatch(pair[1])
        self.watching_since.pop(pair, None)
        self.heard.pop(pair, None)

    def _probe_candidates(self):
        # A probe of an unwatched peer is a no-op, and only a process that
        # is up runs code at all.
        return sorted(
            pair for pair in self.watching_since if pair[0] not in self.down_since
        )

    @precondition(lambda self: self._probe_candidates())
    @rule(
        data=st.data(),
        lost=st.integers(0, PROBES + 1),
        back=st.integers(0, 2),
        dead=st.booleans(),
    )
    def probe(self, data, lost, back, dead):
        """Probe a watched peer with the next ``lost`` datagrams to it and
        ``back`` from it dropped: the probe rounds, and the answers and
        pushes.  ``dead``: the case a probe is for, played out to the end
        of the window — the peer crashed a hedge delay ago."""
        pair = data.draw(st.sampled_from(self._probe_candidates()))
        watcher, peer = pair
        if dead and peer not in self.down_since:
            self._crash(peer)
            self.env.run_for(4 * 2 * HOP)
        for link, count in (((watcher, peer), lost), ((peer, watcher), back)):
            if count:
                self._cut(link, count)
        probing = self.detectors[watcher]._probing
        running = peer in probing
        self.detectors[watcher].probe(peer)
        if not running and peer in probing:
            self.probed[pair] = self.env.now
        if dead:
            self.env.run_for(PROBE_WINDOW + SLACK + HOP)

    @precondition(lambda self: len(self.down_since) < len(NAMES))
    @rule(data=st.data())
    def crash(self, data):
        name = data.draw(st.sampled_from(
            [n for n in NAMES if n not in self.down_since]
        ))
        self._crash(name)

    def _crash(self, name):
        self.procs[name].crash()
        self.down_since[name] = self.env.now
        # Its probe runs die with it.
        self.probed = {
            pair: start for pair, start in self.probed.items() if pair[0] != name
        }
        for pair in PAIRS:
            if pair[0] == name:
                self.probes[pair] = []

    @precondition(lambda self: self.down_since)
    @rule(data=st.data())
    def recover(self, data):
        name = data.draw(st.sampled_from(sorted(self.down_since)))
        self.procs[name].recover()
        self.down_spans[name].append((self.down_since.pop(name), self.env.now))
        self.up_since[name] = self.env.now
        assert not self.detectors[name]._probing

    @rule(link=st.sampled_from(PAIRS), count=st.integers(1, 8))
    def drop_next(self, link, count):
        self._cut(link, count)

    @precondition(lambda self: self.cuts)
    @rule()
    def heal(self):
        for link in sorted(self.cuts):
            self._restore(link)

    @rule(seconds=st.sampled_from([0.03, 0.1, 0.25, 0.6, 1.3, 6.0]))
    def advance(self, seconds):
        self.env.run_for(seconds)

    # -- properties ----------------------------------------------------------

    @invariant()
    def completeness(self):
        now = self.env.now
        bound = SPEC_SUSPECT_AFTER + SPEC_INTERVAL + SLACK
        for (watcher, peer), since in self.watching_since.items():
            if watcher in self.down_since or peer not in self.down_since:
                continue
            silent_from = max(
                since, self.down_since[peer], self.up_since[watcher]
            )
            if now - silent_from > bound:
                assert self.detectors[watcher].is_suspected(peer), (
                    watcher, peer, now, silent_from
                )

    @invariant()
    def probe_completeness(self):
        """A peer already down (a hop before, so nothing of it is still in
        flight) when a probe of it started is suspected within one window,
        unless the watcher crashed or re-watched it meanwhile."""
        now = self.env.now
        deadline = PROBE_WINDOW + SLACK
        for (watcher, peer), start in self.probed.items():
            if (
                now - start <= deadline
                or watcher in self.down_since
                or self.watching_since.get((watcher, peer), now) > start
                or self.down_since.get(peer, now) > start - SLACK
            ):
                continue
            first = min(
                (at for at, who, whom, *_ in self.suspicions
                 if (who, whom) == (watcher, peer) and at >= start),
                default=None,
            )
            assert first is not None and first - start <= deadline, (
                watcher, peer, start, first
            )

    @invariant()
    def accuracy(self):
        claimed = SPEC_SUSPECT_AFTER + SPEC_INTERVAL + SLACK
        for at, watcher, peer, silent_from, probed in self.suspicions[self.checked:]:
            start = at - claimed
            was_down = peer in self.down_since or any(
                end > start for _begin, end in self.down_spans[peer]
            )
            lossy = any(
                end is None or end > start
                for link in ((watcher, peer), (peer, watcher))
                for _begin, end in self.disturbed[link]
            )
            assert was_down or lossy, (at, watcher, peer)
            if at - silent_from >= SPEC_SUSPECT_AFTER - 1e-9:
                continue  # the silence deadline
            assert probed is not None and probed >= silent_from, (
                "suspected early with no probe run since last heard",
                at, watcher, peer, probed, silent_from,
            )
            assert at >= probed + PROBE_WINDOW - 1e-9, (at, watcher, peer, probed)
            rounds = [t for t in self.probes[watcher, peer] if probed <= t <= at]
            assert len(rounds) == PROBES, (at, watcher, peer, rounds)
        self.checked = len(self.suspicions)

    @invariant()
    def bounded_leak(self):
        assert self.leaks == []
        now = self.env.now
        for watcher, detector in self.detectors.items():
            if watcher in self.down_since:
                continue  # its probe timers died with it; recover() clears
            for peer in detector._probing:
                assert now - self.probed[watcher, peer] <= PROBE_WINDOW + SLACK, (
                    watcher, peer, now
                )


TestDetectorSpec = DetectorSpec.TestCase
TestDetectorSpec.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)

