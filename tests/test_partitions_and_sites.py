"""Tests for §5 future-work features: network partitions (primary
partition rule) and long-distance (multi-site) links."""

from dataclasses import dataclass

from repro.failure import HeartbeatDetector
from repro.membership import FIFO, TOTAL, GroupData, GroupNode, build_group
from repro.net import FixedLatency, SiteLatency
from repro.proc import Environment
from repro.sim import SimRandom


@dataclass
class App:
    category = "app"
    tag: str = ""


def heartbeat_factory(node):
    return HeartbeatDetector(node, interval=0.1, suspect_after=0.5)


def build_partitionable(n, primary_partition, seed=1):
    """A group whose members use heartbeat detection, so a network
    partition converts into mutual suspicion between the islands."""
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    nodes, members = build_group(
        env,
        "g",
        n,
        detector_factory=heartbeat_factory,
        primary_partition=primary_partition,
        gossip_interval=None,
    )
    env.run_for(1.0)
    return env, nodes, members


# -- split brain without the rule -----------------------------------------------------


def test_without_rule_partition_causes_split_brain():
    env, nodes, members = build_partitionable(5, primary_partition=False)
    minority = {"g-0", "g-1"}
    majority = {"g-2", "g-3", "g-4"}
    env.network.partitions.partition(minority, majority)
    env.run_for(10.0)
    minority_views = {tuple(members[i].view.members) for i in (0, 1)}
    majority_views = {tuple(members[i].view.members) for i in (2, 3, 4)}
    # both sides installed views excluding the other: divergence
    assert minority_views == {("g-0", "g-1")}
    assert majority_views == {("g-2", "g-3", "g-4")}


# -- primary-partition rule -------------------------------------------------------------


def test_primary_partition_only_majority_progresses():
    env, nodes, members = build_partitionable(5, primary_partition=True)
    minority = {"g-0", "g-1"}
    majority = {"g-2", "g-3", "g-4"}
    env.network.partitions.partition(minority, majority)
    env.run_for(10.0)
    # majority side excluded the minority and continues
    for i in (2, 3, 4):
        assert members[i].view.members == ("g-2", "g-3", "g-4")
    # minority side stalls at the old view rather than forming its own
    for i in (0, 1):
        assert members[i].view.seq == 1
        assert set(members[i].view.members) == {f"g-{j}" for j in range(5)}


def test_primary_partition_majority_keeps_serving():
    env, nodes, members = build_partitionable(5, primary_partition=True)
    env.network.partitions.partition({"g-0", "g-1"}, {"g-2", "g-3", "g-4"})
    env.run_for(10.0)
    delivered = []
    for i in (2, 3, 4):
        members[i].add_delivery_listener(
            lambda e, me=i: delivered.append((me, e.payload.tag))
        )
    members[2].multicast(App("still-alive"), FIFO)
    env.run_for(2.0)
    assert sorted(delivered) == [(2, "still-alive"), (3, "still-alive"), (4, "still-alive")]


def test_primary_partition_exact_half_stalls_both_sides():
    """With an even split neither side holds a strict majority: nobody
    may install a new view (safety over liveness)."""
    env, nodes, members = build_partitionable(4, primary_partition=True)
    env.network.partitions.partition({"g-0", "g-1"}, {"g-2", "g-3"})
    env.run_for(10.0)
    for m in members:
        assert m.view.seq == 1  # nobody moved


def test_minority_rejoins_after_heal():
    env, nodes, members = build_partitionable(5, primary_partition=True)
    env.network.partitions.partition({"g-0", "g-1"}, {"g-2", "g-3", "g-4"})
    env.run_for(10.0)
    env.network.partitions.heal()
    env.run_for(2.0)
    # stranded members discard their stale state and join afresh
    rejoined = [
        nodes[i].runtime.rejoin_group("g", contact="g-2") for i in (0, 1)
    ]
    env.run_for(10.0)
    assert all(m.is_member for m in rejoined)
    final = members[2].view
    assert set(final.members) == {"g-0", "g-1", "g-2", "g-3", "g-4"}
    assert all(m.view == final for m in rejoined)


def test_primary_partition_still_handles_real_crashes():
    """The quorum rule must not break ordinary minority-of-failures
    handling: 2 of 5 crash, the 3 survivors are a majority and proceed."""
    env, nodes, members = build_partitionable(5, primary_partition=True)
    nodes[1].crash()
    nodes[3].crash()
    env.run_for(10.0)
    for i in (0, 2, 4):
        assert members[i].view.members == ("g-0", "g-2", "g-4")


def test_abcast_reaching_the_sequencer_during_an_abandoned_flush_is_ordered():
    """g-1's abcast reaches the sequencer g-0 only while g-0 is flushing
    g-4 out.  The sequencer orders nothing mid-flush — the view change
    places such data — but this flush is abandoned: g-2 and g-3 go silent
    towards g-0, so the survivors fall below quorum and no view is
    installed.  The sequencer must then stamp the abcast itself and
    forward the stamped copy to the others, g-1 included."""
    env, nodes, members = build_partitionable(5, primary_partition=True)
    network = env.network.partitions
    stamped = []

    def tap(_event, envelope):
        payload = getattr(envelope.payload, "payload", envelope.payload)
        if isinstance(payload, GroupData) and payload.global_seq is not None:
            stamped.append((envelope.src, envelope.dst, payload.global_seq))

    env.network.add_tap(tap, events=("send",))
    got = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(lambda e, me=m.me: got[me].append(e.payload.tag))
    network.cut_link("g-1", "g-0")
    members[1].multicast(App("late"), TOTAL)
    nodes[4].crash()  # g-0 suspects it, and starts the flush, at ~1.5 s
    env.scheduler.after(
        0.3, lambda: [network.cut_link(m, "g-0") for m in ("g-2", "g-3")]
    )
    # g-1's retransmission reaches the flushing sequencer; g-0 then drops
    # g-2 and g-3 from the flush at ~1.7 s and abandons it.
    env.scheduler.after(0.6, lambda: network.restore_link("g-1", "g-0"))
    env.run_for(2.0)
    assert all(m.view.seq == 1 for m in members)
    assert all(got[f"g-{i}"] == ["late"] for i in range(4)), got
    assert {(src, dst) for src, dst, _seq in stamped} == {
        ("g-0", f"g-{i}") for i in (1, 2, 3, 4)
    }
    assert {seq for _src, _dst, seq in stamped} == {1}


# -- long-distance links ------------------------------------------------------------


def test_site_latency_intra_vs_inter():
    model = SiteLatency(
        local=FixedLatency(0.001), wan_delay=0.05, wan_jitter=0.0
    )
    rng = SimRandom(1)
    assert model.sample(rng, "nyc.a", "nyc.b", 100) == 0.001
    assert abs(model.sample(rng, "nyc.a", "sfo.b", 100) - 0.051) < 1e-12
    # single-token addresses share the implicit site
    assert model.sample(rng, "a", "b", 100) == 0.001


def test_site_latency_jitter_bounds():
    model = SiteLatency(
        local=FixedLatency(0.001), wan_delay=0.04, wan_jitter=0.5
    )
    rng = SimRandom(2)
    for _ in range(50):
        sample = model.sample(rng, "x.a", "y.b", 100)
        assert 0.001 + 0.02 <= sample <= 0.001 + 0.06


def test_site_latency_custom_site_map():
    model = SiteLatency(
        local=FixedLatency(0.001),
        wan_delay=0.03,
        wan_jitter=0.0,
        site_of=lambda a: a[-1],
    )
    rng = SimRandom(3)
    assert model.sample(rng, "p1", "q1", 10) == 0.001
    assert abs(model.sample(rng, "p1", "p2", 10) - 0.031) < 1e-12


def test_group_spanning_sites_works_with_wan_latency():
    env = Environment(
        seed=4,
        latency=SiteLatency(local=FixedLatency(0.001), wan_delay=0.03, wan_jitter=0.0),
    )
    addresses = ["nyc.0", "nyc.1", "sfo.0", "sfo.1"]
    nodes = [GroupNode(env, a, gossip_interval=None) for a in addresses]
    members = [n.runtime.create_group("wan", addresses) for n in nodes]
    arrivals = {}
    for m in members:
        m.add_delivery_listener(
            lambda e, me=m.me: arrivals.setdefault(me, env.now)
        )
    members[0].multicast(App("cross-country"), FIFO)
    env.run_for(2.0)
    assert set(arrivals) == set(addresses)
    # same-site delivery is much earlier than cross-site delivery
    assert arrivals["nyc.1"] < 0.01
    assert arrivals["sfo.0"] >= 0.03
