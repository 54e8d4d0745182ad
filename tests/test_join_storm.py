"""A join storm directs no reorganisation (docs/hierarchy.md, "Growth
reorganises nothing").

The leader admits joiners into leaves of at most the split threshold and
opens a fresh leaf when every leaf is full, so a group that only grows
should never split or merge: a leaf born for joiners stays off the
size-merge rail while it fills, joiners routed after a leaf's last report
stay counted until a report covers them, and a split-born leaf takes no
joiner until its ``AddLeaf`` carries contacts.  A leaf that stops growing
below ``leaf_min`` is still merged.
"""

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.core.leader import LeaderReplica
from repro.failure.detector import HeartbeatDetector
from repro.net import LanLatency
from repro.proc import Environment

PARAMS = LargeGroupParams(resiliency=3, fanout=8)  # leaves of 8..16
STAGGER = 0.005


def node_kwargs():
    return dict(
        detector_factory=lambda node: HeartbeatDetector(
            node, interval=0.2, suspect_after=1.0
        ),
        gossip_interval=0.5,
    )


def storm(n, seed=1, stagger=STAGGER, prefix=None, env=None, contacts=None):
    leaders = None
    if env is None:
        env = Environment(seed=seed, latency=LanLatency())
        leaders = build_leader_group(env, "svc", PARAMS, **node_kwargs())
        contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", n, PARAMS, contacts, prefix=prefix, join_stagger=stagger,
        **node_kwargs(),
    )
    return env, leaders, contacts, members


def manager_of(leaders) -> LeaderReplica:
    return next(r for r in leaders if r.is_manager)


def reorgs(manager, event):
    return [e for e in manager.reorg_log if e["event"] == event]


def run_until_placed(env, members, limit):
    """Step 10 ms at a time; the logical time everyone was placed."""
    start = env.now
    while not all(m.is_member for m in members):
        assert env.now - start < limit, (
            f"{sum(m.is_member for m in members)}/{len(members)} placed"
        )
        env.run_for(0.01)
    return env.now - start


def test_a_storm_of_256_directs_no_reorganisation():
    n = 256
    env, leaders, _, members = storm(n)
    placed_by = run_until_placed(env, members, limit=30.0)
    manager = manager_of(leaders)
    assert reorgs(manager, "merge-directed") == []
    assert reorgs(manager, "split-directed") == []
    assert placed_by <= n * STAGGER + 0.5
    assert manager.reorg_epoch == n // PARAMS.leaf_split_threshold
    assert sorted(l.size for l in manager.state.leaves.values()) == [16] * 16


def test_no_joiner_is_sent_to_a_split_born_leaf_before_it_is_routable():
    # 32 workers fill two leaves; the 33rd opens a third that stops
    # growing at 1, so it merges into a full leaf, which then splits.
    env, leaders, contacts, first = storm(33)
    manager = manager_of(leaders)
    routed = []  # (leaf_id, routable when a joiner was sent there)
    pick = manager.policy._pick_leaf_for_join

    def recording_pick():
        target = pick()
        if target is not None:
            leaf = manager.state.leaves.get(target[0])
            routed.append((target[0], leaf is not None and bool(leaf.contacts)))
        return target

    manager.policy._pick_leaf_for_join = recording_pick
    run_until_placed(env, first, limit=30.0)
    while not reorgs(manager, "split-directed"):
        assert env.now < 60.0, "the undersized leaf was never merged"
        env.run_for(0.001)
    # A second storm arrives while the split is still in flight.
    _, _, _, second = storm(24, env=env, contacts=contacts, prefix="late",
                            stagger=0.002)
    run_until_placed(env, second, limit=30.0)
    env.run_for(2.0)

    split_born = {e["new"] for e in reorgs(manager, "split-directed")}
    assert split_born
    early = [leaf for leaf, routable in routed if leaf in split_born and not routable]
    assert early == [], f"joiners sent to split-born leaves before AddLeaf: {early}"
    assert all(m.is_member for m in first + second)


def test_growth_that_stops_below_leaf_min_still_merges():
    n = 4 * PARAMS.leaf_split_threshold + 5
    env, leaders, _, members = storm(n)
    run_until_placed(env, members, limit=30.0)
    env.run_for(6.0)
    manager = manager_of(leaders)
    assert all(m.is_member for m in members)
    sizes = {}
    for m in members:
        sizes[m.leaf_id] = sizes.get(m.leaf_id, 0) + 1
    assert set(sizes) == set(manager.state.leaves)
    assert min(sizes.values()) >= PARAMS.leaf_min
    assert min(l.size for l in manager.state.leaves.values()) >= PARAMS.leaf_min
    assert sum(sizes.values()) == n
