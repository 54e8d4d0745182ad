"""End-to-end tests of hierarchical large groups: leader replication, join
routing, split/merge, bounded failure handling, total-failure detection."""

from repro.core import (
    GetHierarchyInfo,
    LargeGroupMember,
    LargeGroupParams,
    build_large_group,
    build_leader_group,
)
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.proc import Environment, Rpc


def build_service(
    n_workers,
    resiliency=2,
    fanout=4,
    seed=1,
    join_stagger=0.05,
    settle=None,
    **params_kw,
):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout, **params_kw)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", n_workers, params, contacts, join_stagger=join_stagger
    )
    env.run_for(settle if settle is not None else 5.0 + 0.2 * n_workers)
    return env, params, leaders, members


def manager(leaders):
    for replica in leaders:
        if replica.is_manager and replica.node.alive:
            return replica
    raise AssertionError("no live manager")


def check_consistency(params, leaders, members):
    """Cross-check replicated leader state against actual leaf views."""
    mgr = manager(leaders)
    state = mgr.state
    placed = [m for m in members if m.is_member]
    # every placed member's leaf is known to the leader
    leaf_ids = set(state.leaves)
    for m in placed:
        assert m.leaf_id in leaf_ids, f"{m.me} in unknown leaf {m.leaf_id}"
    # leader's size accounting matches reality
    actual = {}
    for m in placed:
        actual.setdefault(m.leaf_id, set()).add(m.me)
    for leaf_id, members_set in actual.items():
        assert state.leaf(leaf_id).size == len(members_set)
    # every member of a leaf agrees on that leaf's view
    for leaf_id, members_set in actual.items():
        views = {
            tuple(m.leaf_member.view.members)
            for m in placed
            if m.leaf_id == leaf_id
        }
        assert len(views) == 1
    return state, actual


def test_leader_group_elects_manager():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=3, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    env.run_for(1.0)
    managers = [r for r in leaders if r.is_manager]
    assert len(managers) == 1
    assert managers[0].node.address == leaders[0].node.address


def test_single_worker_creates_first_leaf():
    env, params, leaders, members = build_service(1)
    assert members[0].is_member
    assert members[0].leaf_size == 1
    state, actual = check_consistency(params, leaders, members)
    assert len(state.leaves) == 1


def test_workers_fill_leaves_within_bounds():
    env, params, leaders, members = build_service(12, resiliency=2, fanout=4)
    assert all(m.is_member for m in members)
    state, actual = check_consistency(params, leaders, members)
    # no leaf beyond the split threshold once things settle
    for leaf in state.leaves.values():
        assert leaf.size <= params.leaf_split_threshold


def test_split_happens_when_leaf_overflows():
    env, params, leaders, members = build_service(
        10, resiliency=2, fanout=2, settle=20.0
    )  # leaf_min=2, split at >4
    state, actual = check_consistency(params, leaders, members)
    assert len(state.leaves) >= 2
    for leaf in state.leaves.values():
        assert leaf.size <= params.leaf_split_threshold


def test_leader_replicas_converge():
    env, params, leaders, members = build_service(8)
    env.run_for(3.0)
    states = [(r.state.leaves, len(r.state.branches)) for r in leaders]
    for leaves, branches in states[1:]:
        assert leaves == states[0][0]
        assert branches == states[0][1]


def test_member_failure_contained_to_leaf():
    env, params, leaders, members = build_service(16, resiliency=2, fanout=4)
    state, actual = check_consistency(params, leaders, members)
    victim = members[3]
    victim_leaf = victim.leaf_id
    peers = [m for m in members if m.leaf_id == victim_leaf and m is not victim]
    others = [m for m in members if m.leaf_id != victim_leaf and m.is_member]
    other_views_before = {m.me: m.leaf_member.view.seq for m in others}
    victim.node.crash()
    env.run_for(5.0)
    # leaf-mates ran a view change
    for peer in peers:
        assert not peer.leaf_member.view.contains(victim.me)
    # members of other leaves saw no view change at all
    for m in others:
        if m.is_member:
            assert m.leaf_member.view.seq == other_views_before[m.me]
    # leader's summary updated
    mgr = manager(leaders)
    assert mgr.state.leaf(victim_leaf).size == len(peers)


def test_leaf_coordinator_failure_recovers():
    env, params, leaders, members = build_service(8, resiliency=2, fanout=4)
    state, actual = check_consistency(params, leaders, members)
    # crash a leaf coordinator specifically
    coordinators = [m for m in members if m.is_leaf_coordinator]
    victim = coordinators[0]
    leaf_id = victim.leaf_id
    victim.node.crash()
    env.run_for(8.0)
    mgr = manager(leaders)
    if leaf_id in mgr.state.leaves:
        leaf = mgr.state.leaf(leaf_id)
        assert victim.me not in leaf.contacts
        survivors = [
            m for m in members if m.leaf_id == leaf_id and m.node.alive
        ]
        assert leaf.size == len(survivors)


def test_total_leaf_failure_detected_and_removed():
    env, params, leaders, members = build_service(12, resiliency=2, fanout=4)
    state, actual = check_consistency(params, leaders, members)
    # kill every member of one leaf "simultaneously"
    leaf_id = sorted(actual)[0]
    victims = [m for m in members if m.leaf_id == leaf_id]
    for v in victims:
        v.node.crash()
    env.run_for(10.0)
    mgr = manager(leaders)
    assert leaf_id not in mgr.state.leaves
    assert ("leaf-lost", leaf_id) in mgr.events
    # the rest of the service is untouched
    survivors = [m for m in members if m.node.alive and m.is_member]
    assert len(survivors) == 12 - len(victims)


def test_manager_failure_promotes_replica():
    env, params, leaders, members = build_service(8, resiliency=3)
    old_manager = manager(leaders)
    old_manager.node.crash()
    env.run_for(5.0)
    new_manager = manager(leaders)
    assert new_manager is not old_manager
    # the new manager can still place joiners
    node = GroupNode(env, "late-worker")
    late = LargeGroupMember(
        node, "svc", tuple(r.node.address for r in leaders)
    )
    late.join()
    env.run_for(8.0)
    assert late.is_member


def test_merge_after_shrinkage():
    env, params, leaders, members = build_service(
        8, resiliency=2, fanout=4, settle=15.0
    )  # leaf_min=4
    state, actual = check_consistency(params, leaders, members)
    if len(state.leaves) < 2:
        # force two leaves by crashing nothing; skip if layout is single-leaf
        return
    # shrink one leaf below the minimum by crashing members
    leaf_id = sorted(actual, key=lambda l: len(actual[l]))[0]
    leaf_members = [m for m in members if m.leaf_id == leaf_id]
    for victim in leaf_members[: len(leaf_members) - 1]:
        victim.node.crash()
    env.run_for(20.0)
    mgr = manager(leaders)
    # the undersized leaf was merged away (or all members moved)
    live = [m for m in members if m.node.alive]
    assert all(m.is_member for m in live)
    sizes = [leaf.size for leaf in mgr.state.leaves.values()]
    assert all(s >= 1 for s in sizes)
    assert any(kind == "merge-directed" for kind, *_ in mgr.events)


def test_hierarchy_info_rpc():
    env, params, leaders, members = build_service(8)
    probe = GroupNode(env, "prober")
    rpc = probe.runtime.rpc
    infos = []
    rpc.call(
        manager(leaders).node.address,
        GetHierarchyInfo(service="svc"),
        on_reply=lambda value, sender: infos.append(value),
    )
    env.run_for(1.0)
    state = manager(leaders).state
    assert state.total_size == 8
    assert infos and infos[0]["depth"] == state.depth() >= 2
    assert list(infos[0]["leaves"]) == sorted(state.leaves)


def test_larger_scale_hundred_workers():
    env, params, leaders, members = build_service(
        100, resiliency=3, fanout=8, settle=40.0
    )
    placed = [m for m in members if m.is_member]
    assert len(placed) == 100
    state, actual = check_consistency(params, leaders, members)
    for leaf in state.leaves.values():
        assert leaf.size <= params.leaf_split_threshold
    assert state.max_branch_children() <= 8
