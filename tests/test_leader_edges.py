"""Edge-case tests for the leader replica, runtime multi-group support and
membership corner cases."""

from repro.core import (
    GetHierarchyInfo,
    JoinLarge,
    LargeGroupMember,
    LargeGroupParams,
    ReportLeafStatus,
    TreeBroadcastRequest,
    TreecastRoot,
    UpdateLeaf,
    attach_treecast,
    build_large_group,
    build_leader_group,
)
from repro.membership import FIFO, GroupNode, NotMemberError, build_group
from repro.net import FixedLatency
from repro.proc import Environment

import pytest


def build_service(n=8, seed=1, resiliency=3, fanout=4):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", n, params, contacts)
    env.run_for(5.0 + 0.3 * n)
    return env, params, leaders, members


def rpc_once(env, node, target, body, timeout=1.0):
    replies = []
    node.runtime.rpc.call(
        target, body, on_reply=lambda v, s: replies.append(v), timeout=timeout
    )
    env.run_for(timeout + 1.0)
    return replies


# -- leader RPC behaviour -------------------------------------------------------------


def test_non_manager_replica_redirects_joins():
    env, params, leaders, members = build_service()
    probe = GroupNode(env, "probe")
    replica = leaders[1]  # not the manager
    assert not replica.is_manager
    replies = rpc_once(
        env, probe, replica.node.address, JoinLarge(service="svc", joiner="probe")
    )
    assert replies and replies[0][0] == "redirect"
    assert replies[0][1] == leaders[0].node.address


def test_non_manager_redirects_reports():
    env, params, leaders, members = build_service()
    probe = GroupNode(env, "probe")
    target = leaders[2].node.address
    replies = rpc_once(
        env,
        probe,
        target,
        ReportLeafStatus(service="svc", leaf_id="x", size=1, contacts=("probe",)),
    )
    assert replies and replies[0][0] == "redirect"


def test_a_report_follows_the_redirect_to_the_manager():
    """A leaf coordinator whose leader contacts list the manager last:
    the first replica redirects its report to the manager, which gets it
    on the second call, one round trip later."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=3, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    reports = []

    def tap(_event, envelope):
        if isinstance(getattr(envelope.payload, "body", None), ReportLeafStatus):
            reports.append((env.now, envelope.dst))

    env.network.add_tap(tap, events=("send",))
    worker = LargeGroupMember(
        GroupNode(env, "w"), "svc", contacts[::-1], params=params
    )
    worker.join()
    env.run_for(2.0)
    assert worker.is_leaf_coordinator
    (first, _), (second, manager) = reports[:2]
    assert manager == leaders[0].node.address and leaders[0].is_manager
    assert second + 0.002 - first < 0.01
    assert len(reports) == 2


def suspicion_window(n=0, with_treecast=False):
    """A service whose ``svc-ldr-1`` suspects the manager ``svc-ldr-0``
    with no view change: the window between a suspicion and the view that
    removes the suspect, held open."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=3, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", n, params, contacts)
    roots = [TreecastRoot(r) for r in leaders] if with_treecast else []
    if with_treecast:
        attach_treecast(members)
    env.run_for(1.0 + 0.3 * n)
    leaders[1].member._suspects.add(contacts[0])
    return env, params, leaders, members, roots


@pytest.mark.parametrize("contacts", [(1, 2, 0), (1,)], ids=["all", "successor"])
def test_a_join_in_the_suspicion_window_is_placed_by_the_successor(contacts):
    """A replica that suspects the manager is the leader group's acting
    coordinator, so it manages: a joiner that asks it first is placed on
    that call, with no ``assign_retry`` wait, even when it is the joiner's
    only contact."""
    env, params, leaders, _, _ = suspicion_window()
    asked = []
    env.network.add_tap(
        lambda _event, envelope: isinstance(
            getattr(envelope.payload, "body", None), JoinLarge
        ) and asked.append(envelope.dst),
        events=("send",),
    )
    addresses = tuple(leaders[i].node.address for i in contacts)
    worker = LargeGroupMember(GroupNode(env, "w"), "svc", addresses, params=params)
    assert leaders[1].is_manager
    worker.join()
    env.run_for(0.010)
    assert asked == [leaders[1].node.address]
    assert worker.is_member


def test_a_report_in_the_suspicion_window_is_applied():
    """A leaf coordinator's report that reaches the manager's suspecting
    successor is answered, not redirected back to its replier, and the
    leader group applies it as an ``UpdateLeaf``."""
    env, params, leaders, members, _ = suspicion_window(n=4)
    successor = leaders[1]
    (leaf,) = successor.state.leaves.values()
    report = ReportLeafStatus(
        service="svc", leaf_id=leaf.leaf_id, size=leaf.size, contacts=leaf.contacts
    )
    applied = len(successor.events)
    replies = rpc_once(env, GroupNode(env, "probe"), successor.node.address, report)
    assert replies == [("ok",)]
    update = UpdateLeaf(leaf_id=leaf.leaf_id, size=leaf.size, contacts=leaf.contacts)
    assert ("op", update) in successor.events[applied:]


def test_a_treecast_request_in_the_suspicion_window_is_started():
    """A ``TreeBroadcastRequest`` that reaches the manager's suspecting
    successor is started there, not refused with a redirect to itself."""
    env, params, leaders, members, roots = suspicion_window(n=4, with_treecast=True)
    replies = rpc_once(
        env, GroupNode(env, "probe"), leaders[1].node.address,
        TreeBroadcastRequest(service="svc", payload="hello"),
    )
    assert replies and replies[0][0] == "started"
    assert roots[1].completed and not roots[1].completed[0]["timed_out"]


def leafwatches(replica):
    """The leaf coordinators ``replica``'s process watches as a manager."""
    tag = f"{replica.service}/leafwatch"
    return sorted(
        address for address, groups in replica.node.runtime._watch_refs.items()
        if tag in groups
    )


def test_a_replica_excluded_from_the_leader_group_lets_its_leaf_watches_go():
    """``svc-ldr-1`` falsely suspects the manager and installs a leader
    view without it.  The excluded ``svc-ldr-0`` manages no more, so it
    watches no leaf coordinator, and the successor watches all four."""
    env, params, leaders, members = build_service(n=32)
    manager, successor = leaders[0], leaders[1]
    coordinators = sorted(l.coordinator for l in manager.state.leaves.values())
    assert len(coordinators) == 4 and leafwatches(manager) == coordinators
    for listener in successor.node.runtime.detector._listeners:
        listener(manager.node.address)
    env.run_for(3.0)
    assert manager.member.excluded and not manager.is_manager
    assert leafwatches(manager) == []
    assert successor.is_manager and leafwatches(successor) == coordinators


def test_stale_leaf_report_acknowledged_as_stale():
    env, params, leaders, members = build_service()
    probe = GroupNode(env, "probe")
    manager = leaders[0]
    replies = rpc_once(
        env,
        probe,
        manager.node.address,
        ReportLeafStatus(
            service="svc", leaf_id="never-existed", size=3, contacts=("probe",)
        ),
    )
    assert replies == [("stale",)]
    assert "never-existed" not in manager.state.leaves


def test_hierarchy_info_served_by_any_replica():
    env, params, leaders, members = build_service()
    probe = GroupNode(env, "probe")
    # info is read-only; even a cohort replica answers from its replica
    replies = rpc_once(
        env, probe, leaders[1].node.address, GetHierarchyInfo(service="svc")
    )
    state = leaders[1].state
    assert state.total_size == 8
    assert replies and list(replies[0]["leaves"]) == sorted(state.leaves)


def test_leader_events_record_ops_and_decisions():
    env, params, leaders, members = build_service()
    kinds = {e[0] for e in leaders[0].events}
    assert {"op", "leaf-created"} <= kinds
    assert {e[0] for e in leaders[1].events} == {"op"}


# -- runtime multi-group behaviour -----------------------------------------------------


def test_one_process_in_two_groups_routes_independently():
    env = Environment(seed=5, latency=FixedLatency(0.002))
    shared = GroupNode(env, "shared")
    others_a = [GroupNode(env, f"a{i}") for i in range(2)]
    others_b = [GroupNode(env, f"b{i}") for i in range(2)]
    ga_members = ["shared", "a0", "a1"]
    gb_members = ["shared", "b0", "b1"]
    ga = [shared.runtime.create_group("ga", ga_members)] + [
        n.runtime.create_group("ga", ga_members) for n in others_a
    ]
    gb = [shared.runtime.create_group("gb", gb_members)] + [
        n.runtime.create_group("gb", gb_members) for n in others_b
    ]
    got_a, got_b = [], []
    ga[1].add_delivery_listener(lambda e: got_a.append(e.payload))
    gb[1].add_delivery_listener(lambda e: got_b.append(e.payload))

    from dataclasses import dataclass

    @dataclass
    class Note:
        category = "note"
        text: str = ""

    ga[0].multicast(Note("to-a"), FIFO)
    gb[0].multicast(Note("to-b"), FIFO)
    env.run_for(1.0)
    assert [n.text for n in got_a] == ["to-a"]
    assert [n.text for n in got_b] == ["to-b"]
    assert shared.runtime.has_group("ga") and shared.runtime.has_group("gb")
    assert len(shared.runtime.groups) == 2


def test_forget_group_stops_participation():
    env = Environment(seed=6, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 3)
    nodes[2].runtime.forget_group("g")
    assert not nodes[2].runtime.has_group("g")
    # the others eventually exclude the silent member on flush timeout;
    # in the meantime their multicasts still flow to each other
    from dataclasses import dataclass

    @dataclass
    class Note:
        category = "note"
        text: str = ""

    got = []
    members[1].add_delivery_listener(lambda e: got.append(e.payload.text))
    members[0].multicast(Note("still-works"), FIFO)
    env.run_for(1.0)
    assert got == ["still-works"]


def test_create_group_requires_self_in_membership():
    env = Environment(seed=7)
    node = GroupNode(env, "x")
    with pytest.raises(ValueError):
        node.runtime.create_group("g", ["someone-else"])


def test_duplicate_group_membership_rejected():
    env = Environment(seed=8)
    node = GroupNode(env, "x")
    node.runtime.create_group("g", ["x"])
    with pytest.raises(ValueError):
        node.runtime.create_group("g", ["x"])
    with pytest.raises(ValueError):
        node.runtime.join_group("g", contact="y")


def test_left_member_cannot_multicast():
    env = Environment(seed=9, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 3)
    members[2].leave()
    env.run_for(3.0)
    assert members[2].left
    with pytest.raises(NotMemberError):
        members[2].multicast("nope", FIFO)
