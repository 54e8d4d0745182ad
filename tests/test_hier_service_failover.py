"""Failover tests for the hierarchical service client path: leaf death,
router invalidation, redirect handling."""

import pytest

from repro.core import LargeGroupParams, ServiceRouter, build_large_group, build_leader_group
from repro.core.views import CohortSet
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import (
    CoordinatorCohortClient,
    HierarchicalClient,
    attach_hierarchical_service,
)
from repro.workloads.common import WorkloadResult, build_service_cluster


def build(workers=10, seed=1, fanout=2, resiliency=2):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", workers, params, contacts)
    servers = attach_hierarchical_service(
        members, lambda payload, client: ("served", payload)
    )
    env.run_for(5.0 + 0.4 * workers)
    node = GroupNode(env, "hclient")
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    client = HierarchicalClient(node, router, timeout=0.5, max_retries=2)
    return env, params, leaders, members, client, router


def test_request_served_normally():
    env, params, leaders, members, client, router = build()
    got = []
    client.request("x", got.append)
    env.run_for(3.0)
    assert got == [("served", "x")]


def test_request_to_a_sixteen_member_leaf_costs_2r():
    """The e2e leaf shape: resiliency 3, fanout 8, one full leaf of 16.
    A request involves the leaf's cohort set only — 3 requests in, 1
    reply, 2 result copies — not the 32 messages of the whole leaf."""
    env, params, leaders, members, client, router = build(
        workers=16, fanout=8, resiliency=3
    )
    assert {m.leaf_size for m in members} == {16}
    got = []
    client.request("warm-up", got.append)  # the assignment, the set with it
    env.run_for(3.0)
    before = env.network.stats.snapshot()
    client.request("x", got.append)
    env.run_for(3.0)
    assert got == [("served", "warm-up"), ("served", "x")]
    delta = env.network.stats.since(before).by_category
    assert {c: n for c, n in delta.items() if c.startswith("cc-")} == {
        "cc-request": 3, "cc-reply": 1, "cc-result": 2,
    }


@pytest.mark.parametrize("settle", [0.0, 1.0], ids=["takeover", "corrected-reply"])
def test_a_stale_directory_entry_costs_no_retry_timer(settle):
    """The leaf's coordinator crashes after the router fetched the tree and
    before the first request, so the directory entry the client starts
    from names a dead coordinator.  The request is still answered inside
    the client's timeout and with no ``GetMembers``: by the takeover when
    it reaches the set before the view change (``settle`` 0), by a member
    that is already coordinator otherwise.  Either reply carries the new
    view's set."""
    env, params, leaders, members, client, router = build(
        workers=16, fanout=8, resiliency=3
    )
    node = client.process
    placements = []
    router.resolve_key("k", placements.append)
    env.run_for(0.1)
    (group, contacts), = placements
    assert isinstance(contacts, CohortSet)
    env.crash(contacts[0])
    env.run_for(settle)

    sent = []
    env.network.add_tap(
        lambda _event, e: sent.append(type(getattr(e.payload, "body", e.payload)).__name__)
        if e.src == node.address else None,
        events=("send",),
    )
    timeout = 1.0
    cc = CoordinatorCohortClient(
        node, group, contacts=contacts, rpc=router.rpc, timeout=timeout, max_retries=3
    )
    got = []
    t0 = env.now
    cc.request("first", lambda result: got.append((env.now - t0, result)))
    env.run_for(2 * timeout)
    (latency, result), = got
    assert result == ("served", "first")
    assert latency < timeout
    assert sent == ["CCRequest"] * 3  # one attempt, no GetMembers
    view = next(m for m in members if m.node.alive).leaf_member.view
    assert contacts[0] not in view.members
    assert cc._members == view.members[:3]


def test_client_fails_over_when_assigned_leaf_dies():
    env, params, leaders, members, client, router = build(workers=10)
    got = []
    client.request("warm-up", got.append)
    env.run_for(3.0)
    assert got, "warm-up request must succeed"
    leaf_group, _contacts = router.cached_assignment
    leaf_id = leaf_group.split("::", 1)[1]
    victims = [m for m in members if m.leaf_id == leaf_id]
    assert victims
    for victim in victims:
        victim.node.crash()
    env.run_for(8.0)  # leader notices the lost leaf
    client.request("after-leaf-death", got.append)
    env.run_for(20.0)
    assert got[-1] == ("served", "after-leaf-death")
    # the router was re-pointed at a different leaf
    new_leaf_group, _ = router.cached_assignment
    assert new_leaf_group != leaf_group


def test_client_failure_callback_when_service_gone():
    env, params, leaders, members, client, router = build(workers=4)
    for m in members:
        m.node.crash()
    for r in leaders:
        r.node.crash()
    env.run_for(3.0)
    got, failed = [], []
    client.request("void", got.append, on_failure=lambda: failed.append(1))
    env.run_for(60.0)
    assert got == []
    assert failed == [1]


def test_requests_spread_over_reassignments():
    env, params, leaders, members, client, router = build(workers=12)
    got = []
    for i in range(5):
        client.request(i, got.append)
    env.run_for(5.0)
    assert sorted(r[1] for r in got) == list(range(5))
    assert client.requests_sent == 5


# -- workloads/common ---------------------------------------------------------------


def test_workload_result_delivery_ratio_defaults():
    result = WorkloadResult(name="x", duration=1.0)
    assert result.delivery_ratio == 1.0
    result.events_published = 4
    result.events_delivered = 8
    result.extra["expected_deliveries"] = 16
    assert result.delivery_ratio == 0.5


def test_service_cluster_accessors():
    cluster = build_service_cluster("svc", 6, resiliency=2, fanout=4, seed=9)
    assert len(cluster.leader_contacts) == 2
    assert cluster.manager_root.replica.is_manager
    assert len(cluster.live_members()) == 6
    cluster.members[0].node.crash()
    assert len(cluster.live_members()) == 5
