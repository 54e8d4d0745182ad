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
    KeyRoutedClient,
    attach_hierarchical_service,
)
from repro.workloads.common import WorkloadResult, build_service_cluster

# The client has no key of its own: it places itself by its address.
KEY = "hclient"


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
    node = GroupNode(env, KEY)
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    client = KeyRoutedClient(node, router, timeout=0.5, max_retries=2)
    return env, params, leaders, members, client, router


def test_request_served_normally():
    env, params, leaders, members, client, router = build()
    got = []
    client.request(KEY, "x", got.append)
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
    client.request(KEY, "warm-up", got.append)  # the tree, the set with it
    env.run_for(3.0)
    before = env.network.stats.snapshot()
    client.request(KEY, "x", got.append)
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
    client.request(KEY, "warm-up", got.append)
    env.run_for(3.0)
    assert got, "warm-up request must succeed"
    leaf_id = client.owner_leaf(KEY)
    victims = [m for m in members if m.leaf_id == leaf_id]
    assert victims
    for victim in victims:
        victim.node.crash()
    env.run_for(8.0)  # leader notices the lost leaf
    client.request(KEY, "after-leaf-death", got.append)
    env.run_for(20.0)
    assert got[-1] == ("served", "after-leaf-death")
    # the router was re-pointed at a different leaf
    assert client.owner_leaf(KEY) not in (None, leaf_id)


def test_client_failure_callback_when_service_gone():
    env, params, leaders, members, client, router = build(workers=4)
    for m in members:
        m.node.crash()
    for r in leaders:
        r.node.crash()
    env.run_for(3.0)
    got, failed = [], []
    client.request(KEY, "void", got.append, on_failure=lambda: failed.append(1))
    env.run_for(60.0)
    assert got == []
    assert failed == [1]


def test_a_client_cut_off_from_every_leaf_fails_after_one_fresh_assignment():
    """The leader still answers, so a client that re-asked on every
    failure would ask for as long as the cut lasts: it fetches the tree
    once more, then reports the failure and sends nothing more."""
    env, params, leaders, members, client, router = build(workers=10)
    got = []
    client.request(KEY, "warm-up", got.append)
    env.run_for(3.0)
    assert got
    for member in members:
        env.network.partitions.cut_link(KEY, member.node.address)
        env.network.partitions.cut_link(member.node.address, KEY)
    sent = []
    env.network.add_tap(
        lambda _event, envelope: envelope.src == KEY and sent.append(env.now),
        events=("send",),
    )
    failed = []
    client.request(KEY, "cut-off", got.append, on_failure=lambda: failed.append(env.now))
    env.run_for(30.0)
    assert got == [("served", "warm-up")]
    assert len(failed) == 1
    assert max(sent) < failed[0]


def test_requests_spread_over_reassignments():
    env, params, leaders, members, client, router = build(workers=12)
    got = []
    for i in range(5):
        client.request(KEY, i, got.append)
    env.run_for(5.0)
    assert sorted(r[1] for r in got) == list(range(5))


def test_a_client_of_a_service_with_no_workers_fails_once():
    """No worker has joined, so the tree has no leaf to place on: the
    request fails once, after one tree fetch, and no ``CCRequest`` is
    ever sent."""
    env = Environment(seed=3, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    env.run_for(2.0)
    node = GroupNode(env, KEY)
    router = ServiceRouter(node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts)
    client = KeyRoutedClient(node, router)
    sent = []
    env.network.add_tap(
        lambda _event, e: sent.append(type(getattr(e.payload, "body", e.payload)).__name__)
        if e.src == KEY else None,
        events=("send",),
    )
    got, failed = [], []
    client.request(KEY, "void", got.append, on_failure=lambda: failed.append(env.now))
    env.run_for(10.0)
    assert got == []
    assert len(failed) == 1
    assert sent == ["GetHierarchyInfo"]


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
