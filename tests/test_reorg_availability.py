"""Availability through reorganisation: client requests keep succeeding
while leaves split (growth) and merge (shrinkage) under them — the §4
compatibility promise that applications keep working as the group scales.
"""

from repro.core import (
    LargeGroupMember,
    LargeGroupParams,
    ServiceRouter,
    build_large_group,
    build_leader_group,
)
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import KeyRoutedClient, attach_hierarchical_service


def build(workers, seed=1):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=2)  # small leaves: churn
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", workers, params, contacts)
    servers = attach_hierarchical_service(
        members, lambda payload, client: ("ok", payload)
    )
    env.run_for(5.0 + 0.5 * workers)
    node = GroupNode(env, "steady-client")
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    client = KeyRoutedClient(node, router, timeout=0.8, max_retries=4)
    return env, params, leaders, members, contacts, client


def steady_stream(env, client, start, duration, rate=4.0):
    got, failed = [], []
    count = int(duration * rate)
    for i in range(count):
        env.scheduler.at(
            start + (i + 1) / rate,
            lambda i=i: client.request(
                client.process.address,
                i,
                on_reply=lambda v: got.append(v),
                on_failure=lambda: failed.append(1),
            ),
        )
    return got, failed, count


def test_requests_survive_growth_splits():
    env, params, leaders, members, contacts, client = build(6)
    manager = next(r for r in leaders if r.is_manager)
    splits_before = sum(
        1 for e in manager.events if e[0] == "split-directed"
    )
    start = env.now
    got, failed, count = steady_stream(env, client, start, duration=12.0)
    # Join 7 more workers during the stream.  Growth alone splits
    # nothing (joiners fill leaves to the threshold, then open a new one),
    # but the 7th opens a leaf that stops growing below leaf_min: it merges
    # into a full leaf, and that oversized leaf splits mid-traffic.
    joiners = []
    for j in range(7):
        node = GroupNode(env, f"grow-{j}")
        member = LargeGroupMember(node, "svc", contacts)
        joiners.append(member)
        env.scheduler.at(start + 1.0 + j * 0.8, member.join)
    env.run_for(30.0)
    splits_after = sum(
        1 for e in manager.events if e[0] == "split-directed"
    )
    assert splits_after > splits_before, "growth must have caused a split"
    assert all(j.is_member for j in joiners)
    assert not failed
    assert len(got) == count


def test_requests_survive_shrinkage_merges():
    env, params, leaders, members, contacts, client = build(10, seed=3)
    manager = next(r for r in leaders if r.is_manager)
    start = env.now
    got, failed, count = steady_stream(env, client, start, duration=12.0)
    # crash workers one by one until leaves shrink below the floor
    victims = [m for m in members][:6]
    for index, victim in enumerate(victims):
        env.scheduler.at(start + 1.0 + index * 1.2, victim.node.crash)
    env.run_for(40.0)
    live = [m for m in members if m.node.alive]
    assert all(m.is_member for m in live)
    # the service stayed available throughout
    assert not failed
    assert len(got) == count
    # leader accounting consistent at the end
    actual = {}
    for m in live:
        actual.setdefault(m.leaf_id, set()).add(m.me)
    assert set(actual) == set(manager.state.leaves)
