"""Tests for the partitioned replicated store over hierarchical groups."""

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import PartitionedStoreClient, PartitionedStoreServer


def build_store(workers=12, seed=1, fanout=4, resiliency=2, settle=None):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", workers, params, contacts)
    servers = [PartitionedStoreServer(m) for m in members]
    env.run_for(settle if settle is not None else 5.0 + 0.3 * workers)
    node = GroupNode(env, "store-client")
    client = PartitionedStoreClient(
        node, node.runtime.rpc, contacts, service="svc"
    )
    return env, params, leaders, members, servers, client


# -- placement ------------------------------------------------------------------


def test_the_client_the_router_and_the_manager_place_every_key_alike():
    """One key -> leaf rule: the store client's owner, the leaf its router
    resolves the key to, and the manager's ``place_key`` are one leaf."""
    env, params, leaders, members, servers, client = build_store(workers=16)
    manager = next(r for r in leaders if r.is_manager)
    keys = [f"k{i}" for i in range(300)]
    assert client.owner_leaf(keys[0]) is None  # no tree held yet, no message
    placements = []
    for key in keys:
        client.router.resolve_key(key, placements.append)
    env.run_for(1.0)
    assert client.router.placement_lookups == 1
    owners = [manager.state.place_key(key) for key in keys]
    assert [client.owner_leaf(key) for key in keys] == owners
    assert [group for group, _ in placements] == owners
    assert len(set(owners)) == len(manager.state.leaves) > 1


def test_a_store_with_no_leaves_answers_none():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", LargeGroupParams(resiliency=2, fanout=4))
    env.run_for(3.0)
    node = GroupNode(env, "store-client")
    contacts = tuple(r.node.address for r in leaders)
    client = PartitionedStoreClient(node, node.runtime.rpc, contacts, "svc")
    got, done = [], []
    client.get("k", got.append)
    client.put("k", 1, done.append)
    env.run_for(3.0)
    assert (got, done) == ([None], [False])
    assert client.owner_leaf("k") is None


def test_a_client_cut_off_from_the_owner_leaf_is_answered_after_one_reroute():
    """A request whose leaf stops answering re-routes once over a fresh
    tree; when the fresh tree names the same unreachable leaf, the client
    answers ``None`` instead of re-routing for as long as it stays cut off."""
    env, params, leaders, members, servers, client = build_store()
    client.put("cut", 1, lambda ok: None)
    env.run_for(2.0)
    leaf_id = client.owner_leaf("cut")
    for member in members:
        if member.leaf_id == leaf_id:
            env.network.partitions.cut_link(client.process.address, member.me)
            env.network.partitions.cut_link(member.me, client.process.address)
    lookups = client.router.placement_lookups
    got, start = [], env.now
    client.get("cut", lambda value: got.append((value, env.now - start)))
    env.run_for(60.0)
    assert [value for value, _ in got] == [None]
    # two coordinator-cohort give-ups ((max_retries + 1) timeouts each),
    # and one tree fetch between them
    assert got[0][1] <= 2 * 4 * 1.0 + 1.0
    assert client.router.placement_lookups == lookups + 1


# -- end to end ----------------------------------------------------------------------


def test_put_then_get_roundtrip():
    env, params, leaders, members, servers, client = build_store()
    done, got = [], []
    client.put("alpha", 1, done.append)
    env.run_for(3.0)
    client.get("alpha", got.append)
    env.run_for(3.0)
    assert done == [True]
    assert got == [1]


def test_keys_spread_across_leaves():
    env, params, leaders, members, servers, client = build_store(workers=16)
    oks = []
    keys = [f"key-{i}" for i in range(20)]
    for key in keys:
        client.put(key, key.upper(), oks.append)
    env.run_for(8.0)
    assert oks == [True] * 20
    owners = {client.owner_leaf(key) for key in keys}
    assert len(owners) >= 2, "keys should be partitioned across leaves"


def test_get_missing_key_returns_none():
    env, params, leaders, members, servers, client = build_store()
    got = []
    client.get("ghost", got.append)
    env.run_for(3.0)
    assert got == [None]


def test_delete_removes_key():
    env, params, leaders, members, servers, client = build_store()
    client.put("k", 9, lambda ok: None)
    env.run_for(2.0)
    client.delete("k", lambda ok: None)
    env.run_for(2.0)
    got = []
    client.get("k", got.append)
    env.run_for(2.0)
    assert got == [None]


def test_value_replicated_within_owner_leaf():
    env, params, leaders, members, servers, client = build_store(workers=12)
    client.put("replicated-key", 42, lambda ok: None)
    env.run_for(4.0)
    leaf_id = client.owner_leaf("replicated-key")
    replicas = [
        s for s, m in zip(servers, members) if m.leaf_id == leaf_id and m.is_member
    ]
    assert len(replicas) >= 2
    assert all(s.local_value("replicated-key") == 42 for s in replicas)


def test_value_survives_owner_leaf_coordinator_crash():
    env, params, leaders, members, servers, client = build_store(workers=12)
    client.put("durable", "v1", lambda ok: None)
    env.run_for(4.0)
    leaf_id = client.owner_leaf("durable")
    leaf_members = [m for m in members if m.leaf_id == leaf_id and m.is_member]
    coordinator = next(m for m in leaf_members if m.is_leaf_coordinator)
    coordinator.node.crash()
    env.run_for(6.0)
    got = []
    client.get("durable", got.append)
    env.run_for(8.0)
    assert got == ["v1"]


def test_concurrent_writers_converge():
    env, params, leaders, members, servers, client = build_store(workers=8)
    node2 = GroupNode(env, "store-client-2")
    contacts = tuple(r.node.address for r in leaders)
    client2 = PartitionedStoreClient(node2, node2.runtime.rpc, contacts, "svc")
    for i in range(5):
        client.put(f"shared-{i}", f"a{i}", lambda ok: None)
        client2.put(f"shared-{i}", f"b{i}", lambda ok: None)
    env.run_for(8.0)
    # whatever won, every replica of the owning leaf agrees
    for i in range(5):
        leaf_id = client.owner_leaf(f"shared-{i}")
        values = {
            s.local_value(f"shared-{i}")
            for s, m in zip(servers, members)
            if m.leaf_id == leaf_id and m.is_member
        }
        assert len(values) == 1
        assert values.pop() in (f"a{i}", f"b{i}")
