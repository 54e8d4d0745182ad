"""Grand-tour integration test: every major subsystem composed in one
scenario, surviving churn.

A 24-worker hierarchical service runs simultaneously: a causal status
post inside one leaf, a partitioned replicated store, atomic whole-group
reconfiguration via treecast, and client request traffic — while workers
crash, a worker recovers and rejoins, and the leader manager fails over.
The test then checks every subsystem's invariants at once.
"""

from dataclasses import dataclass

from repro.core import (
    LargeGroupMember,
    LargeGroupParams,
    TreecastParticipant,
    TreecastRoot,
    attach_treecast,
    build_large_group,
    build_leader_group,
)
from repro.membership import CAUSAL, GroupNode
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import PartitionedStoreClient, PartitionedStoreServer


@dataclass
class StatusPost:
    category = "status-post"
    body: str


def test_grand_tour():
    env = Environment(seed=1234, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", 24, params, contacts)
    participants = attach_treecast(members)
    roots = [TreecastRoot(r) for r in leaders]
    stores = [PartitionedStoreServer(m) for m in members]
    env.run_for(15.0)

    # a leaf-local status post: listen on each worker's current leaf group
    heard = {m.me: [] for m in members}

    def listener(me):
        def on_delivery(event):
            if isinstance(event.payload, StatusPost):
                heard[me].append(event.payload.body)

        return on_delivery

    for m in members:
        m.leaf_member.add_delivery_listener(listener(m.me))

    client_node = GroupNode(env, "tour-client")
    store_client = PartitionedStoreClient(
        client_node, client_node.runtime.rpc, contacts, "svc"
    )

    # phase 1: normal operation
    oks = []
    for i in range(10):
        store_client.put(f"key-{i}", i * i, oks.append)
    members[0].leaf_member.multicast(StatusPost("leaf-0-hello"), CAUSAL)
    env.run_for(5.0)
    assert oks == [True] * 10

    # phase 2: churn — crash two workers and the manager, recover one
    members[5].node.crash()
    members[11].node.crash()
    old_manager = next(r for r in leaders if r.is_manager)
    old_manager.node.crash()
    env.run_for(10.0)
    # the application rebuilds worker 5's layers on its successor, as at start
    dead = members[5]
    members[5] = LargeGroupMember(dead.node.recover(), "svc", contacts, params=params)
    participants[5] = TreecastParticipant(members[5])
    stores[5] = PartitionedStoreServer(members[5])
    members[5].join()
    env.run_for(15.0)

    # phase 3: atomic reconfiguration through the new manager
    new_root = next(
        r for r in roots if r.replica.is_manager and r.node.alive
    )
    assert new_root.replica is not old_manager
    new_root.broadcast({"recipe": "tour"}, atomic=True)
    env.run_for(8.0)

    # phase 4: more store traffic after all the churn.  A get whose cached
    # set names a member that has since left the set is forwarded once,
    # so replies need not come back in issue order.
    got = [None] * 10
    for i in range(10):
        store_client.get(f"key-{i}", lambda value, i=i: got.__setitem__(i, value))
    env.run_for(10.0)

    # ---- invariants across every subsystem ----
    live = [m for m in members if m.node.alive]
    assert all(m.is_member for m in live)
    assert members[5].is_member  # recovered and rejoined
    assert members[5].node is env.process("svc-w-5") and not dead.node.alive

    # leader state matches reality at the new manager
    manager = next(r for r in leaders if r.is_manager and r.node.alive)
    actual = {}
    for m in live:
        actual.setdefault(m.leaf_id, set()).add(m.me)
    assert set(actual) == set(manager.state.leaves)
    for leaf_id, who in actual.items():
        assert manager.state.leaf(leaf_id).size == len(who)

    # partitioned store: every key still readable (its leaf survived or
    # the data lived in a surviving leaf)
    survived = [v for v in got if v is not None]
    assert len(survived) >= 8  # at most the crashed workers' leaf lost data
    for i, value in enumerate(got):
        if value is not None:
            assert value == i * i

    # atomic reconfiguration reached every live participant exactly once
    for p in participants:
        if p.member.node.alive and p.member.is_member:
            payloads = [x for _b, x in p.delivered]
            assert payloads.count({"recipe": "tour"}) == 1

    # the post stayed leaf-local: only leaf-0's original members heard it
    hearers = {me for me, msgs in heard.items() if "leaf-0-hello" in msgs}
    assert hearers  # someone heard it
    assert len(hearers) <= params.leaf_split_threshold
