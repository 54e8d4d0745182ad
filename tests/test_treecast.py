"""Tests for the tree-structured (atomic) broadcast over the hierarchy."""

from repro.core import (
    LargeGroupParams,
    TreecastRoot,
    attach_treecast,
    build_large_group,
    build_leader_group,
    build_spec,
)
from repro.core.views import AddLeaf, HierarchyState
from repro.net import FixedLatency
from repro.proc import Environment


def build_service(n_workers, resiliency=2, fanout=4, seed=1, settle=None):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", n_workers, params, contacts)
    participants = attach_treecast(members)
    roots = [TreecastRoot(r) for r in leaders]
    env.run_for(settle if settle is not None else 5.0 + 0.2 * n_workers)
    manager_root = next(r for r in roots if r.replica.is_manager)
    return env, leaders, members, participants, manager_root


# -- spec construction (pure) ---------------------------------------------------------


def test_build_spec_empty_hierarchy():
    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=4))
    assert build_spec(state) is None


def test_build_spec_single_level():
    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=4))
    for i in range(3):
        state.apply(AddLeaf(f"l{i}", size=4, contacts=(f"c{i}", f"d{i}")))
    spec = build_spec(state)
    assert len(spec.leaf_targets) == 3
    assert spec.children == ()
    assert spec.stage_count() == 1


def test_build_spec_multi_level_fanout_bound():
    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=3))
    for i in range(20):
        state.apply(AddLeaf(f"l{i:02d}", size=4, contacts=(f"c{i}",)))
    spec = build_spec(state)

    def check(node):
        assert len(node.leaf_targets) + len(node.children) <= 3
        for child in node.children:
            check(child)

    check(spec)
    assert spec.stage_count() >= 2


def test_build_spec_skips_contactless_leaves():
    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=4))
    state.apply(AddLeaf("l0", size=0, contacts=()))
    assert build_spec(state) is None


# -- end-to-end -----------------------------------------------------------------------


def test_broadcast_reaches_every_member():
    env, leaders, members, participants, root = build_service(12)
    done = []
    root.broadcast({"cmd": "refresh"}, on_complete=done.append)
    env.run_for(3.0)
    for p in participants:
        assert len(p.delivered) == 1
        assert p.delivered[0][1] == {"cmd": "refresh"}
    assert done and not done[0]["timed_out"]


def test_broadcast_exactly_once_per_member():
    env, leaders, members, participants, root = build_service(10)
    for i in range(3):
        root.broadcast(f"msg-{i}")
    env.run_for(5.0)
    for p in participants:
        payloads = [payload for _bid, payload in p.delivered]
        assert sorted(payloads) == ["msg-0", "msg-1", "msg-2"]


def test_atomic_broadcast_commits_after_acks():
    env, leaders, members, participants, root = build_service(12)
    root.broadcast("atomic-payload", atomic=True)
    env.run_for(5.0)
    for p in participants:
        assert [payload for _b, payload in p.delivered] == ["atomic-payload"]
    assert root.completed and root.completed[0]["committed"]


def test_atomic_broadcast_buffers_until_commit():
    env, leaders, members, participants, root = build_service(8)
    root.broadcast("held", atomic=True)
    # Immediately after the leaf stage but before the root can have
    # collected acks, nothing must be delivered.
    env.run_for(0.004)  # two network hops only
    assert all(len(p.delivered) == 0 for p in participants)
    env.run_for(5.0)
    assert all(len(p.delivered) == 1 for p in participants)


def test_broadcast_via_rpc_request():
    from repro.core.treecast import TreeBroadcastRequest
    from repro.membership import GroupNode

    env, leaders, members, participants, root = build_service(8)
    client = GroupNode(env, "client-x")
    replies = []
    client.runtime.rpc.call(
        root.node.address,
        TreeBroadcastRequest(service="svc", payload="from-client"),
        on_reply=lambda value, sender: replies.append(value),
    )
    env.run_for(3.0)
    assert replies and replies[0][0] == "started"
    for p in participants:
        assert [payload for _b, payload in p.delivered] == ["from-client"]


def test_listener_callbacks_fire():
    env, leaders, members, participants, root = build_service(6)
    heard = []
    participants[0].add_listener(lambda payload, bid: heard.append(payload))
    root.broadcast("ping")
    env.run_for(3.0)
    assert heard == ["ping"]


def test_per_process_direct_fanout_bounded():
    """The E8 property: during a tree broadcast no process unicasts
    tree-stage messages to more destinations than the branch fanout."""
    fanout = 3
    env, leaders, members, participants, root = build_service(
        30, resiliency=2, fanout=fanout, settle=25.0
    )
    before = env.network.stats.snapshot()
    root.broadcast("bounded")
    env.run_for(5.0)
    delta = env.network.stats.since(before)
    tree_cats = {"treecast-relay", "treecast-leaf"}
    # The stats count sends per category, not per sender: verify the
    # per-process bound through the spec's shape instead.
    state = root.replica.state
    spec = build_spec(state)

    def max_out(node):
        own = len(node.leaf_targets) + len(node.children)
        return max([own] + [max_out(c) for c in node.children])

    assert max_out(spec) <= fanout
    # and the broadcast still reached everyone
    placed = [p for p in participants if p.member.is_member]
    assert all(len(p.delivered) == 1 for p in placed)


def test_broadcast_with_crashed_leaf_times_out_but_covers_rest():
    env, leaders, members, participants, root = build_service(12)
    # kill one whole leaf an instant before broadcasting, before the
    # leader can have noticed
    leaf_id = members[0].leaf_id
    victims = [m for m in members if m.leaf_id == leaf_id]
    for v in victims:
        v.node.crash()
    root.ack_timeout = 2.0
    root.broadcast("partial")
    env.run_for(10.0)
    live = [p for p in participants if p.member.node.alive and p.member.is_member]
    for p in live:
        assert [payload for _b, payload in p.delivered] == ["partial"]
    assert root.completed
