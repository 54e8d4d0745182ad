"""Failure injection for the tree broadcast: relay crashes, leaf crashes,
atomicity under partial dissemination, duplicated and lost stage
messages, deep trees, stage cleanup, and determinism properties."""

from repro.core import (
    LargeGroupParams,
    TreecastRoot,
    attach_treecast,
    build_large_group,
    build_leader_group,
    build_spec,
)
from repro.core.treecast import TreeAck, TreeCastLeaf
from repro.net import FixedLatency
from repro.proc import Environment


def build_service(n_workers, fanout=3, resiliency=2, seed=1, settle=None):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", n_workers, params, contacts)
    participants = attach_treecast(members)
    roots = [TreecastRoot(r, ack_timeout=3.0) for r in leaders]
    env.run_for(settle if settle is not None else 5.0 + 0.3 * n_workers)
    root = next(r for r in roots if r.replica.is_manager)
    return env, params, leaders, members, participants, root


def find_relay(root):
    """A relay process for some branch subtree (None if single level)."""
    spec = build_spec(root.replica.state)
    for child in spec.children:
        return child.relay
    return None


def test_relay_crash_non_atomic_still_covers_other_subtrees():
    env, params, leaders, members, participants, root = build_service(
        30, fanout=3, settle=25.0
    )
    relay = find_relay(root)
    assert relay is not None, "need a multi-level tree for this test"
    env.crash(relay)
    root.broadcast("partial-cover")
    env.run_for(8.0)
    assert root.completed and root.completed[0]["timed_out"]
    delivered = sum(
        1
        for p in participants
        if p.member.node.alive and ("partial-cover" in [x for _b, x in p.delivered])
    )
    live = sum(1 for p in participants if p.member.node.alive and p.member.is_member)
    # some subtrees are lost with the relay, the rest still deliver
    assert 0 < delivered < live


def test_relay_crash_atomic_broadcast_never_commits():
    env, params, leaders, members, participants, root = build_service(
        30, fanout=3, settle=25.0
    )
    relay = find_relay(root)
    assert relay is not None
    env.crash(relay)
    root.broadcast("must-not-commit", atomic=True)
    env.run_for(10.0)
    info = root.completed[0]
    assert info["timed_out"] and not info["committed"]
    # atomicity: nobody delivered (payload stays buffered, never committed)
    for p in participants:
        assert all(payload != "must-not-commit" for _b, payload in p.delivered)


def test_atomic_broadcast_with_healthy_tree_commits_everywhere():
    env, params, leaders, members, participants, root = build_service(
        30, fanout=3, settle=25.0
    )
    root.broadcast("all-or-nothing", atomic=True)
    env.run_for(8.0)
    info = root.completed[0]
    assert info["committed"] and not info["timed_out"]
    live = [p for p in participants if p.member.is_member]
    assert all(
        [payload for _b, payload in p.delivered] == ["all-or-nothing"]
        for p in live
    )


def test_leaf_member_crash_mid_broadcast_leaf_still_acks_with_resiliency():
    env, params, leaders, members, participants, root = build_service(
        12, fanout=4, resiliency=2
    )
    # crash one non-coordinator member of some leaf just before broadcast
    victim = next(
        m for m in members if m.is_member and not m.is_leaf_coordinator
    )
    victim.node.crash()
    root.broadcast("resilient", atomic=True)
    env.run_for(10.0)
    info = root.completed[0]
    assert info["committed"], "r=2 acks available despite one member down"
    live = [p for p in participants if p.member.node.alive and p.member.is_member]
    assert all(
        "resilient" in [payload for _b, payload in p.delivered] for p in live
    )


def test_broadcasts_deterministic_across_reruns():
    def run(seed):
        env, params, leaders, members, participants, root = build_service(
            18, fanout=3, seed=seed, settle=15.0
        )
        root.broadcast("det-1")
        root.broadcast("det-2")
        env.run_for(8.0)
        return [
            (p.member.me, tuple(payload for _b, payload in p.delivered))
            for p in participants
        ], env.network.stats.messages

    first = run(99)
    second = run(99)
    assert first == second


def test_sequential_atomic_broadcasts_ordered_per_leaf_sender():
    env, params, leaders, members, participants, root = build_service(12)
    for i in range(4):
        root.broadcast(f"cfg-{i}", atomic=True)
    env.run_for(15.0)
    live = [p for p in participants if p.member.is_member]
    for p in live:
        payloads = [payload for _b, payload in p.delivered]
        assert sorted(payloads) == [f"cfg-{i}" for i in range(4)]


def stage_edges(spec):
    """Parent-to-child edges of the broadcast tree (leaf targets included)."""
    return len(spec.leaf_targets) + sum(
        1 + stage_edges(child) for child in spec.children
    )


def delivered_count(participants, payload):
    return sum(
        1 for p in participants if payload in [x for _b, x in p.delivered]
    )


def test_an_atomic_broadcast_commits_once_per_edge_then_falls_quiet():
    env, params, leaders, members, participants, root = build_service(
        30, fanout=3, settle=25.0
    )
    spec = build_spec(root.replica.state)
    assert spec.children, "need a multi-level tree for this test"
    acked = []
    env.network.add_tap(
        lambda event, envelope: acked.append(envelope.payload.stage)
        if isinstance(envelope.payload, TreeAck) else None,
        events=("send",),
    )
    before = env.network.stats.snapshot()
    root.broadcast("once", atomic=True)
    env.run_for(1.0)
    sent = env.network.stats.since(before).by_category
    assert root.completed[0]["committed"]
    # Every stage acks its parent exactly once; the commit crosses each
    # edge once.
    assert sorted(acked) == sorted(set(acked)) and len(acked) == stage_edges(spec)
    assert sent["treecast-commit"] == stage_edges(spec)
    assert delivered_count(participants, "once") == 30
    quiet = env.network.stats.snapshot()
    env.run_for(1.0)
    later = env.network.stats.since(quiet).by_category
    assert not any(
        later.get(category)
        for category in (
            "treecast-relay", "treecast-leaf", "treecast-ack",
            "treecast-commit", "group-data",
        )
    ), later


def test_a_three_level_tree_completes_plain_and_atomic():
    # 10 leaves at fanout 3 need branches under branches: the relay for
    # the upper branch also runs the stage of its first child branch.
    env, params, leaders, members, participants, root = build_service(
        60, fanout=3, settle=40.0
    )
    spec = build_spec(root.replica.state)
    assert spec.stage_count() == 3
    root.broadcast("plain")
    env.run_for(2.0)
    root.broadcast("atomic", atomic=True)
    env.run_for(2.0)
    plain, atomic = root.completed
    assert not plain["timed_out"] and not atomic["timed_out"]
    assert atomic["committed"]
    assert delivered_count(participants, "plain") == 60
    assert delivered_count(participants, "atomic") == 60


def test_a_duplicated_ack_does_not_stand_in_for_a_lost_leaf():
    env, params, leaders, members, participants, root = build_service(
        30, fanout=3, settle=25.0
    )
    spec = build_spec(root.replica.state)
    assert len(spec.children) >= 2, "need two relays for this test"
    nodes = {p.node.address: p.node for p in participants}
    # One relay's ack to the root arrives twice ...
    doubler = nodes[spec.children[0].relay]
    send_a = doubler.send

    def send_twice(dst, payload):
        send_a(dst, payload)
        if isinstance(payload, TreeAck) and dst == root.node.address:
            send_a(dst, payload)

    doubler.send = send_twice
    # ... and another relay's first leaf cast is lost.
    dropper = nodes[spec.children[1].relay]
    send_b = dropper.send
    lost = []

    def lose_one(dst, payload):
        if isinstance(payload, TreeCastLeaf) and not lost:
            lost.append(dst)
            return
        send_b(dst, payload)

    dropper.send = lose_one
    root.broadcast("all-or-none", atomic=True)
    env.run_for(5.0)
    assert lost
    info = root.completed[0]
    assert info["timed_out"] and not info["committed"]
    assert delivered_count(participants, "all-or-none") == 0


def test_stage_tables_are_empty_once_broadcasts_finish():
    env, params, leaders, members, participants, root = build_service(
        60, fanout=3, settle=40.0
    )
    root.broadcast("plain")
    root.broadcast("atomic", atomic=True)
    env.run_for(2.0)
    assert [c["timed_out"] for c in root.completed] == [False, False]
    assert not root._stages
    for p in participants:
        assert not p._stages and not p._leaves
