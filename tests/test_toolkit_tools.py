"""Tests for replication, mutex and transactions."""

from repro.membership import GroupNode, build_group
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import (
    DistributedMutex,
    ReplicatedDict,
    TransactionCoordinator,
    TransactionResource,
)

import pytest


def make_group(n, name="g", seed=1, env=None):
    env = env if env is not None else Environment(seed=seed, latency=FixedLatency(0.002))
    nodes, members = build_group(env, name, n)
    return env, nodes, members


# -- replicated dict ---------------------------------------------------------------


def test_replicated_dict_converges():
    env, nodes, members = make_group(4)
    dicts = [ReplicatedDict(m) for m in members]
    dicts[0].put("a", 1)
    dicts[2].put("b", 2)
    env.run_for(2.0)
    for d in dicts:
        assert d.get("a") == 1 and d.get("b") == 2
        assert len(d) == 2


def test_replicated_dict_concurrent_writes_same_key_agree():
    env, nodes, members = make_group(5)
    dicts = [ReplicatedDict(m) for m in members]
    for i, d in enumerate(dicts):
        d.put("k", i)  # five concurrent writers
    env.run_for(3.0)
    final = {d.get("k") for d in dicts}
    assert len(final) == 1  # total order -> same last-writer everywhere
    assert all(d.commands_applied == 5 for d in dicts)


def test_replicated_dict_delete_and_clear():
    env, nodes, members = make_group(3)
    dicts = [ReplicatedDict(m) for m in members]
    dicts[0].put("a", 1)
    dicts[0].put("b", 2)
    env.run_for(1.0)
    dicts[1].delete("a")
    env.run_for(1.0)
    assert all("a" not in d and d.get("b") == 2 for d in dicts)
    dicts[2].clear()
    env.run_for(1.0)
    assert all(len(d) == 0 for d in dicts)


def test_replicated_dict_survives_member_crash():
    env, nodes, members = make_group(4)
    dicts = [ReplicatedDict(m) for m in members]
    dicts[0].put("k", "v")
    env.run_for(1.0)
    nodes[0].crash()
    env.run_for(5.0)
    dicts[1].put("k2", "v2")
    env.run_for(2.0)
    for d in dicts[1:]:
        assert d.get("k") == "v" and d.get("k2") == "v2"


def test_replicated_dict_state_transfer_to_joiner():
    env, nodes, members = make_group(3)
    dicts = [ReplicatedDict(m) for m in members]
    dicts[0].put("seed", 123)
    env.run_for(1.0)
    joiner_node = GroupNode(env, "joiner")
    joiner_member = joiner_node.runtime.join_group("g", contact="g-0")
    joiner_dict = ReplicatedDict(joiner_member)
    env.run_for(5.0)
    assert joiner_member.is_member
    assert joiner_dict.get("seed") == 123
    dicts[1].put("post", 9)
    env.run_for(2.0)
    assert joiner_dict.get("post") == 9


# -- mutex -------------------------------------------------------------------------


def test_mutex_grants_in_request_order():
    env, nodes, members = make_group(3)
    locks = [DistributedMutex(m) for m in members]
    order = []
    locks[1].acquire(lambda: order.append("g-1"))
    env.run_for(1.0)
    locks[0].acquire(lambda: order.append("g-0"))
    locks[2].acquire(lambda: order.append("g-2"))
    env.run_for(1.0)
    assert order == ["g-1"]  # held; others queued
    locks[1].release()
    env.run_for(1.0)
    assert len(order) == 2
    [l for l in locks if l.held_by_me][0].release()
    env.run_for(1.0)
    assert sorted(order[1:]) == ["g-0", "g-2"]


def test_mutex_queues_identical_across_members():
    env, nodes, members = make_group(4)
    locks = [DistributedMutex(m) for m in members]
    for lock in locks:
        lock.acquire(lambda: None)
    env.run_for(2.0)
    queues = {tuple(lock.queue) for lock in locks}
    assert len(queues) == 1
    assert len(locks[0].queue) == 4


def test_mutex_holder_crash_releases_lock():
    env, nodes, members = make_group(3)
    locks = [DistributedMutex(m) for m in members]
    got = []
    locks[0].acquire(lambda: got.append("g-0"))
    env.run_for(1.0)
    locks[1].acquire(lambda: got.append("g-1"))
    env.run_for(1.0)
    assert got == ["g-0"]
    nodes[0].crash()
    env.run_for(5.0)
    assert got == ["g-0", "g-1"]
    assert locks[1].held_by_me


def test_mutex_double_acquire_rejected():
    env, nodes, members = make_group(2)
    lock = DistributedMutex(members[0])
    lock.acquire(lambda: None)
    with pytest.raises(RuntimeError):
        lock.acquire(lambda: None)


def test_mutex_release_requires_holding():
    env, nodes, members = make_group(2)
    lock = DistributedMutex(members[0])
    with pytest.raises(RuntimeError):
        lock.release()


def test_two_named_locks_independent():
    env, nodes, members = make_group(2)
    a0 = DistributedMutex(members[0], "lock-a")
    a1 = DistributedMutex(members[1], "lock-a")
    b0 = DistributedMutex(members[0], "lock-b")
    b1 = DistributedMutex(members[1], "lock-b")
    got = []
    a0.acquire(lambda: got.append("a@0"))
    b1.acquire(lambda: got.append("b@1"))
    env.run_for(2.0)
    assert sorted(got) == ["a@0", "b@1"]


# -- transactions -------------------------------------------------------------------


def build_tx(env=None, seed=1):
    env = env if env is not None else Environment(seed=seed, latency=FixedLatency(0.002))
    nodes_a, members_a = build_group(env, "res-a", 3, prefix="ra")
    nodes_b, members_b = build_group(env, "res-b", 3, prefix="rb")
    res_a = [TransactionResource(m, "A") for m in members_a]
    res_b = [TransactionResource(m, "B") for m in members_b]
    tc_node = GroupNode(env, "txc")
    coordinator = TransactionCoordinator(tc_node, rpc=tc_node.runtime.rpc)
    return env, (nodes_a, res_a), (nodes_b, res_b), coordinator


def test_transaction_commits_across_two_resources():
    env, (na, ra), (nb, rb), tc = build_tx()
    outcome = []
    tc.execute(
        {"ra-0": [("x", 1)], "rb-0": [("y", 2)]},
        on_done=outcome.append,
    )
    env.run_for(5.0)
    assert outcome == [True]
    assert all(r.get("x") == 1 for r in ra)
    assert all(r.get("y") == 2 for r in rb)


def test_transaction_conflict_aborts():
    env, (na, ra), (nb, rb), tc = build_tx()
    first, second = [], []
    tc.execute({"ra-0": [("k", "v1")]}, on_done=first.append)
    env.run_for(0.003)  # first prepare voted yes; stage still replicating
    tc.execute({"ra-0": [("k", "v2")], "rb-0": [("z", 1)]}, on_done=second.append)
    env.run_for(10.0)
    assert first == [True]
    assert second == [False]
    assert all(r.get("k") == "v1" for r in ra)
    assert all(r.get("z") is None for r in rb)
    # locks released after both transactions decided
    assert all(not r.locked_keys for r in ra + rb)


def test_transaction_staged_state_replicated_to_cohorts():
    env, (na, ra), (nb, rb), tc = build_tx()
    outcome = []
    tc.execute({"ra-0": [("p", 7)]}, on_done=outcome.append)
    env.run_for(5.0)
    assert outcome == [True]
    # every cohort of the resource group applied the commit
    assert [r.get("p") for r in ra] == [7, 7, 7]


def test_transaction_survives_resource_coordinator_crash_after_prepare():
    env, (na, ra), (nb, rb), tc = build_tx()
    outcome = []
    tc.execute({"ra-0": [("q", 1)]}, on_done=outcome.append)
    env.run_for(0.05)  # prepared & replicated, decision not yet delivered

    def crash_then_check():
        na[0].crash()

    env.scheduler.after(0.0, crash_then_check)
    env.run_for(10.0)
    # decision RPC redirects to the new group coordinator
    assert outcome == [True]
    for r in ra[1:]:
        assert r.get("q") == 1


def test_transaction_timeout_participant_dead_aborts():
    env, (na, ra), (nb, rb), tc = build_tx()
    for node in nb:
        node.crash()
    outcome = []
    tc.execute(
        {"ra-0": [("m", 1)], "rb-0": [("n", 2)]},
        on_done=outcome.append,
    )
    env.run_for(10.0)
    assert outcome == [False]
    assert all(r.get("m") is None for r in ra)
    assert all(not r.locked_keys for r in ra)
