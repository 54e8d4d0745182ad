"""Crash-recovery tests: incarnations, channel epochs, and rejoining."""

from dataclasses import dataclass

from repro.core import (
    JoinLarge,
    LargeGroupMember,
    LargeGroupParams,
    build_large_group,
    build_leader_group,
)
from repro.membership import FIFO, GroupNode, build_group
from repro.membership.events import JoinRequest
from repro.net import FixedLatency
from repro.proc import Environment, Process, RpcRequest
from repro.transport import ReliableTransport


@dataclass
class AppMsg:
    category = "app"
    n: int = 0


class Peer(Process):
    def __init__(self, env, address):
        super().__init__(env, address)
        self.transport = ReliableTransport(self, rto=0.05)
        self.inbox = []
        self.on(AppMsg, lambda m, s: self.inbox.append(m.n))


def test_incarnation_bumps_on_each_recovery():
    env = Environment(seed=1)
    p = Peer(env, "p")
    assert p.incarnation == 0
    p.crash()
    p = p.recover()
    assert p.incarnation == 1
    p.crash()
    p = p.recover()
    assert p.incarnation == 2


def test_fast_reboot_receiver_not_blackholed():
    """The receiver reboots between two sends; without epochs its fresh
    state would treat the sender's next high-seq segment as a gap
    forever."""
    env = Environment(seed=2, latency=FixedLatency(0.005))
    a = Peer(env, "a")
    b = Peer(env, "b")
    for i in range(5):
        a.transport.send("b", AppMsg(i))
    env.run_for(1.0)
    assert b.inbox == [0, 1, 2, 3, 4]
    b.crash()
    b = b.recover()  # fast: a never suspects anything
    a.transport.send("b", AppMsg(99))
    env.run_for(3.0)
    assert 99 in b.inbox


def test_fast_reboot_sender_not_treated_as_duplicates():
    """The sender reboots and restarts sequence numbers; the receiver
    must not discard the new incarnation's seq 1 as an old duplicate."""
    env = Environment(seed=3, latency=FixedLatency(0.005))
    a = Peer(env, "a")
    b = Peer(env, "b")
    for i in range(4):
        a.transport.send("b", AppMsg(i))
    env.run_for(1.0)
    a.crash()
    a = a.recover()
    a.transport.send("b", AppMsg(77))
    env.run_for(3.0)
    assert b.inbox == [0, 1, 2, 3, 77]


def test_unacked_payloads_survive_receiver_reboot():
    """Payloads in flight when the receiver reboots are re-admitted in
    the new epoch and still arrive exactly once, in order."""
    env = Environment(seed=4, latency=FixedLatency(0.005))
    a = Peer(env, "a")
    b = Peer(env, "b")
    a.transport.send("b", AppMsg(1))
    env.run_for(0.5)
    b.crash()
    a.transport.send("b", AppMsg(2))  # vanishes at the dead endpoint
    a.transport.send("b", AppMsg(3))
    env.run_for(0.2)
    successor = b.recover()
    env.run_for(5.0)
    assert (b.inbox, successor.inbox) == ([1], [2, 3])


def test_recovered_node_rejoins_flat_group():
    env = Environment(seed=5, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 4)
    nodes[2].crash()
    env.run_for(5.0)
    assert members[0].view.size == 3
    node = nodes[2].recover()
    # a fresh stack: the old group state died with the old incarnation
    assert not node.runtime.has_group("g")
    rejoined = node.runtime.join_group("g", contact="g-0")
    env.run_for(5.0)
    assert rejoined.is_member
    assert members[0].view.size == 4
    got = []
    rejoined.add_delivery_listener(lambda e: got.append(e.payload.n))
    members[1].multicast(AppMsg(5), FIFO)
    env.run_for(2.0)
    assert got == [5]


def test_recovered_worker_rejoins_large_group():
    env = Environment(seed=6, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", 8, params, contacts)
    env.run_for(10.0)
    victim = members[3]
    victim.node.crash()
    env.run_for(5.0)
    # the application rebuilds its endpoint on the successor, as at start
    victim = LargeGroupMember(victim.node.recover(), "svc", contacts, params=params)
    assert victim.leaf_member is None
    victim.join()
    env.run_for(15.0)
    assert victim.is_member
    manager = next(r for r in leaders if r.is_manager)
    assert manager.state.total_size == 8


def _requests_sent(env, src, body_type):
    """A list that grows by one for each RPC request of ``body_type``
    that ``src`` puts on the wire."""
    sent = []

    def tap(event, envelope):
        payload = envelope.payload
        if (
            envelope.src == src
            and isinstance(payload, RpcRequest)
            and isinstance(payload.body, body_type)
        ):
            sent.append(env.now)

    env.network.add_tap(tap, events=("send",))
    return sent


def test_a_join_in_flight_at_a_crash_is_not_resent_after_recovery():
    """The joiner's JoinRequest is lost and the joiner crashes before
    its retry; once recovered it asks for nothing, so no view ever
    lists a process that holds no group state."""
    env = Environment(seed=8, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 3)
    joiner = GroupNode(env, "j")
    views = []
    for member in members:
        member.add_view_listener(lambda event: views.append(event.view))
    sent = _requests_sent(env, "j", JoinRequest)
    env.network.partitions.cut_link("j", "g-0")
    joiner.runtime.join_group("g", contact="g-0", retry=1.0)
    env.run_for(0.5)
    joiner.crash()
    env.network.partitions.restore_all_links()
    joiner = joiner.recover()
    assert len(sent) == 1
    env.run_for(10.0)
    assert len(sent) == 1
    assert not joiner.runtime.has_group("g")
    assert not any(view.contains("j") for view in views)
    assert all(member.view.members == ("g-0", "g-1", "g-2") for member in members)


def test_a_join_after_recovery_asks_the_leader_once():
    """A worker crashes with its JoinLarge lost and joins again as soon
    as it is back: the old incarnation's request is not retried, so one
    assignment runs, not two."""
    env = Environment(seed=9, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    worker = LargeGroupMember(GroupNode(env, "svc-w-0"), "svc", contacts, params=params)
    sent = _requests_sent(env, "svc-w-0", JoinLarge)
    for contact in contacts:
        env.network.partitions.cut_link("svc-w-0", contact)
    worker.join()
    env.run_for(0.5 * worker.assign_retry)
    worker.node.crash()
    env.network.partitions.restore_all_links()
    worker = LargeGroupMember(worker.node.recover(), "svc", contacts, params=params)
    worker.join()
    env.run_for(15.0)
    assert len(sent) == 2  # the lost one and the new incarnation's
    assert worker.is_member
    manager = next(r for r in leaders if r.is_manager)
    assert manager.state.total_size == 1


def test_repeated_crash_recover_cycles():
    env = Environment(seed=7, latency=FixedLatency(0.002))
    a = Peer(env, "a")
    b = Peer(env, "b")
    expected, got = [], []
    n = 0
    for cycle in range(4):
        for _ in range(3):
            a.transport.send("b", AppMsg(n))
            expected.append(n)
            n += 1
        env.run_for(1.0)
        b.crash()
        got += b.inbox
        b = b.recover()
    env.run_for(5.0)
    assert got + b.inbox == expected
