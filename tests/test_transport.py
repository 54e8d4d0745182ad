"""Unit tests for the reliable FIFO transport over a lossy network."""

from dataclasses import dataclass

from repro.net import FixedLatency
from repro.proc import Environment, Process
from repro.transport import ReliableTransport


@dataclass
class AppMsg:
    category = "app"
    n: int = 0


class Peer(Process):
    def __init__(self, env, address, rto=0.05):
        super().__init__(env, address)
        self.transport = ReliableTransport(self, rto=rto)
        self.inbox = []
        self.on(AppMsg, lambda m, s: self.inbox.append((m.n, s)))


def make_pair(drop=0.0, dup=0.0, seed=1):
    env = Environment(
        seed=seed,
        latency=FixedLatency(0.005),
        drop_probability=drop,
        duplicate_probability=dup,
    )
    return env, Peer(env, "a"), Peer(env, "b")


def test_delivery_on_clean_network():
    env, a, b = make_pair()
    a.transport.send("b", AppMsg(1))
    env.run_for(1.0)
    assert b.inbox == [(1, "a")]


def test_fifo_order_preserved():
    env, a, b = make_pair()
    for i in range(20):
        a.transport.send("b", AppMsg(i))
    env.run_for(2.0)
    assert [n for n, _ in b.inbox] == list(range(20))


def test_all_messages_arrive_despite_heavy_loss():
    env, a, b = make_pair(drop=0.4)
    for i in range(30):
        a.transport.send("b", AppMsg(i))
    env.run_for(20.0)
    assert [n for n, _ in b.inbox] == list(range(30))


def test_duplicates_suppressed():
    env, a, b = make_pair(dup=0.5)
    for i in range(30):
        a.transport.send("b", AppMsg(i))
    env.run_for(20.0)
    assert [n for n, _ in b.inbox] == list(range(30))


def test_loss_and_duplication_together():
    env, a, b = make_pair(drop=0.3, dup=0.3, seed=7)
    for i in range(25):
        a.transport.send("b", AppMsg(i))
    env.run_for(30.0)
    assert [n for n, _ in b.inbox] == list(range(25))


def test_bidirectional_channels_are_independent():
    env, a, b = make_pair()
    a.transport.send("b", AppMsg(1))
    b.transport.send("a", AppMsg(2))
    env.run_for(1.0)
    assert b.inbox == [(1, "a")]
    assert a.inbox == [(2, "b")]


def test_unacked_drains_to_zero():
    env, a, b = make_pair(drop=0.3)
    for i in range(10):
        a.transport.send("b", AppMsg(i))
    env.run_for(20.0)
    assert a.transport.unacked_count("b") == 0


def test_retransmit_stops_after_abandon():
    env, a, b = make_pair()
    b.crash()
    a.transport.send("b", AppMsg(1))
    env.run_for(1.0)
    assert a.transport.unacked_count("b") == 1
    a.transport.abandon("b")
    before = env.network.stats.snapshot()
    env.run_for(1.0)
    delta = env.network.stats.since(before)
    assert delta.by_category.get("app", 0) == 0


def test_send_many_delivers_to_all():
    env = Environment(seed=3, latency=FixedLatency(0.005), drop_probability=0.2)
    sender = Peer(env, "s")
    receivers = [Peer(env, f"r{i}") for i in range(5)]
    sender.transport.send_many([r.address for r in receivers], AppMsg(9))
    env.run_for(10.0)
    assert all(r.inbox == [(9, "s")] for r in receivers)


def test_send_many_uses_hardware_multicast_when_aligned():
    env = Environment(seed=3, latency=FixedLatency(0.005), hardware_multicast=True)
    sender = Peer(env, "s")
    receivers = [Peer(env, f"r{i}") for i in range(4)]
    before = env.network.stats.snapshot()
    sender.transport.send_many([r.address for r in receivers], AppMsg(1))
    env.run_for(0.01)  # before any ack/retransmit traffic
    delta = env.network.stats.since(before)
    assert delta.by_category["app"] == 4  # segments report inner category
    # one wire packet for the 4-way multicast (plus one per unicast ack)
    acks = delta.by_category.get("transport-ack", 0)
    assert delta.wire_packets - acks == 1


def test_crashed_receiver_messages_not_delivered_but_flow_resumes_to_others():
    env, a, b = make_pair()
    b.crash()
    a.transport.send("b", AppMsg(1))
    env.run_for(0.5)
    assert b.inbox == []
