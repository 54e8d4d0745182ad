"""The stability plane in a live group (docs/comms.md): members report
what moved to the coordinator, the coordinator announces the floors that
moved — 2(k-1) small messages per busy round, none when idle, O(k) state
off the coordinator, floors that lag but never lead, and a fresh start in
every view."""

from dataclasses import dataclass

import pytest

from repro.membership import FIFO, TOTAL, StabilityGossip, build_group
from repro.metrics.sanitizer import install_sanitizer
from repro.net import FixedLatency
from repro.proc import Environment

GOSSIP = 0.5


@dataclass
class App:
    category = "app"
    n: int = 0


def make(k, seed=1):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", k, gossip_interval=GOSSIP)
    return env, nodes, members


def gossip_sends(env):
    """(time, src, dst, StabilityGossip) of every hop sent from now on."""
    log = []

    def tap(_event, envelope):
        if envelope.category == "group-stability":
            log.append((env.now, envelope.src, envelope.dst, envelope.payload.payload))

    env.network.add_tap(tap, events=("send",))
    return log


def floors_never_lead(members):
    """Every member's floor for every sender is at most what every live
    member of its view has actually received."""
    for m in members:
        if not m.runtime.process.alive or not m.is_member:
            continue
        peers = [p for p in members if p.me in m.view.members and p.view == m.view]
        for sender in m.view.members:
            true_min = min(p._stability.watermarks()[sender] for p in peers)
            assert m._stability.stable_floor(sender) <= true_min, (m.me, sender)


@pytest.mark.parametrize("k", [8, 16, 32])
def test_busy_round_is_k_minus_1_reports_then_k_minus_1_floors(k):
    env, _nodes, members = make(k)
    sanitizer = install_sanitizer(members, strict=True)
    log = gossip_sends(env)
    env.run_for(0.6)  # between two ticks
    for i, member in enumerate(members):
        member.multicast(App(i), TOTAL if i % 2 else FIFO)
    env.run_for(0.3)
    assert log == []  # nothing leaves between ticks
    env.run_for(0.3)  # the tick at 1.0: everyone tells the coordinator
    others = sorted(m.me for m in members[1:])
    assert sorted(src for _at, src, _dst, _g in log) == others
    assert {dst for _at, _src, dst, _g in log} == {"g-0"}
    assert all(at == pytest.approx(1.0) for at, *_ in log)
    # a report carries the k entries that moved, not a table
    assert all(len(g.delivered) == k for *_, g in log)
    del log[:]
    env.run_for(0.5)  # the tick at 1.5: the coordinator tells everyone
    assert [src for _at, src, _dst, _g in log] == ["g-0"] * (k - 1)
    assert sorted(dst for _at, _src, dst, _g in log) == others
    assert len({id(g) for *_, g in log}) == 1  # one announcement, k-1 copies
    assert log[0][3].delivered == {m.me: 1 for m in members}
    assert log[0][3].ordered == k // 2
    del log[:]
    env.run_for(10 * GOSSIP)  # and that was all: 2(k-1), never more
    assert log == []
    for member in members:
        assert member._stability.log_size() == 0
        assert member._engines[TOTAL].known_orders() == []
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


def test_idle_group_sends_nothing_in_either_direction():
    env, _nodes, members = make(16)
    log = gossip_sends(env)
    env.run_for(10 * GOSSIP)
    assert log == []
    assert env.network.stats.messages == 0


def test_only_the_coordinator_keeps_a_table():
    _env, _nodes, members = make(16)
    table = members[0]._stability._peer_view
    assert sorted(table) == sorted(m.me for m in members)
    assert all(len(row) == 16 for row in table.values())
    assert all(m._stability._peer_view is None for m in members[1:])


def test_logs_stay_bounded_and_floors_never_lead_under_5000_multicasts():
    rate = 500
    env, _nodes, members = make(8)
    sanitizer = install_sanitizer(members, strict=True)
    log = gossip_sends(env)
    sent = [0]

    def load():
        sent[0] += 1
        members[sent[0] % 8].multicast(App(sent[0]), TOTAL if sent[0] % 3 else FIFO)
        if sent[0] < 5000:
            env.scheduler.after(1.0 / rate, load)

    env.scheduler.at(0.5, load)
    # A floor covers what was reported one tick before it was announced.
    bound = 2 * GOSSIP * rate + 16
    peak = 0
    while env.now < 0.5 + 5000.0 / rate + 2.0:
        env.run_for(GOSSIP / 10)
        floors_never_lead(members)
        peak = max(peak, max(m._stability.log_size() for m in members))
        assert peak <= bound
        assert all(len(m._engines[TOTAL].known_orders()) <= bound for m in members)
    assert sent[0] == 5000 and peak > GOSSIP * rate
    assert all(m.deliveries == 5000 for m in members)
    assert all(m._stability.log_size() == 0 for m in members)
    # a member sends group-stability to one destination, ever
    assert {dst for _at, src, dst, _g in log if src != "g-0"} == {"g-0"}
    rounds = round((env.now - 0.5) / GOSSIP)
    assert len(log) <= 2 * 7 * rounds
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


def test_coordinator_crash_mid_stream_restarts_the_plane_from_zero():
    rate = 200
    env, nodes, members = make(8)
    survivors = members[1:]
    sanitizer = install_sanitizer(survivors, strict=True)
    at_install = []
    for m in survivors:
        m.add_view_listener(
            lambda event, m=m: at_install.append(
                (
                    sum(m._stability.stable_floor(s) for s in event.view.members),
                    m._stability.log_size(),
                )
            )
        )
    sent = [0]

    def load():
        sent[0] += 1
        sender = members[1 + sent[0] % 7]
        if sender.is_member:
            sender.multicast(App(sent[0]), TOTAL if sent[0] % 2 else FIFO)
        if env.now < 6.0:
            env.scheduler.after(1.0 / rate, load)

    env.scheduler.at(0.5, load)
    env.run_for(2.2)
    old = [m._stability for m in survivors]
    assert all(t.stable_floor("g-1") > 0 for t in old)
    nodes[0].crash()
    log = gossip_sends(env)
    while env.now < 8.0:
        env.run_for(GOSSIP / 10)
        floors_never_lead(survivors)
    assert all(m.view.seq == 2 and m.view.coordinator == "g-1" for m in survivors)
    # the new view's trackers started from zero ...
    assert at_install == [(0, 0)] * 7
    assert all(m._stability is not t for m, t in zip(survivors, old))
    # ... g-1 keeps the table now and everyone reports to it ...
    assert survivors[0]._stability._peer_view is not None
    assert all(m._stability._peer_view is None for m in survivors[1:])
    in_view_2 = [entry for entry in log if entry[3].view_seq == 2]
    assert {dst for _at, src, dst, _g in in_view_2 if src != "g-1"} == {"g-1"}
    # ... and the logs were truncated again.
    assert all(m._stability.stable_floor("g-2") > 0 for m in survivors)
    assert all(m._stability.log_size() == 0 for m in survivors)
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


def test_report_that_outruns_the_coordinators_install_is_not_lost():
    """The old coordinator leaves, so the new one learns the view from the
    network like everyone else; a report (a delta, never repeated) that
    reaches it first must wait for the install, not vanish."""
    env, _nodes, members = make(4)
    env.run_for(0.6)
    new_coordinator = members[1]
    early = StabilityGossip(group="g", view_seq=2, delivered={"g-2": 3}, ordered=0)
    new_coordinator._on_gossip(early, "g-2")
    members[0].leave()
    env.run_for(2.0)
    assert new_coordinator.view.seq == 2 and new_coordinator.view.coordinator == "g-1"
    assert new_coordinator._stability._peer_view["g-2"]["g-2"] == 3
    assert new_coordinator._future == []
