"""Unit tests for the process runtime (environment, actors, timers, crash)."""

from dataclasses import dataclass

import pytest

from repro.net import FixedLatency
from repro.proc import Environment, Process


@dataclass
class Note:
    category = "note"
    text: str = ""


@dataclass
class Other:
    category = "other"


class Echoer(Process):
    def __init__(self, env, address):
        super().__init__(env, address)
        self.inbox = []
        self.on(Note, self._on_note)

    def _on_note(self, note, sender):
        self.inbox.append((note.text, sender))


def test_processes_exchange_messages():
    env = Environment(seed=1, latency=FixedLatency(0.01))
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    a.send("b", Note("hi"))
    b.send("a", Note("yo"))
    env.run()
    assert b.inbox == [("hi", "a")]
    assert a.inbox == [("yo", "b")]


def test_duplicate_address_rejected():
    env = Environment()
    Echoer(env, "a")
    with pytest.raises(ValueError):
        Echoer(env, "a")


def test_multicast_reaches_all():
    env = Environment(seed=1)
    sender = Echoer(env, "s")
    receivers = [Echoer(env, f"r{i}") for i in range(4)]
    sender.multicast([r.address for r in receivers], Note("fan"))
    env.run()
    assert all(r.inbox == [("fan", "s")] for r in receivers)


def test_unhandled_payload_recorded():
    env = Environment(seed=1)
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    a.send("b", Other())
    env.run()
    assert len(b.unhandled_messages) == 1


def test_duplicate_handler_registration_rejected():
    env = Environment()
    a = Echoer(env, "a")
    with pytest.raises(ValueError):
        a.on(Note, lambda m, s: None)
    a.replace_handler(Note, lambda m, s: None)  # explicit replacement ok


def test_one_shot_timer():
    env = Environment()
    a = Echoer(env, "a")
    fired = []
    a.set_timer(1.5, lambda: fired.append(env.now))
    env.run()
    assert fired == [1.5]


def test_periodic_timer_and_cancel():
    env = Environment()
    a = Echoer(env, "a")
    fired = []
    timer = a.every(1.0, lambda: fired.append(env.now))
    env.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    timer.cancel()
    env.run(until=6.0)
    assert fired == [1.0, 2.0, 3.0]


def test_crash_stops_receiving_and_timers():
    env = Environment(seed=1, latency=FixedLatency(0.01))
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    ticks = []
    b.every(1.0, lambda: ticks.append(env.now))
    b.crash()
    a.send("b", Note("lost"))
    env.run(until=5.0)
    assert b.inbox == []
    assert ticks == []
    assert not b.alive


def test_crashed_process_does_not_send():
    env = Environment(seed=1)
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    a.crash()
    a.send("b", Note("never"))
    env.run()
    assert b.inbox == []
    assert env.network.stats.messages == 0


def test_crash_is_idempotent_and_notifies_once():
    env = Environment()
    crashes = []
    env.add_crash_listener(crashes.append)
    a = Echoer(env, "a")
    a.crash()
    a.crash()
    assert crashes == ["a"]


def test_recover_restores_delivery():
    env = Environment(seed=1, latency=FixedLatency(0.01))
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    b.crash()
    b = b.recover()
    a.send("b", Note("back"))
    env.run()
    assert b.inbox == [("back", "a")]


def test_message_to_crashed_process_dropped_then_flows_after_recover():
    env = Environment(seed=1, latency=FixedLatency(0.01))
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    b.crash()
    a.send("b", Note("while-down"))
    env.run()
    assert b.inbox == []
    b = b.recover()
    a.send("b", Note("after"))
    env.run()
    assert [t for t, _ in b.inbox] == ["after"]


def test_live_addresses_tracks_crashes():
    env = Environment()
    Echoer(env, "a")
    b = Echoer(env, "b")
    b.crash()
    assert env.live_addresses() == ["a"]


def test_env_crash_helper():
    env = Environment()
    a = Echoer(env, "a")
    env.crash("a")
    assert not a.alive
    env.crash("missing")  # no-op, must not raise


def test_timer_cancelled_by_crash_does_not_fire_after_recover():
    env = Environment()
    a = Echoer(env, "a")
    fired = []
    a.set_timer(2.0, lambda: fired.append("x"))
    a.every(1.0, lambda: fired.append("tick"))
    a.crash()
    assert a._timers == {}  # periodic ones too
    a.recover()
    env.run(until=5.0)
    assert fired == []


def test_recover_returns_a_new_incarnation_and_the_old_one_stays_dead():
    env = Environment(latency=FixedLatency(0.01))
    a = Echoer(env, "a")
    b = Echoer(env, "b")
    b.crash()
    successor = b.recover()
    assert type(successor) is Echoer and successor is not b
    assert successor.alive and not b.alive
    assert (b.incarnation, successor.incarnation) == (0, 1)
    assert env.process("b") is successor
    assert env.live_addresses() == ["a", "b"]
    a.send("b", Note("x"))
    env.run()
    assert b.inbox == [] and successor.inbox == [("x", "a")]


def test_recover_while_the_address_is_alive_raises():
    env = Environment()
    a = Echoer(env, "a")
    with pytest.raises(ValueError):
        a.recover()
    a.crash()
    a.recover()
    with pytest.raises(ValueError):
        a.recover()  # its successor is alive
    assert env.process("a").incarnation == 1


def test_a_dead_process_arms_no_timer_and_sends_nothing():
    env = Environment()
    a = Echoer(env, "a")
    Echoer(env, "b")
    a.crash()
    fired = []
    one = a.set_timer(0.5, lambda: fired.append("once"))
    tick = a.every(0.5, lambda: fired.append("tick"))
    a.send("b", Note("x"))
    a.multicast(["b"], Note("y"))
    env.run(until=3.0)
    assert fired == [] and one.cancelled and tick.cancelled
    assert a._timers == {}
    assert env.network.stats.messages == 0
