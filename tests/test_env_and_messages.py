"""Remaining substrate corners: environment accessors, payload helpers,
envelopes, and stats edge cases."""

from dataclasses import dataclass

import pytest

from repro.net import (
    DEFAULT_PAYLOAD_BYTES,
    Envelope,
    HEADER_BYTES,
    payload_category,
    payload_meta,
)
from repro.proc import Environment, Process


@dataclass
class Tagged:
    category = "tagged"
    size_bytes = 50


@dataclass
class Bare:
    pass


class InX:
    category = "x"


class InY:
    category = "y"


def test_payload_category_defaults_to_class_name():
    assert payload_category(Tagged()) == "tagged"
    assert payload_category(Bare()) == "Bare"


def test_payload_size_defaults():
    assert payload_meta(Tagged()) == ("tagged", 50)
    assert payload_meta(Bare()) == ("Bare", DEFAULT_PAYLOAD_BYTES)


def test_envelope_totals():
    env = Envelope(src="a", dst="b", payload=Tagged())
    assert env.category == "tagged"
    network = Environment(seed=1).network
    network.send("a", "b", Tagged())
    assert network.stats.bytes == 50 + HEADER_BYTES


def test_environment_process_registry():
    env = Environment(seed=1)
    p = Process(env, "p1")
    q = Process(env, "p2")
    assert env.has_process("p1")
    assert env.process("p2") is q
    assert {x.address for x in env.processes} == {"p1", "p2"}
    env.remove_process("p1")
    assert not env.has_process("p1")
    env.remove_process("missing")  # no-op


def test_environment_run_until_and_now():
    env = Environment(seed=1)
    marks = []
    env.scheduler.at(2.0, lambda: marks.append(env.now))
    env.run(until=1.0)
    assert env.now == 1.0 and marks == []
    env.run(until=3.0)
    assert marks == [2.0]


def test_stats_reset():
    network = Environment(seed=1).network
    stats = network.stats
    network.send("a", "b", InX())
    stats.record_wire(1)
    stats.record_drop()
    stats.reset()
    assert stats.messages == 0
    assert stats.wire_packets == 0
    assert stats.dropped == 0
    assert not stats.by_category


def test_stats_diff_drops_zero_entries():
    network = Environment(seed=1).network
    stats = network.stats
    network.send("a", "b", InX())
    before = stats.snapshot()
    network.send("b", "a", InY())
    delta = stats.since(before)
    assert delta.by_category == {"y": 1}
    assert delta.bytes_by_category == {"y": DEFAULT_PAYLOAD_BYTES + HEADER_BYTES}


def test_process_repr_and_unhandled():
    env = Environment(seed=1)
    p = Process(env, "p")
    assert "p" in repr(p)
    p.deliver(Bare(), "ghost")
    assert len(p.unhandled_messages) == 1


def test_timer_pruning_keeps_active_timers():
    env = Environment(seed=1)
    p = Process(env, "p")
    fired = []
    # create enough timers to trigger pruning of cancelled ones
    for i in range(80):
        t = p.set_timer(1.0 + i * 0.01, lambda i=i: fired.append(i))
        if i % 2 == 0:
            t.cancel()
    env.run_for(5.0)
    assert fired == [i for i in range(80) if i % 2 == 1]


def test_crashed_process_timer_does_not_fire_via_every():
    env = Environment(seed=1)
    p = Process(env, "p")
    ticks = []
    p.every(0.5, lambda: ticks.append(env.now))
    env.run_for(1.2)
    assert len(ticks) == 2
    p.crash()
    env.run_for(3.0)
    assert len(ticks) == 2


def test_multicast_by_dead_process_is_silent():
    env = Environment(seed=1)
    p = Process(env, "p")
    q = Process(env, "q")
    p.crash()
    p.multicast(["q"], Tagged())
    env.run_for(1.0)
    assert env.network.stats.messages == 0
