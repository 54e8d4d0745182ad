"""Unit tests for the simulated datagram network."""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.net import FixedLatency, HandlerTable, LanLatency, Network, UniformLatency
from repro.sim import Scheduler, SimRandom


@dataclass
class Ping:
    category = "ping"
    size_bytes = 32
    n: int = 0


def make_net(**kwargs):
    sched = Scheduler()
    net = Network(sched, SimRandom(1), **kwargs)
    return sched, net


def endpoint(fn):
    """An endpoint that hands every payload to ``fn(payload, src)``."""
    return HandlerTable(SimpleNamespace(unhandled=fn))


def collector(inbox):
    return endpoint(lambda payload, src: inbox.append((payload, src)))


def test_send_delivers_after_latency():
    sched, net = make_net(latency=FixedLatency(0.5))
    inbox = []
    net.register("a", collector([]))
    net.register("b", endpoint(lambda payload, src: inbox.append((payload, src, net.now))))
    net.send("a", "b", Ping(1))
    sched.run()
    assert len(inbox) == 1
    payload, src, at = inbox[0]
    assert payload.n == 1 and src == "a" and at == 0.5


def test_send_to_unregistered_is_dropped():
    sched, net = make_net()
    net.register("a", collector([]))
    net.send("a", "ghost", Ping())
    sched.run()
    assert net.stats.dropped == 1
    assert net.stats.messages == 1


def test_unregister_drops_in_flight():
    sched, net = make_net(latency=FixedLatency(1.0))
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    net.send("a", "b", Ping())
    net.unregister("b")
    sched.run()
    assert inbox == []
    assert net.stats.dropped == 1


def test_multicast_counts_one_message_per_destination():
    sched, net = make_net()
    boxes = {name: [] for name in "bcd"}
    net.register("a", collector([]))
    for name, box in boxes.items():
        net.register(name, collector(box))
    net.multicast("a", ["b", "c", "d"], Ping())
    sched.run()
    assert net.stats.messages == 3
    assert net.stats.wire_packets == 3
    assert all(len(box) == 1 for box in boxes.values())


def test_hardware_multicast_single_wire_packet():
    sched, net = make_net(hardware_multicast=True)
    boxes = {name: [] for name in "bcd"}
    net.register("a", collector([]))
    for name, box in boxes.items():
        net.register(name, collector(box))
    net.multicast("a", ["b", "c", "d"], Ping())
    sched.run()
    assert net.stats.messages == 3
    assert net.stats.wire_packets == 1
    assert all(len(box) == 1 for box in boxes.values())


def test_empty_multicast_is_free():
    sched, net = make_net()
    net.multicast("a", [], Ping())
    sched.run()
    assert net.stats.messages == 0
    assert net.stats.wire_packets == 0


def test_drop_probability_loses_messages():
    sched, net = make_net(drop_probability=0.5)
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    for _ in range(500):
        net.send("a", "b", Ping())
    sched.run()
    assert 150 < len(inbox) < 350
    assert net.stats.dropped == 500 - len(inbox)


def test_duplicate_probability_duplicates():
    sched, net = make_net(duplicate_probability=0.5)
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    for _ in range(200):
        net.send("a", "b", Ping())
    sched.run()
    assert 250 < len(inbox) < 350


def test_partition_blocks_cross_island_traffic():
    sched, net = make_net()
    box_b, box_c = [], []
    net.register("a", collector([]))
    net.register("b", collector(box_b))
    net.register("c", collector(box_c))
    net.partitions.partition({"a", "b"}, {"c"})
    net.send("a", "b", Ping())
    net.send("a", "c", Ping())
    sched.run()
    assert len(box_b) == 1
    assert box_c == []
    net.partitions.heal()
    net.send("a", "c", Ping())
    sched.run()
    assert len(box_c) == 1


def test_stats_by_category_and_endpoint():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.send("a", "b", Ping())
    sched.run()
    assert net.stats.by_category["ping"] == 2
    assert net.stats.received_by["b"] == 2


def test_stats_since_snapshot():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    sched.run()
    before = net.stats.snapshot()
    net.send("a", "b", Ping())
    net.send("a", "b", Ping())
    sched.run()
    delta = net.stats.since(before)
    assert delta.messages == 2
    assert delta.by_category == {"ping": 2}


def test_bytes_counted_with_header():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    sched.run()
    assert net.stats.bytes == 32 + 64


def test_invalid_probabilities_rejected():
    sched = Scheduler()
    with pytest.raises(ValueError):
        Network(sched, SimRandom(0), drop_probability=1.0)
    with pytest.raises(ValueError):
        Network(sched, SimRandom(0), duplicate_probability=-0.1)


def test_latency_models_sample_in_bounds():
    rng = SimRandom(3)
    assert FixedLatency(0.01).sample(rng, "a", "b", 100) == 0.01
    for _ in range(50):
        assert 0.001 <= UniformLatency(0.001, 0.002).sample(rng, "a", "b", 0) <= 0.002
    lan = LanLatency(base=0.001, per_byte=1e-6, jitter=0.1)
    nominal = 0.001 + 1e-6 * 200
    for _ in range(50):
        sample = lan.sample(rng, "a", "b", 200)
        assert nominal * 0.9 <= sample <= nominal * 1.1


def test_latency_model_validation():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)
    with pytest.raises(ValueError):
        UniformLatency(0.5, 0.1)
    with pytest.raises(ValueError):
        LanLatency(jitter=1.5)


def test_taps_observe_send_deliver_drop():
    sched, net = make_net(latency=FixedLatency(0.001))
    events = []
    net.add_tap(lambda kind, env: events.append((kind, env.src, env.dst)))
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.send("a", "ghost", Ping())  # delivery-time drop
    sched.run()
    kinds = [k for k, *_ in events]
    assert kinds.count("send") == 2
    assert kinds.count("deliver") == 1
    assert kinds.count("drop") == 1
    assert ("deliver", "a", "b") in events


def test_taps_observe_partition_drops():
    sched, net = make_net()
    events = []
    net.add_tap(lambda kind, env: events.append(kind))
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.partitions.partition({"a"}, {"b"})
    net.send("a", "b", Ping())
    sched.run()
    assert events == ["send", "drop"]


def test_tap_removal():
    sched, net = make_net()
    events = []
    tap = lambda kind, env: events.append(kind)  # noqa: E731
    net.add_tap(tap)
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.remove_tap(tap)
    net.send("a", "b", Ping())
    sched.run()
    # only the first send (and its delivery may occur after removal)
    assert events.count("send") == 1
