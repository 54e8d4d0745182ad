"""A member's bookkeeping is bounded by its view, not by its traffic.

The delivered-id record keeps one watermark per sender; a process keeps
only its live timers; an RPC's timeout is cancelled by its reply.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.membership import FIFO, TOTAL, GroupData, build_group
from repro.membership.delivered import DeliveredIds
from repro.metrics.sanitizer import (
    VirtualSynchronySanitizer,
    VirtualSynchronyViolation,
)
from repro.net import FixedLatency
from repro.proc import Environment


@dataclass
class App:
    category = "app"
    n: int = 0


@dataclass
class Ping:
    category = "app"
    n: int = 0


def _send_rounds(env, members, rounds, ordering, spacing=0.01):
    """Every member multicasts one message a round, a round every
    ``spacing`` seconds."""
    for r in range(rounds):
        for m in members:
            env.scheduler.at(
                env.now + r * spacing,
                lambda m=m, r=r: m.multicast(App(r), ordering),
            )


def test_twenty_thousand_abcasts_leave_one_entry_per_sender():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 16)
    counts = {m.me: 0 for m in members}
    for m in members:
        m.add_delivery_listener(lambda e, me=m.me: counts.__setitem__(me, counts[me] + 1))
    for node in nodes:
        node.runtime.rpc.serve(Ping, lambda body, sender: body.n)
    replies = []
    for i, node in enumerate(nodes):
        node.runtime.rpc.call(
            nodes[(i + 1) % 16].address, Ping(i),
            on_reply=lambda value, sender: replies.append(value), timeout=60.0,
        )
    _send_rounds(env, members, 1250, TOTAL)
    # An fbcast now and then overtakes its sender's abcasts still on their
    # way through the sequencer, so ids are delivered past gaps too.
    _send_rounds(env, members, 250, FIFO, spacing=0.05)
    env.run_for(20.0)

    assert counts == {m.me: 24_000 for m in members}
    assert sorted(replies) == list(range(16))
    for m in members:
        assert m.view.seq == 1
        delivered = m._delivered[m.view.seq]
        assert delivered.floor == {s.me: 1500 for s in members}
        assert not delivered.above
    for node in nodes:
        # Only live timers are kept, and a reply cancelled its timeout:
        # what remains at quiescence is the periodic gossip tick.
        assert all(not t.cancelled for t in node._timers)
        assert [t for t in node._timers if not t._handle.bucketed] == []
        assert node.runtime.rpc._pending == {}


def test_a_crash_still_cancels_every_live_one_shot():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, _members = build_group(env, "g", 2)
    fired = []
    for i in range(100):
        timer = nodes[0].set_timer(0.5 + i * 0.01, lambda i=i: fired.append(i))
        if i % 3 == 0:
            timer.cancel()
    env.run_for(0.745)
    early = list(fired)
    assert early == [i for i in range(25) if i % 3]
    nodes[0].crash()
    assert [t for t in nodes[0]._timers if not t._handle.bucketed] == []
    nodes[0].recover()  # before the rest fall due: none of them may fire
    env.run_for(5.0)
    assert fired == early


# --------------------------------------------------- the watermark structure


@st.composite
def _deliveries(draw):
    """Per-sender delivery orders with gaps, interleaved, with repeats."""
    streams = []
    for sender in ("a", "b", "c"):
        sent = draw(st.integers(min_value=0, max_value=12))
        seqs = draw(st.permutations(list(range(1, sent + 1))))
        kept = draw(st.lists(st.booleans(), min_size=sent, max_size=sent))
        order = [s for s, keep in zip(seqs, kept) if keep]
        repeats = draw(st.lists(st.sampled_from(order), max_size=4)) if order else []
        streams.append([(sender, s) for s in order + repeats])
    merged = []
    while any(streams):
        live = [s for s in streams if s]
        merged.append(live[draw(st.integers(0, len(live) - 1))].pop(0))
    return merged


@settings(max_examples=300, deadline=None)
@given(_deliveries())
def test_property_watermarks_match_a_plain_set(deliveries):
    delivered = DeliveredIds()
    reference = set()
    for message_id in deliveries:
        assert delivered.add(message_id) == (message_id not in reference)
        reference.add(message_id)
        for sender, watermark in delivered.floor.items():
            assert (sender, watermark + 1) not in delivered.above
        assert set(delivered) == reference


def test_a_copied_set_takes_an_id_past_a_gap():
    """A copy holds its own empty ``above``, not the module's shared one:
    its first id past a gap must still go in."""
    import copy
    import pickle

    for dup in (copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))):
        delivered = dup(DeliveredIds())
        assert delivered.add(("a", 1)) and delivered.add(("a", 3))
        assert delivered.above == {("a", 3)}
        assert delivered.add(("a", 2)) and not delivered.above
        assert list(delivered) == [("a", 1), ("a", 2), ("a", 3)]


# ------------------------------------------------------------------ sanitizer


def test_sanitizer_attached_mid_view_sees_a_redelivered_old_message():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 4)
    # A mix of orderings, so some ids are delivered out of sender order.
    _send_rounds(env, members, 150, FIFO)
    _send_rounds(env, members, 150, TOTAL)
    env.run_for(5.0)
    assert all(m.deliveries >= 1000 for m in members)

    sanitizer = VirtualSynchronySanitizer(strict=True)
    sanitizer.attach_all(members)
    seeded = sanitizer._state[("g", 1)][members[0].me].delivered
    assert len(seeded) == members[0].deliveries

    old = GroupData(
        group="g", view_seq=1, sender=members[1].me, sender_seq=7,
        ordering=FIFO, payload=App(-1),
    )
    before = members[0].deliveries
    members[0]._deliver(old)  # the member itself drops the duplicate
    assert members[0].deliveries == before
    with pytest.raises(VirtualSynchronyViolation) as raised:
        sanitizer.observe_delivery(members[0].me, old)
    assert raised.value.code == "VS005"


def test_sanitizer_attached_mid_view_stays_clean():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 4)
    _send_rounds(env, members, 200, FIFO)
    _send_rounds(env, members, 200, TOTAL)
    env.run_for(1.5)  # attach while traffic is still in flight
    assert all(m.deliveries >= 1000 for m in members)

    sanitizer = VirtualSynchronySanitizer(strict=True)
    sanitizer.attach_all(members)
    env.run_for(3.0)
    _send_rounds(env, members, 20, TOTAL)
    _send_rounds(env, members, 20, FIFO)
    env.run_for(3.0)
    members[3].leave()
    env.run_for(3.0)
    assert all(m.view.seq == 2 for m in members[:3])
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
