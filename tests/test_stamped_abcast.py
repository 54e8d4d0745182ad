"""abcast where the sequencer's own data carries its order (docs/protocols.md
§abcast): stamped and SetOrder-ordered multicasts mix in one view and every
member agrees; a sequencer that dies after stamping leaves the survivors
with one set in one order; and a view change ships recent order history,
not the whole view's.  Strict sanitizer wherever a group multicasts."""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.membership import FIFO, TOTAL, FlushOk, GroupData, NewView, build_group
from repro.metrics.sanitizer import install_sanitizer
from repro.net import FixedLatency, UniformLatency
from repro.proc import Environment

GOSSIP = 0.5


@dataclass
class App:
    category = "app"
    n: int = 0


def listen(members):
    logs = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(
            lambda e, me=m.me: logs[me].append((e.ordering, e.sender, e.payload.n))
        )
    return logs


def payloads_sent(env, kind):
    """Every ``kind`` payload put on the wire from now on (reliable
    segments unwrapped), as (src, dst, payload)."""
    seen = []

    def tap(_event, envelope):
        payload = getattr(envelope.payload, "payload", envelope.payload)
        if isinstance(payload, kind):
            seen.append((envelope.src, envelope.dst, payload))

    env.network.add_tap(tap, events=("send",))
    return seen


# ------------------------------------------------ stamped + SetOrder, one view

SENDERS = (0, 2, 4)  # the sequencer (stamps) and two members that do not


@settings(max_examples=40, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(SENDERS),
            st.sampled_from((TOTAL, TOTAL, FIFO)),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**16),
    spaced=st.booleans(),
)
def test_property_stamped_and_set_order_multicasts_agree(script, seed, spaced):
    env = Environment(seed=seed, latency=UniformLatency(0.001, 0.004))
    _nodes, members = build_group(env, "g", 5, gossip_interval=0.05)
    sanitizer = install_sanitizer(members, strict=True)
    logs = listen(members)
    at = 0.1
    for n, (rank, ordering, gap) in enumerate(script):
        # spaced: each multicast finishes before the next starts, so the
        # agreed order must be the script's own (the sequential reference);
        # otherwise sends overlap, down to the same instant.
        at += 0.02 * (gap + 1) if spaced else 0.001 * gap
        env.scheduler.at(
            at, lambda n=n, rank=rank, ordering=ordering: members[rank].multicast(
                App(n), ordering
            )
        )
    env.run_for(at + 1.0)
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
    total = [n for ordering, _s, n in logs["g-0"] if ordering == TOTAL]
    assert sorted(total) == [
        n for n, (_r, ordering, _g) in enumerate(script) if ordering == TOTAL
    ]
    if spaced:
        assert total == sorted(total)
    for me, log in logs.items():
        assert [n for ordering, _s, n in log if ordering == TOTAL] == total, me
        for rank in SENDERS:  # per-sender order survives in both streams
            for ordering in (TOTAL, FIFO):
                mine = [n for o, s, n in log if o == ordering and s == f"g-{rank}"]
                assert mine == sorted(mine), (me, rank, ordering)
                assert mine == [
                    n for n, (r, o, _g) in enumerate(script)
                    if r == rank and o == ordering
                ], (me, rank, ordering)


# ------------------------------------------- sequencer dies after stamping


def test_sequencer_crash_after_stamping_leaves_one_set_in_one_order():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 6, gossip_interval=GOSSIP)
    survivors = [members[i] for i in (1, 2, 3, 5)]
    sanitizer = install_sanitizer(survivors, strict=True)
    logs = listen(members)
    cut = env.network.partitions.cut_link
    data = payloads_sent(env, GroupData)

    env.scheduler.at(0.50, lambda: members[0].multicast(App(0), TOTAL))

    def stamped_for_a_strict_subset():
        for rank in (3, 4, 5):
            cut("g-0", f"g-{rank}")
        members[0].multicast(App(1), TOTAL)  # global seq 2: g-1, g-2 only

    def foreign_data_only_the_sequencer_gets():
        for rank in (1, 2, 3, 5):
            cut("g-4", f"g-{rank}")
        members[4].multicast(App(2), TOTAL)  # ordered 3 by a SetOrder

    env.scheduler.at(0.60, stamped_for_a_strict_subset)
    env.scheduler.at(0.61, foreign_data_only_the_sequencer_gets)
    env.scheduler.at(0.62, lambda: members[0].multicast(App(3), TOTAL))  # seq 4
    env.run_for(0.63)
    # g-1 and g-2 delivered seq 2, know seq 3's order but not its data,
    # and hold seq 4 behind that gap; g-3 and g-5 have seen none of it.
    held = {m.me: [d.payload.n for d in m._engines[TOTAL].held()] for m in members}
    assert held["g-1"] == held["g-2"] == [3]
    assert [n for _o, _s, n in logs["g-1"]] == [0, 1]
    assert [n for _o, _s, n in logs["g-3"]] == [0]
    nodes[0].crash()
    nodes[4].crash()  # the only holder of seq 3's data besides the sequencer
    env.run_for(3.0)
    want = ("g-1", "g-2", "g-3", "g-5")
    assert all(m.view.members == want for m in survivors)
    # One set, one order; the position nobody holds data for is skipped.
    for m in survivors:
        assert [n for _o, _s, n in logs[m.me]] == [0, 1, 3], m.me
    # The new sequencer continues from the agreed frontier (1..4 are used).
    members[1].multicast(App(4), TOTAL)
    members[5].multicast(App(5), TOTAL)
    env.run_for(1.0)
    stamps = {p.payload.n: p.global_seq for _src, _dst, p in data}
    assert stamps == {0: 1, 1: 2, 2: None, 3: 4, 4: 5, 5: None}
    for m in survivors:
        assert [n for _o, _s, n in logs[m.me]] == [0, 1, 3, 4, 5], m.me
        assert m._engines[TOTAL].next_global_seq == 7
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


def test_sequencer_crash_mid_stream_survivors_agree():
    env = Environment(seed=3, latency=UniformLatency(0.001, 0.004))
    nodes, members = build_group(env, "g", 8, gossip_interval=GOSSIP)
    survivors = members[1:]
    sanitizer = install_sanitizer(survivors, strict=True)
    logs = listen(members)
    sent = [0]

    def load():
        for rank in (0, 2, 5):
            if nodes[rank].alive:
                sent[0] += 1
                members[rank].multicast(App(sent[0]), TOTAL)
        if env.now < 4.0:
            env.scheduler.after(0.004, load)

    env.scheduler.at(0.5, load)
    env.scheduler.at(2.013, nodes[0].crash)
    env.run_for(6.0)
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
    reference = [n for _o, _s, n in logs["g-1"]]
    assert len(reference) > 1500
    assert all([n for _o, _s, n in logs[m.me]] == reference for m in survivors)
    # everything the surviving senders multicast arrived
    mine = [n for _o, s, n in logs["g-1"] if s in ("g-2", "g-5")]
    assert len(mine) == len(set(mine))
    assert all(m.view.members == tuple(s.me for s in survivors) for m in survivors)


def test_abcast_reaching_a_flushing_sequencer_is_ordered_by_the_view_change():
    """Two abcasts the sequencer first receives in the middle of a flush —
    retransmitted, after its own flush reply: if it ordered them there
    (A, then B), members that already hold both would deliver A, B while
    the view change, which never heard of those orders, positions them
    by message id (B, A) for a member still missing A's data."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 5, gossip_interval=None)
    survivors = [members[i] for i in (0, 1, 2, 4)]
    sanitizer = install_sanitizer(survivors, strict=True)
    logs = listen(members)
    network = env.network.partitions

    def cut_and_send():
        for src, dst in (("g-2", "g-0"), ("g-2", "g-4"), ("g-1", "g-0")):
            network.cut_link(src, dst)
        members[2].multicast(App(1), TOTAL)  # A: g-0 and g-4 miss it
        members[1].multicast(App(2), TOTAL)  # B: g-0 misses it

    env.scheduler.at(0.30, cut_and_send)
    env.scheduler.at(0.40, nodes[3].crash)  # the flush starts at 0.45
    # A reaches the flushing sequencer before B; g-4 gets A's data only
    # after the new view is in.
    env.scheduler.at(0.49, lambda: network.restore_link("g-2", "g-0"))
    env.scheduler.at(0.53, lambda: network.restore_link("g-1", "g-0"))
    env.scheduler.at(0.70, lambda: network.restore_link("g-2", "g-4"))
    env.run_for(2.0)
    assert all(m.view.members == ("g-0", "g-1", "g-2", "g-4") for m in survivors)
    orders = {m.me: [n for _o, _s, n in logs[m.me]] for m in survivors}
    assert sorted(orders["g-0"]) == [1, 2]
    assert all(order == orders["g-0"] for order in orders.values()), orders
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


# ------------------------------------- a view change ships recent orders only


def test_view_change_ships_recent_order_history_not_the_whole_views():
    """2,000 ABCASTs, stamped and SetOrder-ordered, then one crash while
    traffic still flows: what each FlushOk and the NewView carry is
    bounded by two gossip intervals of traffic, not by the age of the
    view."""
    rate = 200
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 8, gossip_interval=GOSSIP)
    sanitizer = install_sanitizer(members[:7], strict=True)
    control = payloads_sent(env, (FlushOk, NewView))
    sent = [0]

    def load():
        sent[0] += 1
        members[0 if sent[0] % 2 else 3].multicast(App(sent[0]), TOTAL)
        if sent[0] < 2000:
            env.scheduler.after(1.0 / rate, load)

    env.scheduler.at(0.5, load)
    env.scheduler.at(0.5 + 1990.0 / rate, nodes[7].crash)
    env.run_for(0.5 + 2000.0 / rate + 3.0)
    assert sent[0] == 2000
    bound = 2 * GOSSIP * rate + 16
    oks = [p for _s, _d, p in control if isinstance(p, FlushOk)]
    views = [p for _s, _d, p in control if isinstance(p, NewView)]
    # six survivors answer g-0; the view goes to them and, best effort,
    # to the member it excludes
    assert len(oks) == 6 and len(views) == 7
    for ok in oks:
        assert 0 < len(ok.order_known) <= bound
        assert len(ok.unstable) <= bound
    assert all(len(view.orders) <= bound for view in views)
    assert all(m.view.seq == 2 and m.deliveries == 2000 for m in members[:7])
    assert sanitizer.check(at_quiescence=True)["violations"] == 0
    # ... and once the view is quiet and fully stable, nothing at all.
    env.run_for(3 * GOSSIP)
    for m in members[:7]:
        assert m._engines[TOTAL].known_orders() == []
        assert m._stability.unstable() == []
    nodes[6].crash()
    del control[:]
    env.run_for(3.0)
    oks = [p for _s, _d, p in control if isinstance(p, FlushOk)]
    assert len(oks) == 5
    assert all(ok.order_known == [] and ok.unstable == [] for ok in oks)
