"""abcast where a position always travels on its data (docs/protocols.md
§abcast): the sequencer stamps its own multicasts and relays a stamped copy
of everyone else's.  Both kinds mix in one view and every member agrees; a
sequencer that dies after stamping leaves the survivors with one set in one
order; a sender's fbcast overtaking its relayed abcast cannot let the
stability floor pass the abcast; and a view change ships recent order
history, not the whole view's.  Strict sanitizer wherever a group
multicasts."""

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


# ------------------------------------------------ stamped + relayed, one view

SENDERS = (0, 2, 3, 4)  # the sequencer (stamps) and three members it relays


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
def test_property_stamped_and_relayed_multicasts_agree(script, seed, spaced):
    env = Environment(seed=seed, latency=UniformLatency(0.001, 0.004))
    _nodes, members = build_group(env, "g", 5, gossip_interval=0.05)
    sanitizer = install_sanitizer(members, strict=True)
    logs = listen(members)
    data = payloads_sent(env, GroupData)
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
    # An abcast leaves its sender unstamped only towards the sequencer,
    # and every copy anyone else receives carries its position.
    unstamped = [(src, dst) for src, dst, p in data
                 if p.ordering == TOTAL and p.global_seq is None]
    assert all(src != "g-0" and dst == "g-0" for src, dst in unstamped)
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

    def relayed_through_the_sequencer():
        members[4].multicast(App(2), TOTAL)  # stamped 3 on the relayed copy

    env.scheduler.at(0.60, stamped_for_a_strict_subset)
    env.scheduler.at(0.61, relayed_through_the_sequencer)
    env.scheduler.at(0.62, lambda: members[0].multicast(App(3), TOTAL))  # seq 4
    env.run_for(0.63)
    # g-1 and g-2 delivered seqs 2–4; g-3 and g-5 have seen none of them,
    # and g-4 still holds its own abcast, whose stamped copy was cut off.
    held = {m.me: [d.payload.n for d in m._engines[TOTAL].held()] for m in members}
    assert held == {"g-0": [], "g-1": [], "g-2": [], "g-3": [], "g-4": [2], "g-5": []}
    assert [n for _o, _s, n in logs["g-1"]] == [0, 1, 2, 3]
    assert [n for _o, _s, n in logs["g-3"]] == [0]
    nodes[0].crash()
    nodes[4].crash()  # the originator of seq 3 dies with the sequencer
    env.run_for(3.0)
    want = ("g-1", "g-2", "g-3", "g-5")
    assert all(m.view.members == want for m in survivors)
    # One set, one order: what g-1 and g-2 delivered reaches everyone.
    for m in survivors:
        assert [n for _o, _s, n in logs[m.me]] == [0, 1, 2, 3], m.me
    # The new sequencer continues from the agreed frontier (1..4 are used)
    # and relays g-5's abcast.
    members[1].multicast(App(4), TOTAL)
    members[5].multicast(App(5), TOTAL)
    env.run_for(1.0)
    stamps = {p.payload.n: p.global_seq for _src, _dst, p in data}
    assert stamps == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}
    relayed = [(src, dst) for src, dst, p in data if p.global_seq is None]
    assert relayed == [("g-4", "g-0"), ("g-5", "g-1")]
    for m in survivors:
        assert [n for _o, _s, n in logs[m.me]] == [0, 1, 2, 3, 4, 5], m.me
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
    """Two relayed abcasts the sequencer first receives in the middle of a
    flush — retransmitted, after its own flush reply: if it stamped and
    forwarded them there (A, then B), members would deliver A, B while the
    view change, which never heard of those orders, positions them by
    message id (B, A) for every member the copies had not reached."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 5, gossip_interval=None)
    survivors = [members[i] for i in (0, 1, 2, 4)]
    sanitizer = install_sanitizer(survivors, strict=True)
    logs = listen(members)
    network = env.network.partitions

    def cut_and_send():
        for src, dst in (("g-2", "g-0"), ("g-1", "g-0")):
            network.cut_link(src, dst)
        members[2].multicast(App(1), TOTAL)  # A, relayed to g-0
        members[1].multicast(App(2), TOTAL)  # B, relayed to g-0

    env.scheduler.at(0.30, cut_and_send)
    env.scheduler.at(0.40, nodes[3].crash)  # the flush starts at 0.45
    # A reaches the flushing sequencer before B.
    env.scheduler.at(0.49, lambda: network.restore_link("g-2", "g-0"))
    env.scheduler.at(0.53, lambda: network.restore_link("g-1", "g-0"))
    env.run_for(2.0)
    assert all(m.view.members == ("g-0", "g-1", "g-2", "g-4") for m in survivors)
    orders = {m.me: [n for _o, _s, n in logs[m.me]] for m in survivors}
    assert sorted(orders["g-0"]) == [1, 2]
    assert all(order == orders["g-0"] for order in orders.values()), orders
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


# ------------------------------- a floor waits for a relayed abcast overtaken


def test_a_floor_never_passes_a_relayed_abcast_a_later_fbcast_overtook():
    """g-4 abcasts m, relayed through the sequencer, then fbcasts f, which
    reaches everyone directly; the sequencer's stamped copy of m reaches
    g-1 alone.  Every member reports f.  Were a watermark the highest
    sequence received, g-4's floor would pass m, g-1 would truncate the m
    it delivered, and once the sequencer and g-4 died no flush would carry
    m to the other survivors.  A watermark is a contiguous prefix, so the
    floor waits at m and g-1's flush carries it."""
    interval = 0.1
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", 8, gossip_interval=interval)
    survivors = [m for rank, m in enumerate(members) if rank not in (0, 4)]
    sanitizer = install_sanitizer(survivors, strict=True)
    logs = listen(members)

    def m_then_f():
        for rank in range(2, 8):
            env.network.partitions.cut_link("g-0", f"g-{rank}")
        members[4].multicast(App(1), TOTAL)  # m: g-4's seq 1, relayed
        members[4].multicast(App(2), FIFO)  # f: g-4's seq 2, direct

    env.scheduler.at(0.5, m_then_f)
    env.run_for(0.5 + 6 * interval)  # reports and the floors they move are in
    assert [n for _o, _s, n in logs["g-1"]] == [2, 1]  # m takes two hops
    assert all(
        [n for _o, _s, n in logs[f"g-{rank}"]] == [2] for rank in (2, 3, 5, 6, 7)
    )
    assert members[2]._stability.watermarks()["g-4"] == 0
    assert members[1]._stability.stable_floor("g-4") == 0
    assert [d.payload.n for d in members[1]._stability.unstable()] == [1, 2]
    nodes[0].crash()
    nodes[4].crash()
    env.run_for(3.0)
    want = tuple(m.me for m in survivors)
    assert all(m.view.members == want for m in survivors)
    for m in survivors:
        assert sorted(n for _o, _s, n in logs[m.me]) == [1, 2], m.me
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


# ------------------------------------- a view change ships recent orders only


def test_view_change_ships_recent_order_history_not_the_whole_views():
    """2,000 ABCASTs, stamped at send and relayed, then one crash while
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
