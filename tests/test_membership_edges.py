"""Edge cases in the membership layer: batched view changes, future-view
buffering, stale protocol messages, cross-view traffic, causal chains."""

from dataclasses import dataclass

from repro.membership import (
    CAUSAL,
    FIFO,
    TOTAL,
    Flush,
    GroupNode,
    NewView,
    GroupView,
    build_group,
)
from repro.net import FixedLatency
from repro.proc import Environment


@dataclass
class App:
    category = "app"
    tag: str = ""


def make(n, seed=1, **kwargs):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", n, **kwargs)
    logs = {m.me: [] for m in members}
    for m in members:
        m.add_delivery_listener(lambda e, me=m.me: logs[me].append(e.payload.tag))
    return env, nodes, members, logs


def test_join_leave_crash_batched_into_view_changes():
    env, nodes, members, logs = make(5)
    joiner = GroupNode(env, "j0")
    jm = joiner.runtime.join_group("g", contact="g-0")
    members[3].leave()
    nodes[4].crash()
    env.run_for(8.0)
    final = members[0].view
    assert set(final.members) == {"g-0", "g-1", "g-2", "j0"}
    assert jm.view == final
    assert members[3].left
    # few view changes despite three simultaneous membership intents
    assert final.seq <= 4


def test_messages_sent_during_flush_go_out_in_next_view():
    env, nodes, members, logs = make(4)
    # trigger a view change, then multicast from a member that is blocked
    nodes[3].crash()
    env.scheduler.at(0.06, lambda: members[1].multicast(App("queued"), FIFO))
    env.run_for(8.0)
    for name in ("g-0", "g-1", "g-2"):
        assert "queued" in logs[name]
    # the message was delivered in view 2 (it was queued through the flush)
    assert members[1].view.seq == 2


def test_stale_flush_ignored():
    env, nodes, members, logs = make(3)
    # deliver a bogus flush for an old target seq directly
    bogus = Flush(group="g", target_seq=1, initiator="g-1", proposed=("g-1",))
    members[0]._on_flush(bogus, "g-1")
    env.run_for(1.0)
    assert members[0].view.seq == 1
    assert not members[0]._blocked


def test_stale_new_view_ignored():
    env, nodes, members, logs = make(3)
    nodes[2].crash()
    env.run_for(5.0)
    assert members[0].view.seq == 2
    stale = NewView(view=GroupView("g", 1, ("g-0",)))
    members[0]._on_new_view(stale, "g-1")
    assert members[0].view.seq == 2


def test_future_view_data_buffered_until_install():
    """A member that installs the new view late must not lose data that
    faster members already sent in it."""
    env, nodes, members, logs = make(4)
    nodes[3].crash()

    # as soon as any member reaches view 2, it multicasts immediately —
    # other members may still be in view 1 when the data arrives
    fired = []

    def on_view(event, m=members[0]):
        if event.view.seq == 2 and not fired:
            fired.append(True)
            m.multicast(App("early-v2"), FIFO)

    members[0].add_view_listener(on_view)
    env.run_for(8.0)
    for name in ("g-0", "g-1", "g-2"):
        assert "early-v2" in logs[name], f"{name} lost cross-view data"


def test_abcast_continues_across_view_changes():
    env, nodes, members, logs = make(5)
    for i in range(3):
        members[i].multicast(App(f"a{i}"), TOTAL)
    env.run_for(2.0)
    nodes[0].crash()  # sequencer change
    env.run_for(5.0)
    for i in range(1, 4):
        members[i].multicast(App(f"b{i}"), TOTAL)
    env.run_for(3.0)
    survivors = ["g-1", "g-2", "g-3", "g-4"]
    sequences = {tuple(logs[name]) for name in survivors}
    assert len(sequences) == 1
    assert len(sequences.pop()) == 6


def test_causal_chain_across_three_members():
    """m1 -> (delivered at B) -> m2 -> (delivered at C) -> m3: every member
    must deliver the chain in order, whatever the network does."""
    for seed in range(5):
        env = Environment(seed=seed, latency=FixedLatency(0.002), drop_probability=0.1)
        nodes, members = build_group(env, "g", 4)
        logs = {m.me: [] for m in members}
        for m in members:
            m.add_delivery_listener(
                lambda e, me=m.me: logs[me].append(e.payload.tag)
            )

        def chain_b(event):
            if event.payload.tag == "link-1":
                members[1].multicast(App("link-2"), CAUSAL)

        def chain_c(event):
            if event.payload.tag == "link-2":
                members[2].multicast(App("link-3"), CAUSAL)

        members[1].add_delivery_listener(chain_b)
        members[2].add_delivery_listener(chain_c)
        members[0].multicast(App("link-1"), CAUSAL)
        env.run_for(20.0)
        for m in members:
            chain = [t for t in logs[m.me] if t.startswith("link-")]
            assert chain == ["link-1", "link-2", "link-3"], (
                f"seed {seed}: {m.me} saw {chain}"
            )


def test_gossip_resumes_after_view_change():
    env, nodes, members, logs = make(4, gossip_interval=0.3)
    for i in range(4):
        members[0].multicast(App(f"m{i}"), FIFO)
    env.run_for(2.0)
    assert all(m._stability.log_size() == 0 for m in members)
    nodes[3].crash()
    env.run_for(5.0)
    survivors = members[:3]
    for i in range(3):
        survivors[1].multicast(App(f"n{i}"), FIFO)
    env.run_for(3.0)
    assert all(m._stability.log_size() == 0 for m in survivors)


def test_suspect_report_routed_to_acting_coordinator():
    env, nodes, members, logs = make(5)
    # g-4 suspects g-2 directly (simulate a local detector firing early)
    members[4]._on_suspect("g-2")
    env.run_for(5.0)
    # the acting coordinator (g-0) ran the exclusion for everyone
    for m in (members[0], members[1], members[3], members[4]):
        assert not m.view.contains("g-2")
    # g-2 itself was told (flush target) and is excluded, not left
    assert members[2].excluded


def test_view_listener_exception_isolation():
    """A bad application listener must not corrupt protocol state."""
    env, nodes, members, logs = make(3)
    calls = []

    def bad_listener(event):
        calls.append(event)
        raise RuntimeError("application bug")

    members[0].add_delivery_listener(bad_listener)
    try:
        members[0].multicast(App("boom"), FIFO)
    except RuntimeError:
        pass  # the local synchronous delivery propagates in this design
    env.run_for(2.0)
    # remote members unaffected
    assert "boom" in logs["g-1"] and "boom" in logs["g-2"]


def join_requests(env):
    """(time, dst) of every JoinRequest RPC sent from now on."""
    from repro.membership import JoinRequest

    log = []

    def tap(_event, envelope):
        body = getattr(envelope.payload, "body", None)
        if isinstance(body, JoinRequest):
            log.append((env.now, envelope.dst))

    env.network.add_tap(tap, events=("send",))
    return log


def test_forgotten_joiner_stops_asking_and_can_rejoin():
    """An abandoned join (the hierarchy re-places a worker whose leaf never
    admitted it) must end with ``forget_group``: the contact hears no more
    JoinRequests, whichever of the three retry paths was armed."""
    env, nodes, members, logs = make(3)
    bystander = GroupNode(env, "x")  # answers "no such group here"
    asked = join_requests(env)
    # (a) contact has no such group: the back-off timer re-asks every second
    no_group = GroupNode(env, "j0")
    no_group.runtime.join_group("elsewhere", contact="x", retry=1.0)
    # (b) contact is dead: the RPC timeout re-asks
    silent = GroupNode(env, "j1")
    silent.runtime.join_group("g", contact="nobody-home", retry=1.0)
    # (c) "pending": the coordinator admitted it, but the view that says so
    # cannot reach it, so the 4 x retry guard is what would re-ask
    build_group(env, "h", 2)
    pending = GroupNode(env, "j2")
    pending.runtime.join_group("h", contact="h-0", retry=1.0)
    env.scheduler.at(0.005, lambda: env.network.partitions.cut_link("h-0", "j2"))
    env.run_for(3.5)
    # one a second to the two that never admit, one in all to the third
    assert sorted(dst for _at, dst in asked) == (
        ["h-0"] + ["nobody-home"] * 4 + ["x"] * 4
    )
    assert pending.runtime.group("h")._join_timer is not None
    for node, group in ((no_group, "elsewhere"), (silent, "g"), (pending, "h")):
        node.runtime.forget_group(group)
        assert not node.runtime.has_group(group)
    del asked[:]
    env.run_for(10.0)
    assert asked == []
    assert bystander.alive
    # ... and forgetting is not final: the same process can join afresh.
    rejoined = no_group.runtime.rejoin_group("g", contact="g-1")
    env.run_for(3.0)
    assert rejoined.is_member and members[0].view.contains("j0")
    assert [dst for _at, dst in asked][:1] == ["g-1"]
