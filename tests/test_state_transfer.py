"""State transfer rides the view change (docs/protocols.md, "The flush"):
the coordinator sends the state snapshot to the joiners alone, on a copy
of the ``NewView`` without the old view's unstable messages and orders,
while every old-view member gets the merge and no snapshot.  A write still
in flight when the flush starts is delivered by every survivor in the old
view and is in the joiner's snapshot; a member that leaves in a view
change that admits a joiner still receives the view that removes it."""

from repro.membership import GroupNode, NewView, build_group
from repro.metrics.sanitizer import install_sanitizer
from repro.net import FixedLatency
from repro.net.wire import encode_data_frames
from repro.net.wire.registry import ensure_registered
from repro.proc import Environment
from repro.toolkit import ReplicatedDict

ensure_registered()

KEYS = 512


def loaded_group(size):
    env = Environment(seed=1, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", size)
    tables = [ReplicatedDict(m) for m in members]
    for k in range(KEYS):
        tables[k % size].put(f"k{k}", k)
    env.run_for(3.0)
    assert all(len(t) == KEYS for t in tables)
    return env, nodes, members, tables


def new_views_sent(env):
    """Every NewView put on the wire from now on, as (dst, payload, encoded
    bytes of its envelope)."""
    seen = []

    def tap(_event, envelope):
        payload = getattr(envelope.payload, "payload", envelope.payload)
        if isinstance(payload, NewView):
            frames, rejects = encode_data_frames((envelope,))
            assert not rejects
            seen.append((envelope.dst, payload, sum(len(f) for f in frames)))

    env.network.add_tap(tap, events=("send",))
    return seen


def join(env, address="joiner"):
    member = GroupNode(env, address).runtime.join_group("g", contact="g-0")
    return member, ReplicatedDict(member)


def test_the_snapshot_goes_to_the_joiner_alone():
    env, _nodes, members, tables = loaded_group(16)
    sanitizer = install_sanitizer(members, strict=True)
    sent = new_views_sent(env)
    joiner, joiner_table = join(env)
    # The join request reaches the coordinator (the sequencer) first, so
    # this abcast arrives during the flush: the sequencer holds it, and
    # only the view change orders and delivers it.
    env.scheduler.after(0.001, lambda: tables[7].put("late", -1))
    env.run_for(3.0)

    assert joiner.is_member and joiner.view.size == 17
    with_state = [(dst, view) for dst, view, _n in sent if view.app_state is not None]
    assert [dst for dst, _view in with_state] == ["joiner"]
    joiner_copy = with_state[0][1]
    assert joiner_copy.unstable == [] and joiner_copy.orders == []
    survivors = [(dst, view, n) for dst, view, n in sent if dst != "joiner"]
    assert sorted(dst for dst, _v, _n in survivors) == sorted(
        m.me for m in members[1:]
    )
    assert all(n < 1024 for _d, _v, n in survivors), [n for _d, _v, n in survivors]
    # The write in flight was in the flushed set every survivor delivered.
    assert all(
        [d.payload.command for d in view.unstable] == [("put", "late", -1)]
        and len(view.orders) == 1
        for _d, view, _n in survivors
    )
    assert all(t.get("late") == -1 and len(t) == KEYS + 1 for t in tables)
    assert all(t.commands_applied == KEYS + 1 for t in tables)
    assert joiner_table.snapshot() == tables[0].snapshot()
    assert sanitizer.check(at_quiescence=True)["violations"] == 0


def test_a_member_leaving_beside_a_joiner_still_gets_its_view():
    env, _nodes, members, tables = loaded_group(8)
    sent = new_views_sent(env)
    # The first removal starts a flush; the join and the graceful leave
    # queue behind it and share the next view change.
    members[6].mark_departing()
    members[0].request_removal(["g-6"])
    joiner, joiner_table = join(env)
    members[7].leave()
    env.run_for(3.0)

    assert members[6].left and members[7].left
    assert joiner.is_member and joiner.view.members[-1] == "joiner"
    assert joiner.view.size == 7 and joiner.view.seq == 3
    admitting = [(dst, view) for dst, view, _n in sent if view.view.seq == 3]
    to_leaver = [view for dst, view in admitting if dst == "g-7"]
    assert len(to_leaver) == 1
    assert to_leaver[0].app_state is None and not to_leaver[0].view.contains("g-7")
    assert [dst for dst, view in admitting if view.app_state is not None] == ["joiner"]
    assert joiner_table.snapshot() == tables[0].snapshot()
