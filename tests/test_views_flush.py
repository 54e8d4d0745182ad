"""Unit tests for GroupView, the initiator's flush round and the merge of
flush reports (pure protocol state)."""

import pytest
from hypothesis import given, strategies as st

from repro.membership import FlushRound, GroupView, ViewId, merge_reports
from repro.membership.events import FIFO, TOTAL, FlushOk, GroupData
from tests.test_flush_enumerated import World


# -- GroupView ---------------------------------------------------------------------


def make_view(*members, seq=1):
    return GroupView("g", seq, tuple(members))


def test_view_basics():
    view = make_view("a", "b", "c")
    assert view.size == 3
    assert view.coordinator == "a"
    assert view.rank_of("b") == 1
    assert view.contains("c")
    assert not view.contains("z")
    assert view.others("b") == ("a", "c")
    assert view.view_id == ViewId("g", 1)


def test_view_id_next():
    assert ViewId("g", 3).next() == ViewId("g", 4)


def test_view_rejects_duplicates_and_bad_seq():
    with pytest.raises(ValueError):
        make_view("a", "a")
    with pytest.raises(ValueError):
        GroupView("g", 0, ("a",))


def test_empty_view_has_no_coordinator():
    view = GroupView("g", 1, ())
    with pytest.raises(ValueError):
        view.coordinator


def test_successor_preserves_survivor_order():
    view = make_view("a", "b", "c", "d")
    nxt = view.successor(add=["e"], remove=["b"])
    assert nxt.members == ("a", "c", "d", "e")
    assert nxt.seq == 2


def test_successor_ranks_only_improve():
    view = make_view("a", "b", "c", "d")
    nxt = view.successor(remove=["a"])
    for member in nxt.members:
        assert nxt.rank_of(member) <= view.rank_of(member)


def test_successor_ignores_duplicate_add():
    view = make_view("a", "b")
    nxt = view.successor(add=["b", "c"])
    assert nxt.members == ("a", "b", "c")


def test_initial_view():
    view = GroupView.initial("g", ["x", "y"])
    assert view.seq == 1 and view.members == ("x", "y")


@given(
    st.lists(st.sampled_from("abcdef"), unique=True, min_size=1, max_size=6),
    st.lists(st.sampled_from("abcdef"), unique=True, max_size=3),
    st.lists(st.sampled_from("uvwxyz"), unique=True, max_size=3),
)
def test_property_successor_membership_algebra(members, removed, added):
    view = GroupView("g", 1, tuple(members))
    nxt = view.successor(add=added, remove=removed)
    expected = [m for m in members if m not in removed] + [
        a for a in added if a in removed or a not in members
    ]
    # ignore ordering of appended joiners beyond first occurrence semantics
    assert set(nxt.members) == set(m for m in members if m not in removed) | set(added)
    assert nxt.seq == 2
    assert len(set(nxt.members)) == len(nxt.members)


# -- the flush round and the merge ------------------------------------------------


def data(sender, seq, ordering=FIFO, view_seq=1):
    return GroupData(
        group="g",
        view_seq=view_seq,
        sender=sender,
        sender_seq=seq,
        ordering=ordering,
        payload=f"{sender}:{seq}",
    )


def ok(unstable=(), orders=(), next_seq=1, target=2):
    return FlushOk(
        group="g",
        target_seq=target,
        unstable=list(unstable),
        order_known=list(orders),
        next_global_seq=next_seq,
    )


def flushing(*members, joiner=None):
    """A group whose coordinator ``members[0]`` has started the view change
    to seq 2 (adding ``joiner``, or removing the last member), with every
    message left in flight."""
    world = World(members, [joiner] if joiner else [])
    initiator = world.cores[members[0]]
    if joiner:
        initiator._pending_joins.append(joiner)
    else:
        initiator._pending_leaves.add(members[-1])
    initiator._maybe_start_view_change()
    return initiator


def merged(*reports):
    return merge_reports(GroupView("g", 2, ("a", "b")), reports)


def test_controller_completes_when_all_respond():
    initiator = flushing("a", "b", "c")
    round_ = initiator._flush
    assert round_.missing() == ["b", "c"]
    initiator._on_flush_ok(ok(), "b")
    assert round_.missing() == ["c"]
    initiator._on_flush_ok(ok(), "c")
    assert initiator._flush is None
    assert initiator.view.members == ("a", "b")


def test_controller_ignores_wrong_target_and_stranger():
    initiator = flushing("a", "b", "c")
    initiator._on_flush_ok(ok(target=99), "b")
    assert initiator._flush.missing() == ["b", "c"]
    initiator._on_flush_ok(ok(), "z")
    assert initiator._flush.missing() == ["b", "c"]
    assert "z" not in initiator._flush.responses


def test_drop_member_removes_everywhere():
    round_ = FlushRound(2, ["a", "b", "j"], ["a", "b"], ["j"])
    round_.responses["b"] = ok()
    round_.drop("b")
    assert "b" not in round_.proposed
    assert "b" not in round_.targets
    assert "b" not in round_.responses
    round_.drop("j")
    assert round_.joiners == []
    round_.drop("zz")
    assert (round_.proposed, round_.targets) == (["a"], ["a"])
    # An initiator drops a member it suspects mid-flush, and completes on
    # the reports it holds: nothing is announced again.
    initiator = flushing("a", "b", "c", joiner="j")
    initiator._on_flush_ok(ok(), "b")
    initiator._on_suspect("c")
    assert initiator._flush is None
    assert initiator.view.members == ("a", "b", "j")
    assert [type(p).__name__ for p in initiator.world.channels[("a", "b")]] == [
        "Flush", "NewView",
    ]


def test_merged_unstable_dedups_by_id():
    m1 = data("a", 1)
    m1_copy = data("a", 1)
    m2 = data("b", 1)
    merged_view = merged(ok(unstable=[m1, m2]), ok(unstable=[m1_copy]))
    assert len(merged_view.unstable) == 2
    assert {(d.sender, d.sender_seq) for d in merged_view.unstable} == {
        ("a", 1), ("b", 1),
    }


def test_merged_unstable_sorted_deterministically():
    merged_view = merged(ok(unstable=[data("b", 2), data("a", 1), data("b", 1)]))
    assert [(d.sender, d.sender_seq) for d in merged_view.unstable] == [
        ("a", 1),
        ("b", 1),
        ("b", 2),
    ]


def test_merged_orders_keeps_known_assignments():
    total = data("a", 1, ordering=TOTAL)
    merged_view = merged(
        ok(unstable=[total], orders=[(5, ("a", 1))], next_seq=6),
        ok(unstable=[total]),
    )
    assert merged_view.orders == [(5, ("a", 1))]
    assert merged_view.next_global_seq == 6


def test_merged_orders_assigns_unordered_after_frontier():
    t1 = data("a", 1, ordering=TOTAL)
    t2 = data("b", 1, ordering=TOTAL)
    merged_view = merged(
        ok(unstable=[t1, t2], orders=[(3, ("a", 1))], next_seq=4)
    )
    assert (3, ("a", 1)) in merged_view.orders
    # t2 placed deterministically at the frontier
    assert (4, ("b", 1)) in merged_view.orders
    assert merged_view.next_global_seq == 5


def test_merged_orders_conflict_detected():
    from repro.broadcast import merge_flush_orders

    with pytest.raises(AssertionError):
        merge_flush_orders(
            [([(1, ("a", 1))], 2), ([(1, ("b", 9))], 2)],
            [],
        )
    with pytest.raises(AssertionError):
        merged(
            ok(orders=[(1, ("a", 1))], next_seq=2),
            ok(orders=[(1, ("b", 9))], next_seq=2),
        )
