"""Unit tests for the ordering engines and stability tracker (pure logic)."""

from hypothesis import given, strategies as st

from repro.broadcast import (
    CausalEngine,
    FifoEngine,
    StabilityTracker,
    TotalEngine,
    causal_sort_key,
)
from repro.membership.events import GroupData
from repro.membership.view import GroupView


VIEW = GroupView("g", 1, ("a", "b", "c"))


def data(sender, seq, ordering="fifo"):
    return GroupData(
        group="g",
        view_seq=1,
        sender=sender,
        sender_seq=seq,
        ordering=ordering,
        payload=f"{sender}{seq}",
    )


# -- fifo --------------------------------------------------------------------------


def test_fifo_delivers_immediately():
    engine = FifoEngine(VIEW, "a")
    m = data("b", 1)
    assert engine.on_receive(m) == [m]
    assert engine.held() == []


# -- causal -------------------------------------------------------------------------


def test_causal_engine_stamps_and_orders():
    a = CausalEngine(VIEW, "a")
    b = CausalEngine(VIEW, "b")
    m1 = data("a", 1, "causal")
    a.stamp_outgoing(m1)
    assert m1.stamp is not None
    # b delivers m1, then sends m2 causally after it
    assert b.on_receive(m1) == [m1]
    m2 = data("b", 1, "causal")
    b.stamp_outgoing(m2)
    # a third party receiving m2 before m1 must hold it
    c = CausalEngine(VIEW, "c")
    assert c.on_receive(m2) == []
    assert c.held() == [m2]
    assert c.on_receive(m1) == [m1, m2]
    assert c.held() == []


def test_causal_engine_ignores_own_message_on_receive():
    a = CausalEngine(VIEW, "a")
    m = data("a", 1, "causal")
    a.stamp_outgoing(m)
    assert a.on_receive(m) == []


def test_causal_sort_key_is_linear_extension():
    a = CausalEngine(VIEW, "a")
    m1 = data("a", 1, "causal")
    a.stamp_outgoing(m1)
    b = CausalEngine(VIEW, "b")
    b.on_receive(m1)
    m2 = data("b", 1, "causal")
    b.stamp_outgoing(m2)
    assert causal_sort_key(m1) < causal_sort_key(m2)


# -- total --------------------------------------------------------------------------


def stamped(message, global_seq):
    """The copy of ``message`` the sequencer relays, at ``global_seq``."""
    copy = data(message.sender, message.sender_seq, "total")
    copy.global_seq = global_seq
    return copy


def test_total_engine_sequencer_assigns_in_order():
    seq_engine = TotalEngine(VIEW, "a")  # rank 0 is the sequencer
    assert seq_engine.is_sequencer
    m1, m2 = data("b", 1, "total"), data("c", 1, "total")
    s1, s2 = seq_engine.stamp(m1), seq_engine.stamp(m2)
    assert (s1.global_seq, s1.message_id) == (1, ("b", 1))
    assert (s2.global_seq, s2.message_id) == (2, ("c", 1))
    # copies: the originator's own object is left as it sent it
    assert m1.global_seq is None and m2.global_seq is None
    assert seq_engine.on_receive(s1) == [s1]
    assert seq_engine.on_receive(s2) == [s2]


def test_total_engine_non_sequencer_does_not_assign():
    engine = TotalEngine(VIEW, "b")
    assert not engine.is_sequencer
    m = data("b", 1, "total")
    engine.stamp_outgoing(m)
    assert m.global_seq is None  # relayed: the sequencer stamps a copy
    assert engine.on_receive(m) == []
    assert engine.held() == [m] and engine.known_orders() == []


def test_sequencer_stamps_its_own_data_and_sends_no_set_order():
    seq_engine = TotalEngine(VIEW, "a", next_global_seq=4)
    m1, m2 = data("a", 1, "total"), data("a", 2, "total")
    seq_engine.stamp_outgoing(m1)
    assert m1.global_seq == 4
    assert seq_engine.on_receive(m1) == [m1]
    # a relayed message in between takes the next number on its copy
    assert seq_engine.stamp(data("c", 1, "total")).global_seq == 5
    seq_engine.stamp_outgoing(m2)
    assert m2.global_seq == 6
    assert seq_engine.known_orders() == [(4, ("a", 1)), (5, ("c", 1)), (6, ("a", 2))]
    assert seq_engine.next_global_seq == 7


def test_receiver_takes_the_order_from_stamped_data():
    engine = TotalEngine(VIEW, "b")
    m1, m2 = data("a", 1, "total"), data("a", 2, "total")
    m1.global_seq, m2.global_seq = 1, 2
    assert engine.on_receive(m1) == [m1]
    assert engine.on_receive(m2) == [m2]
    assert engine.known_orders() == [(1, ("a", 1)), (2, ("a", 2))]
    assert engine.next_global_seq == 3
    # a duplicate of delivered stamped data leaves nothing behind
    assert engine.on_receive(m1) == []
    assert engine.known_orders() == [(1, ("a", 1)), (2, ("a", 2))]
    assert engine.held() == []


def test_forget_orders_drops_what_everyone_delivered_and_keeps_the_frontier():
    engine = TotalEngine(VIEW, "b")
    for i in (1, 2, 3):
        m = data("a", i, "total")
        m.global_seq = i
        engine.on_receive(m)
    assert engine.delivered_through == 3
    engine.forget_orders(2)
    assert engine.known_orders() == [(3, ("a", 3))]
    engine.forget_orders(3)
    assert engine.known_orders() == []
    assert engine.next_global_seq == 4  # falls back to the delivery frontier


def test_message_id_is_built_once():
    # Every holder (history, delivered-id sets, the stability log) shares
    # the one tuple; tests/test_wire_codec.py covers the wire round trip.
    m = data("a", 7, "total")
    assert m.message_id == ("a", 7)
    assert m.message_id is m.message_id


def test_total_engine_delivers_only_with_data_and_order():
    # The originator holds its own relayed abcast until the stamped copy
    # returns; other members' stamped data is delivered meanwhile.
    engine = TotalEngine(VIEW, "b")
    mine = data("b", 1, "total")
    assert engine.on_receive(mine) == []  # no order yet
    other = stamped(data("c", 1, "total"), 1)
    assert engine.on_receive(other) == [other]
    back = stamped(mine, 2)
    assert engine.on_receive(back) == [back]
    assert engine.held() == []
    assert engine.known_orders() == [(1, ("c", 1)), (2, ("b", 1))]


def test_total_engine_gap_blocks_later_deliveries():
    # Stamped data past a gap (an abandoned channel from the sequencer)
    # is held for the view change with its position, not delivered.
    engine = TotalEngine(VIEW, "b")
    m1, m2 = data("a", 1, "total"), data("a", 2, "total")
    m1.global_seq, m2.global_seq = 1, 2
    assert engine.on_receive(m2) == []
    assert engine.held() == [m2]
    assert engine.known_orders() == [(2, ("a", 2))]
    assert engine.delivered_through == 0 and engine.next_global_seq == 3


def test_total_engine_history_reported_after_delivery():
    engine = TotalEngine(VIEW, "b")
    m1 = data("a", 1, "total")
    m1.global_seq = 1
    assert engine.on_receive(m1) == [m1]
    # delivered, but flush must still see the assignment
    assert engine.known_orders() == [(1, ("a", 1))]
    assert engine.next_global_seq == 2


def test_total_engine_starts_from_given_global_seq():
    engine = TotalEngine(VIEW, "a", next_global_seq=7)
    assert engine.stamp(data("b", 1, "total")).global_seq == 7
    receiver = TotalEngine(VIEW, "b", next_global_seq=7)
    m = stamped(data("c", 1, "total"), 7)
    assert receiver.on_receive(m) == [m]


def test_total_engine_duplicate_data_and_order_idempotent():
    engine = TotalEngine(VIEW, "b")
    mine = data("b", 1, "total")
    engine.on_receive(mine)
    back = stamped(mine, 1)
    assert engine.on_receive(back) == [back]
    assert engine.on_receive(stamped(mine, 1)) == []
    assert engine.held() == [] and engine.delivered_through == 1


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12))
def test_property_total_delivery_follows_global_sequence(senders):
    """Whatever mix of members multicasts — the sequencer stamping its own,
    the others relayed — every member delivers exactly the sequencer's
    stamping order, and an originator delivers its own abcast when the
    stamped copy returns."""
    engines = {me: TotalEngine(VIEW, me) for me in "abc"}
    sequencer = engines["a"]
    counts = {me: 0 for me in "abc"}
    delivered = {me: [] for me in "abc"}
    for sender in senders:
        counts[sender] += 1
        m = data(sender, counts[sender], "total")
        engines[sender].stamp_outgoing(m)
        delivered[sender] += engines[sender].on_receive(m)
        if m.global_seq is None:
            m = sequencer.stamp(m)
            delivered["a"] += sequencer.on_receive(m)
        for me in "bc":
            delivered[me] += engines[me].on_receive(m)
    order = [d.global_seq for d in delivered["a"]]
    assert order == list(range(1, len(senders) + 1))
    for me in "abc":
        assert [d.message_id for d in delivered[me]] == [
            d.message_id for d in delivered["a"]
        ]
        assert engines[me].held() == []


# -- stability ----------------------------------------------------------------------
#
# "a" is rank 0: its tracker is the floor side (keeps the table, computes
# and announces floors).  Everyone else's is the report side.


def test_stability_tracks_watermarks_and_unstable():
    for me in ("a", "b"):  # coordinator and not
        tracker = StabilityTracker(me, ("a", "b", "c"))
        m1, m2 = data("b", 1), data("b", 2)
        tracker.record(m1)
        tracker.record(m2)
        assert tracker.watermarks()["b"] == 2
        # nobody else has confirmed: everything unstable
        assert len(tracker.unstable()) == 2
        assert tracker.stable_floor("b") == 0


def test_stability_gossip_truncates():
    tracker = StabilityTracker("a", ("a", "b", "c"))
    tracker.record(data("b", 1))
    tracker.record(data("b", 2))
    tracker.on_report("b", {"b": 2}, 0)
    tracker.on_report("c", {"b": 1}, 0)
    # min across members: a=2 (self), b=2, c=1 -> floor 1
    assert tracker.stable_floor("b") == 1
    unstable = tracker.unstable()
    assert [d.sender_seq for d in unstable] == [2]
    assert tracker.log_size() == 1
    # the announcement carries the floor that moved, once
    assert tracker.take_floors(0) == ({"b": 1}, 0)
    assert tracker.take_floors(0) is None


def test_stability_announced_floor_truncates_at_a_member():
    tracker = StabilityTracker("b", ("a", "b", "c"))
    assert tracker._peer_view is None  # O(k): no table off the coordinator
    tracker.record(data("b", 1))
    tracker.record(data("b", 2))
    tracker.on_floors({"b": 1}, 0)
    assert tracker.stable_floor("b") == 1
    assert [d.sender_seq for d in tracker.unstable()] == [2]
    assert tracker.log_size() == 1
    tracker.on_floors({"b": 0}, 0)  # floors never fall
    assert tracker.stable_floor("b") == 1


def test_stability_report_carries_only_what_moved_and_only_once():
    tracker = StabilityTracker("b", ("a", "b", "c"))
    assert tracker.take_report(0) is None  # idle: nothing to say
    tracker.record(data("c", 1))
    tracker.record(data("c", 2))
    tracker.record(data("b", 1))
    assert tracker.take_report(0) == ({"b": 1, "c": 2}, 0)
    assert tracker.take_report(0) is None
    tracker.record(data("c", 3))
    assert tracker.take_report(0) == ({"c": 3}, 0)
    # the abcast frontier alone is worth a report
    assert tracker.take_report(5) == ({}, 5)
    assert tracker.take_report(5) is None


def test_stability_ordered_floor_is_the_minimum_frontier():
    tracker = StabilityTracker("a", ("a", "b", "c"), ordered=10)
    assert tracker.take_floors(10) is None  # the view starts level
    tracker.on_report("b", {}, 14)
    assert tracker.take_floors(15) is None  # c still at 10
    tracker.on_report("c", {}, 12)
    assert tracker.take_floors(15) == ({}, 12)
    assert tracker.ordered_floor == 12
    member = StabilityTracker("b", ("a", "b", "c"), ordered=10)
    member.on_floors({}, 12)
    assert member.ordered_floor == 12


def test_stability_fully_stable_empties_log():
    tracker = StabilityTracker("a", ("a", "b"))
    tracker.record(data("b", 1))
    tracker.on_report("b", {"b": 1}, 0)
    assert tracker.unstable() == []
    assert tracker.log_size() == 0
    member = StabilityTracker("b", ("a", "b"))
    member.record(data("b", 1))
    member.on_floors({"b": 1}, 0)
    assert member.unstable() == []
    assert member.log_size() == 0


def test_stability_ignores_departed_sender_and_stranger_gossip():
    tracker = StabilityTracker("a", ("a", "b"))
    tracker.record(data("z", 1))  # not a member
    assert tracker.unstable() == []
    tracker.on_report("zz", {"b": 9}, 0)  # stranger's report ignored
    tracker.on_report("b", {"zz": 9}, 0)  # and a report about a stranger
    assert tracker.stable_floor("b") == 0
    assert tracker.stable_floor("zz") == 0
    assert tracker.take_floors(0) is None
    member = StabilityTracker("b", ("a", "b"))
    member.on_floors({"zz": 9}, 0)
    assert member.stable_floor("zz") == 0


def test_stability_own_sends_recorded():
    tracker = StabilityTracker("a", ("a", "b"))
    tracker.record(data("a", 1))
    assert [d.sender for d in tracker.unstable()] == ["a"]


def test_stability_single_member_view_truncates_on_its_tick():
    tracker = StabilityTracker("a", ("a",))
    tracker.record(data("a", 1))
    assert tracker.take_floors(0) == ({"a": 1}, 0)  # nobody to send it to
    assert tracker.log_size() == 0
