"""Property-based tests for the reliable transport and channel state."""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.net import FixedLatency
from repro.proc import Environment, Process
from repro.transport import ReceiveState, ReliableTransport, Segment, SendState


@dataclass
class AppMsg:
    category = "app"
    n: int = 0


class Peer(Process):
    def __init__(self, env, address):
        super().__init__(env, address)
        self.transport = ReliableTransport(self, rto=0.05)
        self.inbox = []
        self.on(AppMsg, lambda m, s: self.inbox.append(m.n))


# -- pure channel state properties ---------------------------------------------------


@given(st.permutations(list(range(1, 9))))
def test_property_receive_state_reorders_any_arrival(order):
    state = ReceiveState(channel_id=(0, 0))
    delivered = []
    for seq in order:
        delivered += state.accept(Segment(seq=seq, payload=seq))
    assert delivered == list(range(1, 9))
    assert state.cum_seq == 8


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=30)
)
def test_property_receive_state_duplicates_never_redeliver(seqs):
    state = ReceiveState(channel_id=(0, 0))
    delivered = []
    for seq in seqs:
        delivered += state.accept(Segment(seq=seq, payload=seq))
    assert delivered == sorted(set(delivered))
    assert len(delivered) == len(set(delivered))


@given(st.integers(min_value=0, max_value=20))
def test_property_send_state_ack_prefix(acked):
    state = SendState()
    now = 0.0
    for i in range(10):
        state.admit(f"p{i}", now)
    state.acknowledge(acked)
    expected_remaining = max(0, 10 - acked)
    assert len(state.unacked) == expected_remaining
    assert all(seq > acked for seq in state.unacked)


RTO, HOLD = 0.05, 0.5


@given(st.lists(st.tuples(
    st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.5, 0.55]),
    st.sampled_from(["prompt", "lazy", "ack", "gap", "sweep"]),
    st.integers(min_value=0, max_value=30),
), max_size=60))
def test_property_unacked_stays_one_contiguous_run_in_seq_order(steps):
    """``acknowledge`` and ``resend_below`` walk seq ranges and the sweep
    walks the dict unsorted: all rely on ``unacked`` being the run
    ``first_unacked .. next_seq - 1`` in seq order, whatever mix of
    admissions, cumulative acks, gap resends and sweeps came before."""
    state, now = SendState(), 0.0
    for advance, op, arg in steps:
        now += advance
        if op in ("prompt", "lazy"):
            state.admit(f"p{state.next_seq}", now, lazy=op == "lazy")
        elif op == "ack":
            state.acknowledge(arg)
        elif op == "gap":
            state.resend_below(arg, now)
        else:
            swept = state.due_for_retransmit(now, RTO, hold=HOLD)
            assert [s.seq for s in swept] == sorted(s.seq for s in swept)
        assert list(state.unacked) == list(range(state.first_unacked, state.next_seq))


def test_send_state_resend_rules():
    state = SendState()
    state.admit("lazy-1", 0.0, lazy=True)
    state.admit("prompt-2", 0.0)
    state.admit("lazy-3", 0.0, lazy=True)
    # A prompt segment is due at rto; the lazy one ahead of it comes too,
    # the lazy one behind it waits for rto + hold.
    assert state.due_for_retransmit(0.01, RTO, hold=HOLD) == []
    assert [s.seq for s in state.due_for_retransmit(RTO, RTO, hold=HOLD)] == [1, 2]
    state.acknowledge(2)
    assert list(state.unacked) == [3] and state.first_unacked == 3
    assert [s.seq for s in state.due_for_retransmit(0.54, RTO, hold=HOLD)] == []
    assert [s.seq for s in state.due_for_retransmit(0.55, RTO, hold=HOLD)] == [3]
    # A gap report resends everything below where the gap ends.
    state.admit("prompt-4", 0.56)
    state.admit("lazy-5", 0.56, lazy=True)
    assert [s.seq for s in state.resend_below(5, 0.57)] == [3, 4]


def test_receive_state_reports_where_its_first_gap_ends():
    state = ReceiveState(channel_id=(0, 0))
    assert state.high == 0
    for seq in (1, 4, 5, 8):  # 2 and 3 missing, then 6 and 7
        state.accept(Segment(seq=seq, payload=seq))
    assert (state.cum_seq, state.high) == (1, 4)
    for seq in (2, 3):
        state.accept(Segment(seq=seq, payload=seq))
    assert (state.cum_seq, state.high) == (5, 8)
    for seq in (6, 7):
        state.accept(Segment(seq=seq, payload=seq))
    assert (state.cum_seq, state.high) == (8, 0)


def test_send_state_restart_preserves_payload_order():
    state = SendState()
    for i in range(5):
        state.admit(f"p{i}", 0.0)
    state.acknowledge(2)
    pending = state.restart(1.0)
    assert pending == ["p2", "p3", "p4"]
    assert state.epoch == 1 and state.next_seq == 1 and not state.unacked


# -- end-to-end properties over random loss schedules ---------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=0.45),
    count=st.integers(min_value=1, max_value=25),
)
def test_property_exactly_once_in_order_under_loss(seed, drop, count):
    env = Environment(
        seed=seed, latency=FixedLatency(0.003), drop_probability=drop
    )
    a = Peer(env, "a")
    b = Peer(env, "b")
    for i in range(count):
        a.transport.send("b", AppMsg(i))
    env.run_for(30.0)
    assert b.inbox == list(range(count))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    dup=st.floats(min_value=0.0, max_value=0.45),
)
def test_property_duplication_never_causes_redelivery(seed, dup):
    env = Environment(
        seed=seed, latency=FixedLatency(0.003), duplicate_probability=dup
    )
    a = Peer(env, "a")
    b = Peer(env, "b")
    for i in range(15):
        a.transport.send("b", AppMsg(i))
    env.run_for(20.0)
    assert b.inbox == list(range(15))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_bidirectional_loss_and_reboot(seed):
    env = Environment(
        seed=seed, latency=FixedLatency(0.003), drop_probability=0.2
    )
    a = Peer(env, "a")
    b = Peer(env, "b")
    for i in range(8):
        a.transport.send("b", AppMsg(i))
        b.transport.send("a", AppMsg(100 + i))
    env.run_for(10.0)
    b.crash()
    b.recover()
    for i in range(8, 12):
        a.transport.send("b", AppMsg(i))
    env.run_for(30.0)
    # a's view: everything b sent before its crash, in order
    assert a.inbox == [100 + i for i in range(8)]
    # b's post-reboot inbox continues the stream without duplicates of
    # what the *new incarnation* received
    post = b.inbox
    assert post == sorted(post)
    assert set(range(8, 12)) <= set(post)
