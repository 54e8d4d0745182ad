"""Unit and property tests for logical clocks."""

from hypothesis import given, strategies as st

import pytest

from repro.clocks import CausalBuffer, VectorClock


# -- Vector clocks ---------------------------------------------------------------


def test_vector_zero_and_increment():
    vc = VectorClock.zero()
    assert vc.get("p") == 0
    vc2 = vc.incremented("p")
    assert vc2.get("p") == 1
    assert vc.get("p") == 0  # original unchanged


def test_vector_merge_is_componentwise_max():
    a = VectorClock({"p": 3, "q": 1})
    b = VectorClock({"q": 5, "r": 2})
    merged = a.merged(b)
    assert merged == VectorClock({"p": 3, "q": 5, "r": 2})


def test_vector_ordering():
    lo = VectorClock({"p": 1})
    hi = VectorClock({"p": 2, "q": 1})
    assert lo < hi
    assert lo <= hi
    assert not hi <= lo


def test_vector_concurrency():
    a = VectorClock({"p": 1})
    b = VectorClock({"q": 1})
    assert a.concurrent_with(b)
    assert not a.concurrent_with(a)


def test_vector_restricted_projects_sites():
    vc = VectorClock({"p": 1, "q": 2, "r": 3})
    assert vc.restricted(["p", "r"]) == VectorClock({"p": 1, "r": 3})


def test_vector_zero_counts_normalised_away():
    assert VectorClock({"p": 0}) == VectorClock.zero()
    assert hash(VectorClock({"p": 0})) == hash(VectorClock.zero())


sites = st.sampled_from(["p", "q", "r", "s"])
vectors = st.dictionaries(sites, st.integers(min_value=0, max_value=8)).map(VectorClock)


@given(vectors, vectors)
def test_property_merge_is_lub(a, b):
    m = a.merged(b)
    assert a <= m and b <= m
    for site in list(a.sites()) + list(b.sites()):
        assert m.get(site) == max(a.get(site), b.get(site))


@given(vectors, vectors, vectors)
def test_property_partial_order(a, b, c):
    assert a <= a
    if a <= b and b <= a:
        assert a == b
    if a <= b and b <= c:
        assert a <= c


@given(vectors, vectors)
def test_property_exactly_one_relation(a, b):
    relations = [a < b, b < a, a == b, a.concurrent_with(b)]
    assert sum(relations) == 1


# -- Causal buffer ---------------------------------------------------------------


def stamp_for(sender, history):
    """Build the BSS timestamp a sender attaches given its delivered clock."""
    return history.incremented(sender)


def test_causal_buffer_in_order_delivery():
    buf = CausalBuffer()
    s1 = VectorClock({"p": 1})
    s2 = VectorClock({"p": 2})
    assert buf.add("p", s1, "m1") == ["m1"]
    assert buf.add("p", s2, "m2") == ["m2"]


def test_causal_buffer_holds_out_of_order():
    buf = CausalBuffer()
    s1 = VectorClock({"p": 1})
    s2 = VectorClock({"p": 2})
    assert buf.add("p", s2, "m2") == []
    assert buf.held_count == 1
    assert buf.add("p", s1, "m1") == ["m1", "m2"]
    assert buf.held_count == 0


def test_causal_buffer_cross_sender_dependency():
    # q sends m2 after delivering p's m1: receiver must get m1 first.
    buf = CausalBuffer()
    m1_stamp = VectorClock({"p": 1})
    m2_stamp = VectorClock({"p": 1, "q": 1})
    assert buf.add("q", m2_stamp, "m2") == []
    assert buf.add("p", m1_stamp, "m1") == ["m1", "m2"]


def test_causal_buffer_concurrent_messages_deliver_in_any_arrival_order():
    buf = CausalBuffer()
    assert buf.add("p", VectorClock({"p": 1}), "mp") == ["mp"]
    assert buf.add("q", VectorClock({"q": 1}), "mq") == ["mq"]


def test_causal_buffer_reset_drops_departed_senders():
    buf = CausalBuffer()
    buf.add("p", VectorClock({"p": 2}), "future")  # held: needs p:1
    dropped = buf.reset_to(VectorClock({"q": 4}), sites=["q", "r"])
    assert dropped == ["future"]
    assert buf.delivered_clock == VectorClock({"q": 4})
    # delivery resumes relative to the reset clock
    assert buf.add("q", VectorClock({"q": 5}), "m") == ["m"]


@given(st.permutations(list(range(6))))
def test_property_single_sender_always_delivers_in_seq_order(order):
    stamps = [VectorClock({"p": i + 1}) for i in range(6)]
    buf = CausalBuffer()
    delivered = []
    for index in order:
        delivered.extend(buf.add("p", stamps[index], index))
    assert delivered == list(range(6))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_random_interleaving_respects_causality(seed):
    """Simulate three gossiping senders; any delivery order the buffer
    produces must respect the happened-before relation of the stamps."""
    import random

    rng = random.Random(seed)
    clocks = {s: VectorClock.zero() for s in "pqr"}
    messages = []  # (sender, stamp, id)
    for i in range(12):
        sender = rng.choice("pqr")
        stamp = clocks[sender].incremented(sender)
        clocks[sender] = stamp
        # occasionally another site "delivers" this message immediately,
        # creating a causal chain across senders
        other = rng.choice("pqr")
        clocks[other] = clocks[other].merged(stamp)
        messages.append((sender, stamp, i))

    arrival = list(messages)
    rng.shuffle(arrival)
    buf = CausalBuffer()
    delivered = []
    for sender, stamp, mid in arrival:
        delivered.extend(buf.add(sender, stamp, (sender, stamp, mid)))
    assert len(delivered) == len(messages)
    for earlier_pos, (s1, st1, _) in enumerate(delivered):
        for s2, st2, _ in delivered[earlier_pos + 1 :]:
            assert not st2 < st1, "causal order violated"
