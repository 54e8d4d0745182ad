"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Scheduler, SimulationError


def test_starts_at_time_zero():
    assert Scheduler().now == 0.0


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.at(2.0, lambda: fired.append("b"))
    sched.at(1.0, lambda: fired.append("a"))
    sched.at(3.0, lambda: fired.append("c"))
    sched.run()
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_fifo():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.at(1.0, lambda n=name: fired.append(n))
    sched.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.at(5.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [5.0]
    assert sched.now == 5.0


def test_after_is_relative_to_now():
    sched = Scheduler()
    seen = []
    sched.at(1.0, lambda: sched.after(2.0, lambda: seen.append(sched.now)))
    sched.run()
    assert seen == [3.0]


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.at(4.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Scheduler().after(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    handle = sched.at(1.0, lambda: fired.append("x"))
    handle.cancel()
    sched.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_after_firing_is_harmless():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    sched.run()
    handle.cancel()  # must not raise


def test_run_until_is_inclusive():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(2.0, lambda: fired.append(2))
    sched.at(3.0, lambda: fired.append(3))
    sched.run(until=2.0)
    assert fired == [1, 2]
    assert sched.now == 2.0


def test_run_until_advances_clock_through_quiet_period():
    sched = Scheduler()
    sched.run(until=10.0)
    assert sched.now == 10.0


def test_run_for_runs_relative_window():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(5.0, lambda: fired.append(5))
    sched.run_for(2.0)
    assert fired == [1]
    assert sched.now == 2.0
    sched.run_for(3.0)
    assert fired == [1, 5]


def test_max_events_bound():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.at(float(i), lambda i=i: fired.append(i))
    sched.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    sched.run()
    assert fired == list(range(10))


def test_events_scheduled_during_run_fire_in_same_run():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sched.after(1.0, lambda: chain(n + 1))

    sched.at(0.0, lambda: chain(0))
    sched.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_step_fires_one_event():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(2.0, lambda: fired.append(2))
    assert sched.step()
    assert fired == [1]
    assert sched.step()
    assert not sched.step()


def test_events_processed_counter():
    sched = Scheduler()
    for i in range(7):
        sched.at(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 7


def test_pending_excludes_cancelled():
    sched = Scheduler()
    sched.at(1.0, lambda: None)
    handle = sched.at(2.0, lambda: None)
    handle.cancel()
    assert sched.pending == 1


def test_pending_is_a_counter_not_a_scan():
    sched = Scheduler()
    handles = [sched.at(float(i), lambda: None) for i in range(10)]
    assert sched.pending == 10
    for h in handles[:4]:
        h.cancel()
    assert sched.pending == 6
    sched.run(max_events=3)
    assert sched.pending == 3
    sched.run()
    assert sched.pending == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    sched.run(until=1.0)
    assert sched.pending == 1
    handle.cancel()  # already fired: must not decrement live count
    handle.cancel()  # idempotent
    assert sched.pending == 1
    sched.run()
    assert sched.pending == 0


def test_double_cancel_counts_once():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sched.pending == 1
    sched.run()
    assert sched.events_processed == 1


def test_run_max_events_resumption_preserves_order_and_clock():
    sched = Scheduler()
    fired = []
    for i in range(9):
        sched.at(float(i), lambda i=i: fired.append(i))
    sched.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert sched.now == 3.0
    sched.run(max_events=2)
    assert fired == [0, 1, 2, 3, 4, 5]
    sched.run(until=100.0)
    assert fired == list(range(9))
    assert sched.now == 100.0


def test_run_for_through_quiet_periods_accumulates_time():
    sched = Scheduler()
    fired = []
    sched.at(7.5, lambda: fired.append(sched.now))
    for _ in range(5):
        sched.run_for(2.0)
    assert sched.now == 10.0
    assert fired == [7.5]


def test_at_call_passes_argument_without_closure():
    sched = Scheduler()
    seen = []
    sched.at_call(1.0, seen.append, "x")
    sched.after_call(2.0, seen.append, "y")
    handle = sched.at_call(3.0, seen.append, "z")
    handle.cancel()
    sched.run()
    assert seen == ["x", "y"]


def test_at_call_interleaves_fifo_with_at():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append("a"))
    sched.at_call(1.0, fired.append, "b")
    sched.at(1.0, lambda: fired.append("c"))
    sched.run()
    assert fired == ["a", "b", "c"]


def test_every_ticks_one_handle_for_its_whole_life():
    sched = Scheduler()
    ticks = []
    handle = sched.every(1.0, lambda: ticks.append((sched.now, handle.time)))
    assert handle.time == 1.0
    sched.run(until=3.0)
    # Each tick sees its handle already re-armed one period on.
    assert ticks == [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
    assert sched.events_processed == 3 and sched.pending == 1
    handle.cancel()
    assert handle.cancelled and sched.pending == 0
    sched.run()
    assert len(ticks) == 3


def test_every_rejects_a_negative_interval():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.every(-0.5, lambda: None)
    assert sched.pending == 0 and sched.heap_size == 0


def test_every_cancelled_in_its_own_callback_stops():
    sched = Scheduler()
    fired = []

    def tick():
        fired.append(sched.now)
        if len(fired) == 2:
            handle.cancel()

    handle = sched.every(0.5, tick)
    sched.run()
    assert fired == [0.5, 1.0]
    assert (sched.now, sched.events_processed, sched.pending) == (1.0, 2, 0)


def test_heap_compaction_under_mass_cancellation():
    sched = Scheduler()
    fired = []
    keep = sched.at(10.0, lambda: fired.append("keep"))
    handles = [sched.at(5.0 + i * 1e-6, lambda: fired.append("bad")) for i in range(500)]
    assert sched.heap_size == 501
    for h in handles:
        h.cancel()
    # Lazily cancelled events must have been compacted away, not left to
    # linger until the clock reaches them.
    assert sched.heap_size < 500
    assert sched.pending == 1
    sched.run()
    assert fired == ["keep"]
    assert sched.events_processed == 1
    assert keep.time == 10.0


def test_compaction_preserves_order_and_survivors():
    sched = Scheduler()
    fired = []
    survivors = []
    doomed = []
    for i in range(300):
        t = 1.0 + (i % 7) * 0.1
        h = sched.at(t, lambda i=i: fired.append(i))
        (doomed if i % 3 else survivors).append((t, i, h))
    for _t, _i, h in doomed:
        h.cancel()
    sched.run()
    expected = [i for t, i, _h in sorted(survivors, key=lambda s: (s[0], s[1]))]
    assert fired == expected


def test_compaction_during_run_via_cancelling_event():
    sched = Scheduler()
    fired = []
    handles = [sched.at(5.0 + i * 1e-6, lambda: fired.append("bad")) for i in range(300)]

    def cancel_all():
        for h in handles:
            h.cancel()

    sched.at(1.0, cancel_all)
    sched.at(6.0, lambda: fired.append("end"))
    sched.run()
    assert fired == ["end"]


def test_cancelled_periodic_stream_does_not_leak_heap():
    sched = Scheduler()
    # Simulates heartbeat-timer churn: schedule+cancel in a rolling window.
    live = []
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 2000:
            live.append(sched.after(1.0, tick))
            handle = sched.after(5.0, lambda: None)
            handle.cancel()

    sched.after(1.0, tick)
    sched.run()
    assert count[0] == 2000
    # The heap must stay bounded, not accumulate 2000 cancelled events.
    assert sched.heap_size <= 200


def test_reentrant_run_rejected():
    sched = Scheduler()
    errors = []

    def reenter():
        try:
            sched.run()
        except SimulationError as exc:
            errors.append(exc)

    sched.at(1.0, reenter)
    sched.run()
    assert len(errors) == 1


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_fire_order_is_sorted(times):
    sched = Scheduler()
    fired = []
    for t in times:
        sched.at(t, lambda t=t: fired.append(t))
    sched.run()
    assert fired == sorted(times)
    assert sched.events_processed == len(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_property_cancellation_removes_exactly_cancelled(events):
    sched = Scheduler()
    fired = []
    expected = []
    for index, (t, keep) in enumerate(events):
        handle = sched.at(t, lambda i=index: fired.append(i))
        if keep:
            expected.append((t, index))
        else:
            handle.cancel()
    sched.run()
    assert fired == [i for _, i in sorted(expected, key=lambda p: (p[0], p[1]))]
