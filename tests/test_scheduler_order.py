"""The scheduler fires in exactly the order of a plain heap.

``Scheduler`` keeps every periodic handle (``every``) in tick buckets:
all the handles due at one instant wait behind a single heap entry,
sealed whenever another seq-consuming schedule lands on its instant, and
the bucket re-arms each handle one period on before calling it.
``PlainHeap`` below is the engine that mechanism must be
indistinguishable from: one ``(time, seq)`` heap entry per arm and per
tick, lazy cancellation, nothing pooled.  A hypothesis script drives both
through random interleavings of ``every``, ``at``, ``at_call``, posts
(``at_call_once``, which returns no handle and is never cancelled),
``after_call_once``, ``cancel`` (of any handle still queued, also from a
callback at the instant it is due) and a crash (cancel every periodic
handle of one owner, also from a callback in the middle of a bucket), on
dyadic times so that ticks, first arms, posts and one-shots keep landing
on the same instants.  A periodic handle that fires at or past ``HORIZON`` cancels
itself in its own callback, so a run drains.  After every run slice the
firing order, ``now``, ``events_processed`` and ``pending`` must be
identical, and so must the per-call counts every handle callback sees.

The scheduler has one run loop for every bound, so the same scripts run
under each way of driving it: ``run(until=...)`` slices, one unbounded
``run()``, ``run(max_events=...)`` slices and ``step()``.  A bucket fires
whole, so ``max_events`` and ``step`` may overshoot the reference's
slice by the tail of one bucket; only the firing order is compared there.
"""

import heapq
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FixedLatency, HandlerTable, UniformLatency
from repro.proc import Environment, Process
from repro.sim.scheduler import Scheduler

# Few dyadic delays: sums stay exact, so ticks, first arms and one-shots
# keep landing on the instants equal-period handles share.
DELAYS = (0.0, 0.25, 0.5)
HORIZON = 3.0  # a periodic handle firing from here on cancels itself
SLICES = [0.125 * i for i in range(1, 33)]  # run(until=...) steps, to 4.0


class _RefEvent:
    __slots__ = ("heap", "fn", "period", "cancelled", "queued")

    def __init__(self, heap, fn, period=None):
        self.heap = heap
        self.fn = fn
        self.period = period
        self.cancelled = False
        self.queued = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if self.queued:
            self.heap.pending -= 1


class PlainHeap:
    """The reference engine: a heap entry per arm, FIFO among equal
    times; a periodic event pushes its next tick before it runs."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self.pending = 0

    def _push(self, time, event):
        assert time >= self.now
        event.queued = True
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self.pending += 1
        return event

    def at(self, time, fn):
        return self._push(time, _RefEvent(self, fn))

    def at_call(self, time, fn, arg):
        return self._push(time, _RefEvent(self, lambda: fn(arg)))

    def at_call_once(self, time, fn, arg):
        self.at_call(time, fn, arg)  # a post: no handle

    def after_call_once(self, delay, fn, arg):
        return self.at_call(self.now + delay, fn, arg)

    def every(self, interval, fn):
        return self._push(self.now + interval, _RefEvent(self, fn, interval))

    def run(self, until=None, max_events=None):
        heap = self._heap
        fired = 0
        while heap and (until is None or heap[0][0] <= until):
            if max_events is not None and fired >= max_events:
                return
            time, _seq, event = heapq.heappop(heap)
            event.queued = False
            if event.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            self.pending -= 1
            fired += 1
            if event.period is not None:
                self._push(time + event.period, event)
            event.fn()
        if until is not None and until > self.now:
            self.now = until

    def step(self):
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before


delay = st.sampled_from((0, 1, 2, 2))  # mostly one common period ahead
period = st.sampled_from((1, 2, 2))
actions = st.one_of(
    st.tuples(st.just("at"), delay, st.just(0)),
    st.tuples(st.just("at_call"), delay, st.just(0)),
    st.tuples(st.just("post"), delay, st.just(0)),
    st.tuples(st.just("once"), delay, st.just(0)),
    st.tuples(st.just("every"), period, st.just(0)),
    st.tuples(st.just("cancel"), st.just(0), st.integers(0, 50)),
    st.tuples(st.just("crash"), st.just(0), st.integers(0, 2)),
    st.tuples(st.just("idle"), st.just(0), st.just(0)),
)


class Driver:
    """Runs one script against one engine and logs what it observes.

    Every fired callback (and every run slice) consumes the next script
    action, so two engines consume the same actions exactly as long as
    they fire in the same order.  Labels name handles across engines.
    """

    def __init__(self, sched, script, periods):
        self.s = sched
        self.script = script
        self.cursor = 0
        self.log = []
        self.kinds = {}  # label -> "plain" | "post" | "once" | "every"
        self.handles = {}  # label -> handle, while it may be touched
        self.queued = {}  # cancellable queued labels, in queueing order
        for p in periods:
            self._schedule("every", p)

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, kind, delay):
        s = self.s
        label = len(self.kinds)
        self.kinds[label] = kind if kind in ("post", "once", "every") else "plain"
        if kind == "post":
            assert s.at_call_once(s.now + DELAYS[delay], self.fire, label) is None
            return  # no handle: never cancelled
        if kind == "every":
            handle = s.every(DELAYS[delay], lambda: self.fire(label))
        elif kind == "at":
            handle = s.at(s.now + DELAYS[delay], lambda: self.fire(label))
        elif kind == "at_call":
            handle = s.at_call(s.now + DELAYS[delay], self.fire, label)
        else:
            handle = s.after_call_once(DELAYS[delay], self.fire, label)
        self.handles[label] = handle
        self.queued[label] = None

    def _cancel(self, label):
        self.handles.pop(label).cancel()
        del self.queued[label]

    def act(self):
        if self.cursor >= len(self.script):
            return
        kind, delay, pick = self.script[self.cursor]
        self.cursor += 1
        if kind in ("at", "at_call", "post", "once", "every"):
            self._schedule(kind, delay)
        elif kind == "cancel" and self.queued:
            self._cancel(list(self.queued)[pick % len(self.queued)])
        elif kind == "crash":
            # A crash cancels one owner's periodic handles wherever they
            # wait, the tail of the bucket firing now included.
            for label in list(self.queued):
                if label % 3 == pick and self.kinds[label] == "every":
                    self._cancel(label)

    # -- firing -----------------------------------------------------------------

    def fire(self, label):
        s = self.s
        self.log.append((label, s.now, s.events_processed, s.pending))
        kind = self.kinds[label]
        if kind == "every":
            # Re-armed before its callback: still queued, and cancelled
            # here once the horizon is reached.
            if s.now >= HORIZON:
                self._cancel(label)
        elif kind != "post":
            del self.queued[label]
            if kind == "once":
                del self.handles[label]  # recycled once fired: never touched again
        self.act()

    def drive(self, mode="until"):
        """Run the script to the end; ``mode`` names how the engine is
        driven.  Only ``until`` slices consume an action per slice: the
        other modes' slice edges differ between the engines."""
        s = self.s
        if mode == "until":
            for until in SLICES:
                self.act()
                s.run(until=until)
                self.log.append(("slice", s.now, s.events_processed, s.pending))
        elif mode == "max_events":
            before = -1
            while s.events_processed != before:
                before = s.events_processed
                s.run(max_events=3)
        elif mode == "step":
            while s.step():
                pass
        s.run()
        self.log.append(("drained", s.now, s.events_processed, s.pending))
        return self.log


MODES = ("until", "run", "max_events", "step")


def run_both(script, periods, mode="until"):
    ours = Driver(Scheduler(), script, periods).drive(mode)
    reference = Driver(PlainHeap(), script, periods).drive(mode)
    return ours, reference


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(actions, max_size=80),
    periods=st.lists(period, min_size=2, max_size=6),
)
def test_firing_order_and_counts_match_a_plain_heap(script, periods):
    ours, reference = run_both(script, periods)
    assert ours == reference


@settings(max_examples=100, deadline=None)
@given(
    script=st.lists(actions, max_size=80),
    periods=st.lists(period, min_size=2, max_size=6),
    mode=st.sampled_from(MODES[1:]),
)
def test_every_way_of_running_fires_in_the_plain_heap_order(script, periods, mode):
    ours, reference = run_both(script, periods, mode)
    assert ours == reference


def fired_at(log, time):
    return [entry[0] for entry in log if entry[0] not in ("slice", "drained") and entry[1] == time]


IDLE = ("idle", 0, 0)


def test_a_same_instant_schedule_seals_the_open_bucket():
    """Four periodic handles fire at 0.5 and re-arm for 1.0; after each
    re-arm the handle's action lands a one-shot, an ``at``, a post and
    an ``at_call`` on 1.0.  Each must fire right after the
    handle that scheduled it, as a heap entry per call orders it: every
    schedule seals the tick bucket open at 1.0, so the next re-arm opens
    another.  (The four idles are the slices' actions up to 0.5.)"""
    script = [IDLE] * 4 + [("once", 2, 0), ("at", 2, 0), ("post", 2, 0), ("at_call", 2, 0)]
    ours, reference = run_both(script, [2, 2, 2, 2])
    assert ours == reference
    assert fired_at(ours, 1.0) == [0, 4, 1, 5, 2, 6, 3, 7]


def test_a_one_shot_cancelled_at_its_own_instant_does_not_fire():
    """Three periodic handles fire at 0.5; their actions queue an
    ``after_call_once`` one-shot (3), a post (4) and an ``at`` (5) on
    1.0.  At 1.0 the first handle fires first and cancels the one-shot,
    due at that very instant and next in line: it is skipped and not
    counted, and the post and the ``at`` fire in their places.  (The
    idles are the slices' actions up to 0.5 and from 0.625 to 1.0; a
    cancel picks among the handles still queued, 0, 1, 2, 3 and 5.)"""
    script = (
        [IDLE] * 4 + [("once", 2, 0), ("post", 2, 0), ("at", 2, 0)]
        + [IDLE] * 4 + [("cancel", 0, 3)]
    )
    ours, reference = run_both(script, [2, 2, 2])
    assert ours == reference
    assert fired_at(ours, 1.0) == [0, 1, 4, 2, 5]


def test_a_cancelled_handle_in_a_bucket_is_skipped_and_not_counted():
    """Three 0.25-s handles fire at 0.25 and wait in one bucket for 0.5;
    the slice action at 0.375 crashes owner 1, cancelling handle 1 there."""
    ours, reference = run_both([IDLE] * 5 + [("crash", 0, 1)], [1, 1, 1])
    assert ours == reference
    assert fired_at(ours, 0.25) == [0, 1, 2]
    assert fired_at(ours, 0.5) == [0, 2]
    # The drained run counted 2 handles a tick after the crash, not 3.
    assert ours[-1][2] == 3 + 2 * 11


def test_max_events_and_step_fire_a_bucket_whole():
    """Three 1-s handles share one tick bucket at 1.0, and three 1.5-s
    handles another at 1.5, the middle one cancelled there.
    ``run(max_events=1)`` fires the first bucket whole, overshooting by
    its tail of two handles, each re-armed for 2.0 before it runs;
    ``step()`` fires the second whole and skips the cancelled handle
    without counting it; with the rest cancelled, nothing is left to
    step and the heap drains."""
    s = Scheduler()
    fired = []
    first = [s.every(1.0, lambda label=label: fired.append(label)) for label in "abc"]
    second = [s.every(1.5, lambda label=label: fired.append(label)) for label in "xyz"]
    second[1].cancel()
    assert (s.heap_size, s.pending) == (2, 5)
    s.run(max_events=1)
    assert (fired, s.now, s.events_processed, s.pending) == (["a", "b", "c"], 1.0, 3, 5)
    assert [handle.time for handle in first] == [2.0, 2.0, 2.0]
    assert s.step()
    assert (fired[3:], s.now, s.events_processed, s.pending) == (["x", "z"], 1.5, 5, 5)
    for handle in first + second:
        handle.cancel()
    assert not s.step()
    assert (s.now, s.events_processed, s.pending, s.heap_size) == (1.5, 5, 0, 0)


def test_a_first_arm_joins_the_bucket_open_at_its_instant():
    """Three 0.5-s handles fire at 0.5; the first one's action arms a
    fourth handle with the same period, whose first tick lands on 1.0,
    where the first handle already waits in an open bucket.  It joins
    that bucket — one heap entry holds all four — and fires exactly
    where its own heap entry would: after the handle that armed it and
    before the two that re-armed later."""
    script = [IDLE] * 4 + [("every", 2, 0)]
    ours, reference = run_both(script, [2, 2, 2])
    assert ours == reference
    assert fired_at(ours, 1.0) == [0, 3, 1, 2]

    s = Scheduler()
    s.every(0.5, lambda: None)
    s.run(until=0.5)
    s.every(0.5, lambda: None)
    assert (s.heap_size, s.pending) == (1, 2)


@pytest.mark.parametrize("mode", MODES)
def test_a_cancelled_handle_in_a_bucket_is_skipped_in_every_mode(mode):
    """The crash scenario above, driven each way: the firing order and
    the drained counts match the reference's.  Off ``until`` slices only
    fires take actions, so the three at 0.25 idle and the first at 0.5
    crashes owner 1 while its handle waits in that instant's bucket."""
    idles = 5 if mode == "until" else 3
    ours, reference = run_both([IDLE] * idles + [("crash", 0, 1)], [1, 1, 1], mode)
    assert ours == reference
    assert fired_at(ours, 0.5) == [0, 2]


# -- an idle population pays once per instant ---------------------------------


@dataclass
class Beat:
    category = "heartbeat"


def test_an_idle_population_holds_one_heap_entry_per_instant():
    """1,024 processes tick ``every(0.2)`` on one phase and send one
    jittered heartbeat a tick.  Sampled mid-period from the first tick
    on, when no heartbeat is in flight, the heap holds the one tick
    bucket, not 1,024 timers; and after the first second no event or
    argument list is built fresh."""
    env = Environment(seed=1, latency=UniformLatency(0.001, 0.004))
    n = 1024
    procs = [Process(env, f"p{i}") for i in range(n)]
    received = [0]
    for i, proc in enumerate(procs):
        proc.on(Beat, lambda _payload, _src: received.__setitem__(0, received[0] + 1))
        proc.every(0.2, lambda proc=proc, dst=f"p{(i + 1) % n}": proc.send(dst, Beat()))
    sched = env.scheduler
    peak = 0
    fresh = None
    for k in range(25):
        env.run(until=0.1 + 0.2 * k)
        if k:
            peak = max(peak, sched.heap_size)
        if k == 5:
            stats = sched.alloc_stats
            fresh = stats["fresh_events"] + stats["fresh_arg_lists"]
    assert received[0] == 24 * n
    assert sched.events_processed == 2 * 24 * n
    assert peak <= 64
    stats = sched.alloc_stats
    assert stats["fresh_events"] + stats["fresh_arg_lists"] == fresh


def test_a_datagram_builds_no_event():
    """Under ``FixedLatency`` every datagram of a round lands on one
    instant: 200 from 8 senders, to 8 receivers, arrive in the order they
    were sent.  Each delivery is a post, a bare heap entry, so no event
    is built or drawn from the free list: ``fresh_events`` and
    ``pooled_events`` stay where they were before the first send.  The
    envelopes go back to their free list, and after the first round none
    is built fresh."""
    env = Environment(seed=1, latency=FixedLatency(0.001))
    network, sched = env.network, env.scheduler
    arrived = []
    for r in range(8):
        network.register(f"r{r}", HandlerTable(SimpleNamespace(
            unhandled=lambda payload, src: arrived.append((src, payload))
        )))
    events = (sched.alloc_stats["fresh_events"], sched.alloc_stats["pooled_events"])
    fresh = None
    for round_ in range(5):
        sent = [(f"s{i % 8}", Beat()) for i in range(200)]
        for i, (src, beat) in enumerate(sent):
            network.send(src, f"r{(3 * i) % 8}", beat)
        assert (sched.pending, sched.heap_size) == (200, 200)
        before = sched.events_processed
        env.run_for(0.01)
        assert arrived == sent
        assert sched.events_processed - before == 200
        assert (sched.alloc_stats["fresh_events"], sched.alloc_stats["pooled_events"]) == events
        assert network.alloc_stats["pooled_envelopes"] >= 200
        arrived.clear()
        if round_:
            assert network.alloc_stats["fresh_envelopes"] == fresh
        fresh = network.alloc_stats["fresh_envelopes"]
