"""The scheduler fires in exactly the order of a plain heap.

``Scheduler`` batches the periodic handles ``rearm`` queues for one
instant behind a single heap entry, a tick bucket, sealed whenever another
seq-consuming schedule lands on its instant.  ``PlainHeap`` below is the
engine that mechanism must be indistinguishable from: one ``(time, seq)``
heap entry per call, lazy cancellation, nothing pooled.  A hypothesis
script drives both through random interleavings of ``at``, ``at_call``,
``at_call_once``, ``rearm``, ``cancel`` and a crash (cancel every
periodic handle of one owner), on dyadic times so that re-arms and
one-shots keep landing on the same instants.  After every run slice the firing order, ``now``,
``events_processed`` and ``pending`` must be identical, and so must the
per-call counts every handle callback sees.

The scheduler has one run loop for every bound, so the same scripts run
under each way of driving it: ``run(until=...)`` slices, one unbounded
``run()``, ``run(max_events=...)`` slices and ``step()``.  A bucket fires
whole, so ``max_events`` and ``step`` may overshoot the reference's
slice by the tail of one bucket; only the firing order is compared there.
"""

import heapq
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FixedLatency, UniformLatency
from repro.proc import Environment, Process
from repro.sim.scheduler import Scheduler

# Few dyadic delays: sums stay exact, so re-arms and one-shots keep
# landing on the instants equal-period handles share.
DELAYS = (0.0, 0.25, 0.5)
HORIZON = 3.0  # periodic handles stop re-arming here, so a run drains
SLICES = [0.125 * i for i in range(1, 33)]  # run(until=...) steps, to 4.0


class _RefEvent:
    __slots__ = ("heap", "fn", "cancelled", "queued")

    def __init__(self, heap, fn):
        self.heap = heap
        self.fn = fn
        self.cancelled = False
        self.queued = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if self.queued:
            self.heap.pending -= 1


class PlainHeap:
    """The reference engine: a heap entry per call, FIFO among equal
    times."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self.pending = 0

    def _push(self, time, event):
        assert time >= self.now
        event.queued = True
        event.cancelled = False
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self.pending += 1
        return event

    def at(self, time, fn):
        return self._push(time, _RefEvent(self, fn))

    def at_call(self, time, fn, arg):
        return self._push(time, _RefEvent(self, lambda: fn(arg)))

    at_call_once = at_call

    def rearm(self, handle, delay):
        assert not handle.queued
        return self._push(self.now + delay, handle)

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
            event.fn()
        if until is not None and until > self.now:
            self.now = until

    def step(self):
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before


delay = st.sampled_from((0, 1, 2, 2))  # mostly one common period ahead
actions = st.one_of(
    st.tuples(st.just("at"), delay, delay),  # the last field: period, 0 = none
    st.tuples(st.just("at_call"), delay, delay),
    st.tuples(st.just("once"), delay, st.just(0)),
    st.tuples(st.just("rearm"), delay, st.integers(0, 50)),
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
        self.kinds = {}  # label -> "plain" | "once"
        self.periods = {}  # label -> re-arm delay of a periodic handle
        self.handles = {}  # label -> handle, while it may be touched
        self.queued = {}  # cancellable queued labels, in queueing order
        self.fired = {}  # fired plain labels, free to re-arm
        for period in periods:
            self._schedule("at_call", DELAYS[period], period)

    # -- scheduling -------------------------------------------------------------

    def _label(self, kind):
        label = len(self.kinds)
        self.kinds[label] = kind
        return label

    def _schedule(self, kind, delay, period):
        s = self.s
        time = s.now + delay
        label = self._label("once" if kind == "once" else "plain")
        if kind == "at":
            handle = s.at(time, lambda: self.fire(label))
        elif kind == "at_call":
            handle = s.at_call(time, self.fire, label)
        else:
            handle = s.at_call_once(time, self.fire, label)
        if kind != "once" and period:
            self.periods[label] = DELAYS[period]
        self.handles[label] = handle
        self.queued[label] = None

    def _rearm(self, label, delay):
        del self.fired[label]
        self.s.rearm(self.handles[label], delay)
        self.queued[label] = None

    def _cancel(self, label):
        self.handles.pop(label).cancel()
        del self.queued[label]
        self.periods.pop(label, None)

    def act(self):
        if self.cursor >= len(self.script):
            return
        kind, delay, pick = self.script[self.cursor]
        self.cursor += 1
        if kind in ("at", "at_call", "once"):
            self._schedule(kind, DELAYS[delay], pick)
        elif kind == "rearm" and self.fired:
            self._rearm(list(self.fired)[pick % len(self.fired)], DELAYS[delay])
        elif kind == "cancel" and self.queued:
            self._cancel(list(self.queued)[pick % len(self.queued)])
        elif kind == "crash":
            # A crash cancels one owner's periodic handles wherever they
            # wait: a heap entry of their own or a tick bucket.
            for label in list(self.queued):
                if label % 3 == pick and label in self.periods:
                    self._cancel(label)

    # -- firing -----------------------------------------------------------------

    def fire(self, label):
        s = self.s
        del self.queued[label]
        self.log.append((label, s.now, s.events_processed, s.pending))
        if self.kinds[label] == "once":
            del self.handles[label]  # recycled once fired: never touched again
        else:
            self.fired[label] = None
            period = self.periods.get(label)
            if period is not None and s.now < HORIZON:
                # Re-arm before the callback's work, as Process.every does.
                self._rearm(label, period)
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
    periods=st.lists(st.sampled_from((1, 2, 2)), min_size=2, max_size=6),
)
def test_firing_order_and_counts_match_a_plain_heap(script, periods):
    ours, reference = run_both(script, periods)
    assert ours == reference


@settings(max_examples=100, deadline=None)
@given(
    script=st.lists(actions, max_size=80),
    periods=st.lists(st.sampled_from((1, 2, 2)), min_size=2, max_size=6),
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
    re-arm the handle's action lands a one-shot, an ``at``, a second
    one-shot and an ``at_call`` on 1.0.  Each must fire right after the
    handle that scheduled it, as a heap entry per call orders it: every
    schedule seals the tick bucket open at 1.0, so the next re-arm opens
    another.  (The four idles are the slices' actions up to 0.5.)"""
    script = [IDLE] * 4 + [("once", 2, 0), ("at", 2, 0), ("once", 2, 0), ("at_call", 2, 0)]
    ours, reference = run_both(script, [2, 2, 2, 2])
    assert ours == reference
    assert fired_at(ours, 1.0) == [0, 4, 1, 5, 2, 6, 3, 7]


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
    """Three handles re-armed into one tick bucket at 1.0, and three into
    another at 2.0, the middle one cancelled there.  ``run(max_events
    =1)`` fires the first bucket whole, overshooting by its tail of two
    handles; ``step()`` fires the second whole and skips the cancelled
    handle without counting it; then nothing is left to step."""
    s = Scheduler()
    fired = []
    first = [s.at_call(0.5, fired.append, label) for label in "abc"]
    second = [s.at_call(0.5, fired.append, label) for label in "xyz"]
    s.run(until=0.5)
    for handle in first:
        s.rearm(handle, 0.5)
    for handle in second:
        s.rearm(handle, 1.5)
    second[1].cancel()
    assert (s.heap_size, s.pending) == (2, 5)
    s.run(max_events=1)
    assert (fired[6:], s.now, s.events_processed, s.pending) == (["a", "b", "c"], 1.0, 9, 2)
    assert s.step()
    assert (fired[9:], s.now, s.events_processed, s.pending) == (["x", "z"], 2.0, 11, 0)
    assert not s.step()
    assert (s.now, s.heap_size) == (2.0, 0)


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
    bucket, not 1,024 timers (each timer's first arm is a heap entry of
    its own); and after the first second no event or argument list is
    built fresh."""
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


def test_same_instant_datagrams_arrive_in_send_order_from_pooled_events():
    """Under ``FixedLatency`` every datagram of a round lands on one
    instant: 200 from 8 senders, to 8 receivers, arrive in the order they
    were sent, each its own pooled one-shot event, back in the free list
    once fired.  After the first round no event, argument list or
    envelope is built fresh."""
    env = Environment(seed=1, latency=FixedLatency(0.001))
    network, sched = env.network, env.scheduler
    arrived = []
    for r in range(8):
        network.register(f"r{r}", lambda envelope: arrived.append((envelope.src, envelope.payload)))
    fresh = None
    for round_ in range(5):
        sent = [(f"s{i % 8}", Beat()) for i in range(200)]
        for i, (src, beat) in enumerate(sent):
            network.send(src, f"r{(3 * i) % 8}", beat)
        before = sched.events_processed
        env.run_for(0.01)
        assert arrived == sent
        assert sched.events_processed - before == 200
        assert sched.alloc_stats["pooled_events"] >= 200
        assert network.alloc_stats["pooled_envelopes"] >= 200
        arrived.clear()
        counts = (
            sched.alloc_stats["fresh_events"],
            sched.alloc_stats["fresh_arg_lists"],
            network.alloc_stats["fresh_envelopes"],
        )
        if round_:
            assert counts == fresh
        fresh = counts
