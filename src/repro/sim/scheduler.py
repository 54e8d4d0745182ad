"""Discrete-event scheduler: the heart of the simulated cluster.

Every other subsystem (network, processes, timers, failure injection) is
driven by a single :class:`Scheduler`.  Events are callbacks scheduled at a
simulated time; the scheduler pops them in nondecreasing time order and, for
equal times, in scheduling (FIFO) order, so runs are fully deterministic for
a given seed and workload.

The scheduler deliberately knows nothing about networks or processes; it is
a minimal priority-queue event loop that the rest of the library composes.

Performance notes (see docs/simulator.md, "Allocation discipline"):

* Heap entries are plain ``(time, seq, fn, arg)`` tuples.  ``(time,
  seq)`` is unique per entry, so every heap sift comparison resolves
  inside the C tuple-compare loop without ever calling back into Python
  — roughly 3x cheaper than ordering ``__lt__``-bearing event objects.
* :meth:`Scheduler.at_call_once` is a *post* (every datagram's
  delivery): fire-and-forget, its heap entry is all it builds, and the
  loop fires it before it reads any event flag.  Anything cancellable is
  an ``_Event``, its own handle, queued as ``(time, seq, None, event)``.
* :meth:`Scheduler.at_call` / :meth:`after_call` carry a single argument
  alongside the callback, letting hot callers avoid allocating a closure
  per event.
* Tick-bucket events and their argument lists, and the one-shot events
  behind :meth:`after_call_once`, are drawn from free lists and recycled
  on fire — the steady-state loop allocates ~nothing per event.  Events
  whose handles escape (``at`` / ``at_call``) are never recycled: a
  retained handle may legally be cancelled later, which would hijack a
  recycled event.
* :meth:`Scheduler.every` returns a periodic handle that lives in *tick
  buckets*, one per instant: every periodic handle due at one instant
  fires from a single heap entry, and the bucket re-arms each handle one
  period on, in place, before calling its callback — one event object
  and one call frame per tick, for the handle's whole life.  A bucket is
  sealed exactly when another seq-consuming schedule lands on its
  instant, so the global (time, seq) order — and therefore every frozen
  delivery digest — is the one a heap entry per handle and per tick
  would give.  An idle population of n timers on k phases holds k heap
  entries, not n.  A handle cancelled while it waits in a bucket is
  skipped when the bucket fires and not counted.
* Cancellation stays lazy (O(1)), but the scheduler counts cancelled
  events still sitting in the heap and compacts the heap when they exceed
  :data:`COMPACT_MIN` *and* outnumber the live events — long churn runs
  no longer accumulate dead heartbeat timers.
"""

from __future__ import annotations

import heapq
import math
import sys
from heapq import heappush
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. scheduling in
    the past or running a finished scheduler)."""


_NO_ARG = object()  # sentinel: "call fn with no argument"

# Compact the heap when more than COMPACT_MIN cancelled events are queued
# and they make up over half of the heap.
COMPACT_MIN = 64


class _Event:
    """One cancellable scheduled callback.  Doubles as its own
    cancellation handle — the object returned by ``at`` / ``at_call``
    *is* the queued event.  (A post, :meth:`Scheduler.at_call_once`,
    has no event: it cannot be cancelled.)

    Cancellation is lazy: the event stays in the heap but is skipped when
    it reaches the front, which keeps cancellation O(1).  The scheduler
    tracks how many cancelled events are queued and compacts the heap
    when they dominate it.

    ``once`` marks recyclable events (tick buckets and
    ``after_call_once`` one-shots): they return to the scheduler's free
    list when they fire, so their handle must not be touched afterwards.

    ``batch`` marks a tick bucket: its ``arg`` is the list of periodic
    handles due at its instant.  ``bucketed`` marks a periodic handle
    (:meth:`Scheduler.every`): it only ever waits in tick buckets, never
    as a heap entry of its own (``in_heap`` then means "queued"), and its
    ``arg`` is its period, since its callback takes no argument.
    """

    __slots__ = (
        "time", "fn", "arg", "cancelled", "in_heap", "batch", "once", "bucketed",
        "_sched",
    )

    def __init__(
        self,
        sched: "Scheduler",
        time: float,
        fn: Callable,
        arg: Any,
        batch: bool,
        once: bool,
    ) -> None:
        self._sched = sched
        self.time = time
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self.in_heap = True
        self.batch = batch
        self.once = once
        self.bucketed = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing
        for non-``once`` events (a ``once`` handle is dead once fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.in_heap:
            if self.bucketed:
                # Not a heap entry: its bucket skips it within one period.
                self._sched._live -= 1
            else:
                self._sched._note_cancelled()


# Historical name: PR-1 returned a separate handle object; the event now
# *is* the handle, and the old name stays importable for callers/tests.
EventHandle = _Event


class Scheduler:
    """A deterministic discrete-event scheduler.

    Usage::

        sched = Scheduler()
        sched.after(1.0, lambda: print("one second"))
        sched.run()

    Time is a float in arbitrary units; the library convention is seconds.
    """

    def __init__(self) -> None:
        # Heap of (time, seq, fn, arg) posts and (time, seq, None, event)
        # events; (time, seq) is unique, so nothing after it is compared.
        self._heap: List[tuple] = []
        # Current simulated time.  A plain attribute, not a property: the
        # network and the transport read it per datagram.  Only the run
        # loop moves it.
        self.now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._live = 0  # events queued and not cancelled
        self._cancelled_in_heap = 0  # lazily cancelled, awaiting pop/compact
        # The open tick buckets (every), one per instant, sealed by any
        # other seq-consuming schedule at that instant or by firing.
        self._ticks: Dict[float, _Event] = {}
        # Free lists + fresh-construction counters (the allocation probe
        # in tools/perf_report.py reads alloc_stats).
        self._event_pool: List[_Event] = []
        self._arg_pool: List[list] = []
        self._fresh_events = 0
        self._fresh_lists = 0

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired, posts included.
        Every handle fired from a tick bucket counts as one event,
        exactly as its own heap entry would — the batching is invisible
        to this counter."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued live events and posts, excluding lazily
        cancelled events.

        O(1): maintained as a counter rather than scanned from the heap.
        Each handle held in an unfired tick bucket counts individually.
        """
        return self._live

    @property
    def heap_size(self) -> int:
        """Raw heap length, including lazily cancelled events.  All the
        periodic handles due at one instant (a tick bucket) occupy a
        single entry, cancelled ones included until the bucket fires."""
        return len(self._heap)

    @property
    def cancelled_in_heap(self) -> int:
        """Lazily cancelled heap entries not yet popped or compacted
        away — the count compaction keeps bounded."""
        return self._cancelled_in_heap

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Free-list telemetry: fresh constructions vs pooled capacity.

        ``fresh_events`` / ``fresh_arg_lists`` only grow when a free list
        is empty, so a steady-state window in which they stay flat is a
        zero-allocation window — the probe in ``tools/perf_report.py``
        measures exactly that delta.
        """
        return {
            "fresh_events": self._fresh_events,
            "fresh_arg_lists": self._fresh_lists,
            "pooled_events": len(self._event_pool),
            "pooled_arg_lists": len(self._arg_pool),
        }

    # -- scheduling ----------------------------------------------------------

    def at(self, time: float, fn: Callable[[], None]) -> _Event:
        """Schedule ``fn`` to run at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self.now:.6f}"
            )
        if time in self._ticks:
            del self._ticks[time]
        event = _Event(self, time, fn, _NO_ARG, False, False)
        heappush(self._heap, (time, self._seq, None, event))
        self._seq += 1
        self._live += 1
        return event

    def after(self, delay: float, fn: Callable[[], None]) -> _Event:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self.now + delay, fn)

    def at_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Fast path: schedule ``fn(arg)`` at ``time``.

        Storing the argument on the event (instead of closing over it)
        saves one closure allocation per event — the dominant allocation
        in message-heavy runs.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self.now:.6f}"
            )
        if time in self._ticks:
            del self._ticks[time]
        event = _Event(self, time, fn, arg, False, False)
        heappush(self._heap, (time, self._seq, None, event))
        self._seq += 1
        self._live += 1
        return event

    def after_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Fast path: schedule ``fn(arg)`` to run ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at_call(self.now + delay, fn, arg)

    def at_call_once(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Post ``fn(arg)`` at ``time``: fire-and-forget, with no handle.
        The heap entry is the tuple ``(time, seq, fn, arg)`` and no event
        object is built, so a post cannot be cancelled; it takes its
        ``(time, seq)`` place, and counts in ``pending`` and
        ``events_processed``, exactly as an event would."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self.now:.6f}"
            )
        if time in self._ticks:
            del self._ticks[time]
        heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1
        self._live += 1

    def after_call_once(
        self, delay: float, fn: Callable[[Any], None], arg: Any
    ) -> _Event:
        """Recyclable one-shot: ``fn(arg)`` after ``delay``, as an event
        drawn from the free list and recycled when it fires (or when a
        cancellation is compacted away).

        Contract: the returned handle may be cancelled *before* the due
        time, but must never be touched after the event fires or after
        ``cancel()`` — the object is recycled and may already carry a
        different callback.  One-shot process timers
        (:class:`repro.proc.process.Timer`) follow this discipline, which
        makes timer churn allocation-free.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        if time in self._ticks:
            del self._ticks[time]
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.fn = fn
            event.arg = arg
            event.cancelled = False
            event.in_heap = True
            event.batch = False
        else:
            self._fresh_events += 1
            event = _Event(self, time, fn, arg, False, True)
        heappush(self._heap, (time, self._seq, None, event))
        self._seq += 1
        self._live += 1
        return event

    def _open_bucket(self, time: float, handle: _Event) -> _Event:
        """Push a new tick bucket holding ``handle``, drawn from the free
        lists."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.cancelled = False
            event.in_heap = True
            event.batch = True
        else:
            self._fresh_events += 1
            event = _Event(self, time, None, None, True, True)
        arg_pool = self._arg_pool
        if arg_pool:
            handles = arg_pool.pop()
        else:
            self._fresh_lists += 1
            handles = []
        handles.append(handle)
        event.arg = handles
        heappush(self._heap, (time, self._seq, None, event))
        self._seq += 1
        self._live += 1
        return event

    def every(self, interval: float, fn: Callable[[], None]) -> _Event:
        """Run ``fn()`` every ``interval`` from now until the returned
        handle is cancelled: one handle for the timer's whole life.  It
        waits in the tick bucket of its instant (a first arm joins an
        open one, exactly where its own heap entry would fire), and each
        tick re-arms it ``interval`` on before calling ``fn``."""
        if interval < 0:
            raise SimulationError(f"negative interval {interval!r}")
        time = self.now + interval
        handle = _Event(self, time, fn, interval, False, False)
        handle.bucketed = True
        bucket = self._ticks.get(time)
        if bucket is None:
            self._ticks[time] = self._open_bucket(time, handle)
        else:
            bucket.arg.append(handle)
            self._live += 1
        return handle

    # -- cancellation bookkeeping --------------------------------------------

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop lazily cancelled events and re-heapify the survivors
        (posts among them: a post is never cancelled)."""
        live: List[tuple] = []
        append = live.append
        pool = self._event_pool
        for entry in self._heap:
            event = entry[3]
            if entry[2] is None and event.cancelled:
                event.in_heap = False
                if event.once:
                    event.fn = None
                    event.arg = None
                    pool.append(event)
            else:
                append(entry)
        self._heap = live
        heapq.heapify(live)
        self._cancelled_in_heap = 0

    # -- running -------------------------------------------------------------

    def _fire_ticks(self, time: float, bucket: _Event) -> None:
        """Fire a tick bucket's handles in arming order, each re-armed one
        period on before its call, then return the bucket and its list
        to the free lists.  A handle cancelled while it waited is skipped
        and not counted, and leaves ``now`` alone, as its own heap entry
        would."""
        ticks = self._ticks
        if ticks.get(time) is bucket:
            del ticks[time]
        handles = bucket.arg
        bucket.arg = None
        self._event_pool.append(bucket)
        for handle in handles:
            if handle.cancelled:
                handle.in_heap = False
                continue
            self.now = time
            self._events_processed += 1
            following = handle.time = time + handle.arg
            queued = ticks.get(following)
            if queued is None:
                self._live -= 1
                ticks[following] = self._open_bucket(following, handle)
            else:
                queued.arg.append(handle)
            handle.fn()
        handles.clear()
        self._arg_pool.append(handles)

    def step(self) -> bool:
        """Fire the next event (an entire bucket counts as one step).
        Returns False when the queue is empty."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired in this call.

        ``until`` is inclusive: an event scheduled exactly at ``until`` fires.
        After a bounded run, ``now`` advances to ``until`` if that is later
        than the last event fired, so repeated ``run(until=...)`` calls
        advance time monotonically even through quiet periods.
        ``max_events`` may overshoot by the tail of one bucket (a bucket
        fires atomically).

        One loop serves every bound: the checks are a compare each, and
        the firing is inlined, so no event pays a call frame of the
        scheduler's own besides a tick bucket's.  A post fires before
        any event flag is read.
        """
        if self._running:
            raise SimulationError("scheduler re-entered from within an event")
        self._running = True
        bound = math.inf if until is None else until
        stop_at = (
            sys.maxsize if max_events is None else self._events_processed + max_events
        )
        heap = self._heap
        pop = heapq.heappop
        no_arg = _NO_ARG
        event_pool = self._event_pool
        try:
            while heap:
                if self._events_processed >= stop_at:
                    return
                entry = pop(heap)
                time, _, fn, arg = entry
                if fn is not None:  # a post
                    if time > bound:
                        heappush(heap, entry)
                        break
                    self.now = time
                    self._events_processed += 1
                    self._live -= 1
                    fn(arg)
                    # A callback may cancel-and-compact, replacing the heap.
                    heap = self._heap
                    continue
                event = arg
                if event.cancelled:
                    event.in_heap = False
                    self._cancelled_in_heap -= 1
                    if event.once:
                        event.fn = None
                        event.arg = None
                        event_pool.append(event)
                    continue
                if time > bound:
                    heappush(heap, entry)
                    break
                event.in_heap = False
                if event.batch:
                    self._fire_ticks(time, event)
                else:
                    arg = event.arg
                    self.now = time
                    self._events_processed += 1
                    self._live -= 1
                    if arg is no_arg:
                        event.fn()
                    else:
                        event.fn(arg)
                    if event.once:
                        event.fn = None
                        event.arg = None
                        event_pool.append(event)
                # An event may cancel-and-compact, invalidating `heap`.
                heap = self._heap
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` simulated time units from now."""
        self.run(until=self.now + duration, max_events=max_events)
