"""Discrete-event scheduler: the heart of the simulated cluster.

Every other subsystem (network, processes, timers, failure injection) is
driven by a single :class:`Scheduler`.  Events are callbacks scheduled at a
simulated time; the scheduler pops them in nondecreasing time order and, for
equal times, in scheduling (FIFO) order, so runs are fully deterministic for
a given seed and workload.

The scheduler deliberately knows nothing about networks or processes; it is
a minimal priority-queue event loop that the rest of the library composes.

Performance notes (see docs/simulator.md, "Allocation discipline"):

* Heap entries are plain ``(time, seq, event)`` tuples.  ``(time, seq)``
  is unique per entry, so every heap sift comparison resolves inside the
  C tuple-compare loop without ever calling back into Python — roughly
  3x cheaper than ordering ``__lt__``-bearing event objects.
* :meth:`Scheduler.at_call` / :meth:`after_call` carry a single argument
  alongside the callback, letting hot callers avoid allocating a closure
  per event.  The event object doubles as its own cancellation handle.
* :meth:`Scheduler.at_call_grouped` batches same-timestamp calls to the
  same function into one *bucket*: one heap entry, one pop and one
  callback frame drain every delivery sharing a timestamp.  Buckets are
  sealed exactly when a seq-consuming schedule lands on the same
  timestamp, so the global (time, seq) order — and therefore every
  frozen delivery digest — is byte-identical to the unbatched engine.
* Bucket events and their argument lists, and the handle-free one-shot
  events behind :meth:`after_call_once`, are drawn from free lists and
  recycled on fire — the steady-state loop allocates ~nothing per event.
  Events whose handles escape (``at`` / ``at_call``) are never recycled:
  a retained handle may legally be cancelled or re-armed later, which
  would hijack a recycled event.
* :meth:`Scheduler.rearm` re-queues a *fired* event object at a new time,
  so periodic timers reuse one event + handle for their whole life.  It
  queues the handle in a *tick bucket*, one per instant: every periodic
  handle re-armed for one instant fires from a single heap entry, under
  the same sealing rule, free lists and per-call count as
  ``at_call_grouped``.  An idle population of n timers on k phases holds
  k heap entries, not n.  A handle cancelled while it waits in a bucket
  is skipped when the bucket fires and not counted.
* Cancellation stays lazy (O(1)), but the scheduler counts cancelled
  events still sitting in the heap and compacts the heap when they exceed
  :data:`COMPACT_MIN` *and* outnumber the live events — long churn runs
  no longer accumulate dead heartbeat timers.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. scheduling in
    the past or running a finished scheduler)."""


_NO_ARG = object()  # sentinel: "call fn with no argument"

# Compact the heap when more than COMPACT_MIN cancelled events are queued
# and they make up over half of the heap.
COMPACT_MIN = 64


class _Event:
    """One scheduled callback.  Doubles as its own cancellation handle —
    the object returned by ``at`` / ``at_call`` *is* the queued event.

    Cancellation is lazy: the event stays in the heap but is skipped when
    it reaches the front, which keeps cancellation O(1).  The scheduler
    tracks how many cancelled events are queued and compacts the heap
    when they dominate it.

    ``once`` marks recyclable events (bucket events and
    ``after_call_once`` one-shots): they return to the scheduler's free
    list when they fire, so their handle must not be touched afterwards.

    ``batch`` marks a bucket.  A grouped bucket's ``fn`` takes the list
    of arguments; a tick bucket has ``fn`` None and ``arg`` the list of
    re-armed handles, each fired with its own callback.  ``bucketed``
    marks a handle that ``rearm`` has queued in a tick bucket rather
    than as a heap entry of its own (``in_heap`` then means "queued").
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
        # Heap of (time, seq, event) tuples; (time, seq) is unique so the
        # event object is never compared.
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
        # The open bucket (at_call_grouped) — at most one per scheduler,
        # sealed by any same-timestamp seq assignment or by firing.
        self._bucket: Optional[_Event] = None
        self._bucket_time = -1.0
        # The open tick buckets (rearm), one per instant, sealed the same
        # way.  At most one bucket of either kind is open at an instant.
        self._ticks: Dict[float, _Event] = {}
        # Free lists + fresh-construction counters (the allocation probe
        # in tools/perf_report.py reads alloc_stats).
        self._event_pool: List[_Event] = []
        self._arg_pool: List[list] = []
        self._fresh_events = 0
        self._fresh_lists = 0
        self._spare_list: list = []  # see _fire_ticks

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired.  Every call grouped
        into a bucket counts as one event, exactly as if scheduled via
        ``at_call`` — the batching is invisible to this counter."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued live events, excluding lazily cancelled ones.

        O(1): maintained as a counter rather than scanned from the heap.
        Each call held in an unfired bucket counts individually.
        """
        return self._live

    @property
    def heap_size(self) -> int:
        """Raw heap length, including lazily cancelled events.  A bucket
        of grouped same-timestamp calls occupies a single entry, and so
        do all the periodic handles re-armed for one instant (a tick
        bucket), cancelled ones included until the bucket fires."""
        return len(self._heap)

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
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None  # seal: keep (time, seq) order exact
        if time in self._ticks:
            del self._ticks[time]
        event = _Event(self, time, fn, _NO_ARG, False, False)
        heapq.heappush(self._heap, (time, self._seq, event))
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
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None
        if time in self._ticks:
            del self._ticks[time]
        event = _Event(self, time, fn, arg, False, False)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def after_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Fast path: schedule ``fn(arg)`` to run ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at_call(self.now + delay, fn, arg)

    def at_call_once(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Like :meth:`at_call`, but the event is drawn from the free
        list and recycled when it fires (or when a cancellation is
        compacted away).

        Contract: the returned handle may be cancelled *before* the due
        time, but must never be touched after the event fires or after
        ``cancel()`` — the object is recycled and may already carry a
        different callback.  ``rearm`` rejects these events.  One-shot
        process timers (:class:`repro.proc.process.Timer`) follow this
        discipline, which makes timer churn allocation-free.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self.now:.6f}"
            )
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None
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
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def after_call_once(
        self, delay: float, fn: Callable[[Any], None], arg: Any
    ) -> _Event:
        """Recyclable one-shot: ``fn(arg)`` after ``delay`` (see
        :meth:`at_call_once` for the handle contract)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at_call_once(self.now + delay, fn, arg)

    def at_call_grouped(
        self, time: float, fn: Callable[[list], None], arg: Any
    ) -> None:
        """Batch ``fn`` calls sharing a timestamp into one bucket event.

        All ``at_call_grouped(time, fn, ...)`` calls landing on the open
        bucket are drained by a *single* heap pop that invokes
        ``fn(args)`` once with the list of arguments, in scheduling
        order.  The bucket is sealed (subsequent grouped calls open a new
        one) whenever exactness demands a fresh seq: any ``at`` /
        ``at_call`` / ``rearm`` on the same timestamp, a grouped call
        with a different ``fn``, or the bucket firing.  Sealing keeps the
        global (time, seq) execution order identical to per-call
        ``at_call`` scheduling — batching is pure mechanics, invisible
        to fingerprints.

        No handle is returned: grouped events cannot be cancelled, which
        is what makes their bucket event and argument list recyclable.
        ``fn`` must consume ``args`` synchronously and not retain the
        list.
        """
        bucket = self._bucket
        if bucket is not None and self._bucket_time == time and bucket.fn is fn:
            bucket.arg.append(arg)
            self._live += 1
            return
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self.now:.6f}"
            )
        if time in self._ticks:
            del self._ticks[time]
        self._bucket = self._open_bucket(time, fn, arg)
        self._bucket_time = time

    def _open_bucket(self, time: float, fn: Optional[Callable], arg: Any) -> _Event:
        """Push a new bucket holding ``arg``, drawn from the free lists.
        The caller has sealed every other bucket open at ``time``."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.fn = fn
            event.cancelled = False
            event.in_heap = True
            event.batch = True
        else:
            self._fresh_events += 1
            event = _Event(self, time, fn, None, True, True)
        arg_pool = self._arg_pool
        if arg_pool:
            args = arg_pool.pop()
        else:
            self._fresh_lists += 1
            args = []
        args.append(arg)
        event.arg = args
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def rearm(self, handle: _Event, delay: float) -> _Event:
        """Re-queue a *fired* event at ``now + delay``, reusing its event
        object and handle (no allocation).  Periodic timers use this so a
        million ticks cost one event object, not a million.

        The handle joins the tick bucket open at that instant, or opens
        one: every handle re-armed for one instant fires from a single
        heap entry, in re-arm order.  The bucket is sealed exactly as an
        ``at_call_grouped`` bucket is — by any other seq-consuming
        schedule at the same instant, or by firing — so the global
        (time, seq) order is the one a heap entry per handle would give.

        The event must not currently be queued; its cancelled flag is
        cleared (re-arming an event is scheduling it anew).  Recyclable
        (``once``) events are rejected: after firing they may already be
        serving another caller.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if handle.in_heap:
            raise SimulationError("cannot rearm an event that is still queued")
        if handle.once:
            raise SimulationError("cannot rearm a recycled one-shot event")
        time = self.now + delay
        handle.time = time
        handle.cancelled = False
        handle.in_heap = True
        handle.bucketed = True
        bucket = self._ticks.get(time)
        if bucket is not None:
            bucket.arg.append(handle)
            self._live += 1
            return handle
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None
        self._ticks[time] = self._open_bucket(time, None, handle)
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
        """Drop lazily cancelled events and re-heapify the survivors."""
        live: List[tuple] = []
        append = live.append
        pool = self._event_pool
        for entry in self._heap:
            event = entry[2]
            if event.cancelled:
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

    def _fire_ticks(self, time: float, bucket: _Event) -> int:
        """Fire a tick bucket's handles in re-arm order; returns how many
        fired.  A handle cancelled while it waited is skipped and not
        counted, and leaves ``now`` alone, as its own heap entry would."""
        ticks = self._ticks
        if ticks.get(time) is bucket:
            del ticks[time]
        handles = bucket.arg
        bucket.arg = None
        self._event_pool.append(bucket)
        # Lend the free list the spare in place of the list being walked,
        # so the callbacks find the pools as full as a heap entry per
        # handle would leave them.  (The spare is only non-empty if an
        # earlier bucket's callback raised.)
        spare = self._spare_list
        spare.clear()
        self._arg_pool.append(spare)
        self._spare_list = handles
        fired = 0
        for handle in handles:
            handle.in_heap = False
            if handle.cancelled:
                continue
            self.now = time
            self._events_processed += 1
            self._live -= 1
            fired += 1
            arg = handle.arg
            if arg is _NO_ARG:
                handle.fn()
            else:
                handle.fn(arg)
        handles.clear()
        return fired

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
        scheduler's own besides a tick bucket's.
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
        arg_pool = self._arg_pool
        try:
            while heap:
                if self._events_processed >= stop_at:
                    return
                entry = pop(heap)
                event = entry[2]
                if event.cancelled:
                    event.in_heap = False
                    self._cancelled_in_heap -= 1
                    if event.once:
                        event.fn = None
                        event.arg = None
                        event_pool.append(event)
                    continue
                time = entry[0]
                if time > bound:
                    heapq.heappush(heap, entry)
                    break
                event.in_heap = False
                arg = event.arg
                if event.batch:
                    if event.fn is None:
                        self._fire_ticks(time, event)
                    else:
                        self.now = time
                        if self._bucket is event:
                            self._bucket = None
                        n = len(arg)
                        self._events_processed += n
                        self._live -= n
                        event.fn(arg)
                        arg.clear()
                        arg_pool.append(arg)
                        event.fn = None
                        event.arg = None
                        event_pool.append(event)
                else:
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
