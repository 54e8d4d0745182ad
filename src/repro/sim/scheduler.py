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
* :meth:`Scheduler.rearm` re-pushes a *fired* event object at a new time,
  so periodic timers reuse one event + handle for their whole life.
* Cancellation stays lazy (O(1)), but the scheduler counts cancelled
  events still sitting in the heap and compacts the heap when they exceed
  :data:`COMPACT_MIN` *and* outnumber the live events — long churn runs
  no longer accumulate dead heartbeat timers.
"""

from __future__ import annotations

import heapq
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
    """

    __slots__ = ("time", "fn", "arg", "cancelled", "in_heap", "batch", "once", "_sched")

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

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing
        for non-``once`` events (a ``once`` handle is dead once fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.in_heap:
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
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._live = 0  # events queued and not cancelled
        self._cancelled_in_heap = 0  # lazily cancelled, awaiting pop/compact
        # The open bucket (at_call_grouped) — at most one per scheduler,
        # sealed by any same-timestamp seq assignment or by firing.
        self._bucket: Optional[_Event] = None
        self._bucket_time = -1.0
        # Free lists + fresh-construction counters (the allocation probe
        # in tools/perf_report.py reads alloc_stats).
        self._event_pool: List[_Event] = []
        self._arg_pool: List[list] = []
        self._fresh_events = 0
        self._fresh_lists = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

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
        of grouped same-timestamp calls occupies a single entry."""
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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None  # seal: keep (time, seq) order exact
        event = _Event(self, time, fn, _NO_ARG, False, False)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def after(self, delay: float, fn: Callable[[], None]) -> _Event:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn)

    def at_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Fast path: schedule ``fn(arg)`` at ``time``.

        Storing the argument on the event (instead of closing over it)
        saves one closure allocation per event — the dominant allocation
        in message-heavy runs.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None
        event = _Event(self, time, fn, arg, False, False)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def after_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Fast path: schedule ``fn(arg)`` to run ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at_call(self._now + delay, fn, arg)

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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None
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
        return self.at_call_once(self._now + delay, fn, arg)

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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
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
        self._bucket = event
        self._bucket_time = time

    def rearm(self, handle: _Event, delay: float) -> _Event:
        """Re-push a *fired* event at ``now + delay``, reusing its event
        object and handle (no allocation).  Periodic timers use this so a
        million ticks cost one event object, not a million.

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
        time = self._now + delay
        if self._bucket is not None and self._bucket_time == time:
            self._bucket = None
        handle.time = time
        handle.cancelled = False
        handle.in_heap = True
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
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

    def _dispatch(self, time: float, event: _Event) -> int:
        """Fire one popped heap entry; returns how many events it counted
        as (a bucket counts each grouped call).  Shared by step() and the
        bounded run loop; the unbounded loop inlines the same logic."""
        self._now = time
        arg = event.arg
        if event.batch:
            if self._bucket is event:
                self._bucket = None
            n = len(arg)
            self._events_processed += n
            self._live -= n
            event.fn(arg)
            arg.clear()
            self._arg_pool.append(arg)
            event.fn = None
            event.arg = None
            self._event_pool.append(event)
            return n
        self._events_processed += 1
        self._live -= 1
        if arg is _NO_ARG:
            event.fn()
        else:
            event.fn(arg)
        if event.once:
            event.fn = None
            event.arg = None
            self._event_pool.append(event)
        return 1

    def step(self) -> bool:
        """Fire the next event (an entire bucket counts as one step).
        Returns False when the queue is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            event = entry[2]
            event.in_heap = False
            if event.cancelled:
                self._cancelled_in_heap -= 1
                if event.once:
                    event.fn = None
                    event.arg = None
                    self._event_pool.append(event)
                continue
            self._dispatch(entry[0], event)
            return True
        return False

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
        """
        if self._running:
            raise SimulationError("scheduler re-entered from within an event")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        no_arg = _NO_ARG
        event_pool = self._event_pool
        arg_pool = self._arg_pool
        try:
            if until is None and max_events is None:
                # Hot unbounded loop: no bound checks per iteration.
                while heap:
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
                    event.in_heap = False
                    self._now = entry[0]
                    arg = event.arg
                    if event.batch:
                        if self._bucket is event:
                            self._bucket = None
                        self._events_processed += len(arg)
                        self._live -= len(arg)
                        event.fn(arg)
                        arg.clear()
                        arg_pool.append(arg)
                        event.fn = None
                        event.arg = None
                        event_pool.append(event)
                    else:
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
                return
            fired = 0
            while heap:
                if max_events is not None and fired >= max_events:
                    return
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    event.in_heap = False
                    self._cancelled_in_heap -= 1
                    if event.once:
                        event.fn = None
                        event.arg = None
                        event_pool.append(event)
                    continue
                if until is not None and entry[0] > until:
                    break
                pop(heap)
                event.in_heap = False
                fired += self._dispatch(entry[0], event)
                heap = self._heap
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` simulated time units from now."""
        self.run(until=self._now + duration, max_events=max_events)
