"""The wall-clock backend: the protocol stack on an asyncio event loop.

The identical membership / broadcast / hierarchy code that runs under the
discrete-event simulator runs here in real time: timers become
``loop.call_later`` callbacks, the network's latency model becomes a real
delay before delivery, and heartbeats, flush timeouts and retransmissions
all race actual wall-clock concurrency.  This is the engine a live
deployment grows from — the simulator is just the other host for the same
library.

Design notes:

* **Time** is logical seconds since the runtime was created.  A
  ``time_scale`` maps logical seconds to wall seconds (``time_scale=0.1``
  runs a "10 second" protocol schedule in one wall second), so demos and
  parity tests exercise real concurrency without real-time waits.
* **Determinism** is *not* promised event-for-event: wall-clock arrival
  order races the OS.  What survives on this backend is what the
  protocols themselves enforce — per-sender FIFO/causal/total delivery
  order, view agreement, virtual synchrony — which is exactly what
  ``tests/test_runtime_parity.py`` pins against the sim backend.  The
  seeded ``rng`` is still a :class:`~repro.sim.rand.SimRandom`, so
  latency models and workload draws replay from the seed alone.
* **Scheduling in the past** clamps to "as soon as possible" instead of
  raising: a wall clock cannot refuse to have advanced.
* **Errors** raised inside timer callbacks (including strict sanitizer
  violations) are captured and re-raised out of :meth:`AsyncioRuntime.
  run` — asyncio's default behaviour of logging-and-continuing would
  silently swallow protocol bugs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional

from repro.runtime.api import Runtime
from repro.sim.rand import SimRandom

_NO_ARG = object()

# Wall-clock seconds between quiescence / error polls inside run().
_POLL = 0.002


class WallClockError(RuntimeError):
    """Raised when the asyncio engine is driven incorrectly."""


class AsyncioTimerHandle:
    """Cancellable timer over ``loop.call_later``."""

    __slots__ = ("_timers", "_when", "_fn", "_arg", "_loop_handle", "_queued", "_cancelled")

    def __init__(self, timers: "AsyncioTimers", when: float, fn: Callable, arg: Any) -> None:
        self._timers = timers
        self._when = when
        self._fn = fn
        self._arg = arg
        self._loop_handle: Optional[asyncio.TimerHandle] = None
        self._queued = False
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; safe after firing."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._queued:
            self._queued = False
            self._timers._live -= 1
            if self._loop_handle is not None:
                self._loop_handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        """Logical time at which the callback is (or was) due."""
        return self._when

    def _run(self) -> None:
        self._queued = False
        self._timers._live -= 1
        if self._cancelled:
            return
        try:
            if self._arg is _NO_ARG:
                self._fn()
            else:
                self._fn(self._arg)
        except Exception as exc:  # surface protocol errors out of run()
            self._timers._record_error(exc)


class AsyncioTimers:
    """:class:`~repro.runtime.api.TimerService` over an asyncio loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, time_scale: float) -> None:
        if time_scale <= 0:
            raise WallClockError("time_scale must be positive")
        self._loop = loop
        self._scale = time_scale
        self._epoch = loop.time()
        self._live = 0  # queued, not yet fired or cancelled
        self._errors: List[BaseException] = []

    @property
    def now(self) -> float:
        """Logical seconds since the runtime was created."""
        return (self._loop.time() - self._epoch) / self._scale

    @property
    def pending(self) -> int:
        """Number of queued live callbacks (timers + in-flight messages)."""
        return self._live

    def reset_epoch(self) -> None:
        """Restart logical time at zero.  Deployment bootstrap runs
        between runtime construction and the start barrier (socket binds,
        tracker registration), and scenario schedules are absolute
        logical times — every node's t=0 must be the barrier release,
        not its construction.  Only legal while nothing is queued."""
        if self._live > 0:
            raise WallClockError(
                "cannot reset the clock with timers queued"
            )
        self._epoch = self._loop.time()

    # -- scheduling ----------------------------------------------------------

    def at(self, time: float, fn: Callable[[], None]) -> AsyncioTimerHandle:
        """Schedule ``fn`` at logical time ``time`` (clamped to now)."""
        return self._arm(AsyncioTimerHandle(self, time, fn, _NO_ARG))

    def after(self, delay: float, fn: Callable[[], None]) -> AsyncioTimerHandle:
        if delay < 0:
            raise WallClockError(f"negative delay {delay!r}")
        return self._arm(AsyncioTimerHandle(self, self.now + delay, fn, _NO_ARG))

    def at_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> AsyncioTimerHandle:
        return self._arm(AsyncioTimerHandle(self, time, fn, arg))

    def after_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> AsyncioTimerHandle:
        if delay < 0:
            raise WallClockError(f"negative delay {delay!r}")
        return self._arm(AsyncioTimerHandle(self, self.now + delay, fn, arg))

    # No free list on this engine: a one-shot is an ordinary handle.
    after_call_once = after_call

    def every(self, interval: float, fn: Callable[[], None]) -> AsyncioTimerHandle:
        """Run ``fn()`` every ``interval`` until the handle is cancelled;
        each tick re-arms the handle before calling ``fn``, as
        :meth:`repro.sim.scheduler.Scheduler.every` does."""
        if interval < 0:
            raise WallClockError(f"negative interval {interval!r}")

        def tick() -> None:
            handle._when = self.now + interval
            self._arm(handle)
            fn()

        handle = AsyncioTimerHandle(self, self.now + interval, tick, _NO_ARG)
        return self._arm(handle)

    def _arm(self, handle: AsyncioTimerHandle) -> AsyncioTimerHandle:
        wall_delay = (handle._when - self.now) * self._scale
        if wall_delay < 0.0:
            wall_delay = 0.0  # the wall clock has already passed the deadline
        handle._queued = True
        self._live += 1
        handle._loop_handle = self._loop.call_later(wall_delay, handle._run)
        return handle

    # -- error funnel --------------------------------------------------------

    def _record_error(self, exc: BaseException) -> None:
        self._errors.append(exc)

    def take_error(self) -> Optional[BaseException]:
        """Pop the oldest captured callback error, if any."""
        return self._errors.pop(0) if self._errors else None


class AsyncioRuntime(Runtime):
    """Wall-clock engine: real timers, real concurrency, same protocols.

    Usage mirrors the simulator exactly — only the Environment's engine
    changes::

        runtime = AsyncioRuntime(seed=7, time_scale=0.1)
        env = Environment(runtime=runtime)
        nodes, members = build_group(env, "svc", 5)
        env.run_for(2.0)          # ~0.2 s of wall time
        runtime.close()

    ``run()`` with no bound returns once no timers or datagrams remain
    queued; note that periodic timers (heartbeats, gossip) never drain,
    so live services use ``run_for`` / ``run(until=...)``.
    """

    def __init__(
        self,
        seed: int = 0,
        time_scale: float = 1.0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self._loop = loop if loop is not None else asyncio.new_event_loop()
        self._owns_loop = loop is None
        self._time_scale = time_scale
        self.timers = AsyncioTimers(self._loop, time_scale)
        self.fabric = self.timers  # a deferred delivery is one loop timer
        self.rng = SimRandom(seed)

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def time_scale(self) -> float:
        return self._time_scale

    # -- run control ----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None:
            raise WallClockError(
                "max_events is a discrete-event facility; the wall-clock "
                "engine cannot bound a run by event count"
            )
        if until is None:
            self._loop.run_until_complete(self._run_until_idle())
        else:
            self._loop.run_until_complete(self._run_until_time(until))
        error = self.timers.take_error()
        if error is not None:
            raise error

    async def _run_until_idle(self) -> None:
        timers = self.timers
        while timers._live > 0 and not timers._errors:
            await asyncio.sleep(_POLL)

    async def _run_until_time(self, until: float) -> None:
        timers = self.timers
        while not timers._errors:
            remaining_wall = (until - timers.now) * self._time_scale
            if remaining_wall <= 0.0:
                return
            await asyncio.sleep(min(_POLL, remaining_wall))

    def close(self) -> None:
        """Close the loop (only if this runtime created it)."""
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()
