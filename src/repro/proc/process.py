"""Actor-style process base class.

A :class:`Process` is one workstation-resident program in the cluster
(simulated or live — the base class is engine-agnostic).  It owns an
address on the network, a payload-type dispatch table, and a set of
timers over the engine's :class:`~repro.runtime.api.TimerService`.
Protocol layers (transport, membership, broadcast, toolkit) attach
themselves to a process by registering handlers for their own payload
types, so one process can host a whole protocol stack without the base
class knowing about any of it.

Crash semantics follow the fail-stop model the paper assumes: a crashed
process stops sending, stops receiving (its endpoint disappears from the
network), and all of its timers stop.  Recovery creates fresh protocol
state (a recovered process rejoins groups like a new member) and restarts
the periodic timers of the layers attached to it; one-shot timers belong
to the protocol state that died and are not revived.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Type

from repro.net.message import Address, Envelope
from repro.proc.env import Environment
from repro.runtime.api import TimerHandle

Handler = Callable[[Any, Address], None]


class Timer:
    """A cancellable (optionally periodic) timer owned by a process.

    A periodic timer owns exactly one engine timer handle for its whole
    life: each tick *re-arms* the fired handle at the next deadline
    (:meth:`~repro.runtime.api.TimerService.rearm`) instead of allocating
    a fresh closure, event and handle per tick — the dominant allocation
    in heartbeat-heavy runs.

    A one-shot timer uses the engine's recyclable handle-free path
    (``after_call_once``) where available: the engine event returns to
    the scheduler's free list the moment it fires, so timer-heavy
    features (delayed acks) allocate no engine objects in steady state.
    The recycled handle is never touched after firing — a one-shot marks
    itself cancelled on fire, and :meth:`cancel` bails out on that flag
    before ever reaching the engine handle.
    """

    __slots__ = ("_process", "_delay", "_fn", "_periodic", "_cancelled", "_handle")

    def __init__(
        self,
        process: "Process",
        delay: float,
        fn: Callable[[], None],
        periodic: bool,
    ) -> None:
        self._process = process
        self._delay = delay
        self._fn = fn
        self._periodic = periodic
        self._cancelled = False
        self._handle: Optional[TimerHandle] = None
        self._arm()

    def _arm(self) -> None:
        scheduler = self._process.env.scheduler
        if self._periodic:
            self._handle = scheduler.after_call(self._delay, Timer._fire, self)
        else:
            once = getattr(scheduler, "after_call_once", scheduler.after_call)
            self._handle = once(self._delay, Timer._fire, self)

    def _fire(self) -> None:
        if self._cancelled or not self._process.alive:
            return
        if self._periodic:
            # Reschedule *before* running the callback (so events the
            # callback schedules at the same instant order after the next
            # tick, exactly as the closure-per-tick implementation did).
            self._process.env.scheduler.rearm(self._handle, self._delay)
        else:
            # A fired one-shot timer is dead: mark it cancelled so the
            # owner's prune sweep can drop it (and so cancel() never
            # touches the now-recycled engine handle).  Timer-heavy
            # features (delayed acks) create thousands of one-shots per
            # process; without this they survive every prune and the
            # sweep goes quadratic.
            self._cancelled = True
        self._fn()

    def cancel(self) -> None:
        # Idempotent, and the sole guard keeping recycled one-shot
        # handles safe: once _cancelled is set (by cancel or by firing)
        # the engine handle is never touched again.
        if self._cancelled:
            return
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Process:
    """One addressable process in the cluster (any engine)."""

    def __init__(self, env: Environment, address: Address) -> None:
        self.env = env
        self.address = address
        self.alive = True
        # Incarnation number: bumped on every recovery, so a rebooted
        # process is distinguishable from its previous life (classical
        # ISIS tagged process ids the same way).  Protocol layers use it
        # to discard channel state belonging to a dead incarnation.
        self.incarnation = 0
        self._handlers: Dict[Type, Handler] = {}
        self._timers: List[Timer] = []
        self._recover_listeners: List[Callable[[], None]] = []
        self._unhandled: List[Any] = []
        # env.network is assigned once in Environment.__init__ and never
        # replaced, so the per-send attribute chain can be cached here.
        self._network = env.network
        env.add_process(self)
        self._network.register(address, self._on_envelope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.address} {state}>"

    # -- messaging -------------------------------------------------------------

    def send(self, dst: Address, payload: Any) -> None:
        """Send a datagram (silently dropped if this process is crashed)."""
        if not self.alive:
            return
        self._network.send(self.address, dst, payload)

    def multicast(self, dsts: Iterable[Address], payload: Any) -> None:
        if not self.alive:
            return
        self._network.multicast(self.address, list(dsts), payload)

    def on(self, payload_type: Type, handler: Handler) -> None:
        """Register ``handler(payload, sender)`` for a payload class."""
        if payload_type in self._handlers:
            raise ValueError(
                f"{self.address}: handler for {payload_type.__name__} already set"
            )
        self._handlers[payload_type] = handler

    def replace_handler(self, payload_type: Type, handler: Handler) -> None:
        self._handlers[payload_type] = handler

    def _on_envelope(self, envelope: Envelope) -> None:
        if not self.alive:
            return
        # deliver(), inlined — this is the per-delivery hot path.
        payload = envelope.payload
        handler = self._handlers.get(type(payload))
        if handler is None:
            self.unhandled(payload, envelope.src)
        else:
            handler(payload, envelope.src)

    def deliver(self, payload: Any, sender: Address) -> None:
        """Dispatch a payload to its registered handler (or ``unhandled``)."""
        handler = self._handlers.get(type(payload))
        if handler is None:
            self.unhandled(payload, sender)
        else:
            handler(payload, sender)

    def unhandled(self, payload: Any, sender: Address) -> None:
        """Hook for payloads with no handler; default records them."""
        self._unhandled.append((payload, sender))

    @property
    def unhandled_messages(self) -> List[Any]:
        return list(self._unhandled)

    # -- timers ----------------------------------------------------------------

    def set_timer(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` once after ``delay`` (unless crashed or cancelled)."""
        timer = Timer(self, delay, fn, periodic=False)
        self._timers.append(timer)
        self._prune_timers()
        return timer

    def every(self, interval: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` every ``interval`` until cancelled; ticks stop while
        the process is crashed and resume one interval after recovery."""
        timer = Timer(self, interval, fn, periodic=True)
        self._timers.append(timer)
        self._prune_timers()
        return timer

    def _prune_timers(self) -> None:
        if len(self._timers) > 64:
            self._timers = [t for t in self._timers if not t.cancelled]

    # -- lifecycle ---------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: stop sending, receiving and all timers."""
        if not self.alive:
            return
        self.alive = False
        self.env.network.unregister(self.address)
        # One-shots die with the protocol state that armed them.  Periodic
        # timers belong to the attached layers, which outlive the crash:
        # only their engine handle is cancelled, and recover() re-arms them.
        for timer in self._timers:
            if timer._periodic and not timer.cancelled:
                timer._handle.cancel()
            else:
                timer.cancel()
        self._timers = [t for t in self._timers if not t.cancelled]
        self.on_crash()
        self.env.notify_crash(self.address)

    def recover(self) -> None:
        """Come back up with fresh protocol state (fail-stop recovery)."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        self.env.network.register(self.address, self._on_envelope)
        for timer in self._timers:
            if timer._periodic and not timer.cancelled:
                timer._handle.cancel()  # idempotent; live only if armed while down
                timer._arm()
        self.on_recover()
        for listener in list(self._recover_listeners):
            listener()

    def add_recover_listener(self, fn: Callable[[], None]) -> None:
        """Attached protocol layers register cleanup to run on recovery."""
        self._recover_listeners.append(fn)

    def on_crash(self) -> None:
        """Subclass hook invoked after a crash."""

    def on_recover(self) -> None:
        """Subclass hook invoked after recovery."""
