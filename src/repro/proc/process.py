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
network), and every timer it armed, periodic or not, is cancelled.  A
crash ends a :class:`Process` object for good, and with it every layer
attached to it.  :meth:`Process.recover` returns the address's next
incarnation: a new object of the same class, built as the first one was,
whose constructor builds a fresh stack exactly as at start.  It rejoins
like any newcomer; the application rebuilds what it layered above the
node (a large-group endpoint, a coordinator–cohort client or server) on
the successor, as it did at start.

What survives a crash is the address, the incarnation number (the
successor's is one higher, so peers can tell it from its previous life)
and the environment's sinks: network statistics, taps and trace.  Nothing
else does — not even the reliable transport's peer-incarnation table,
which a fresh stack learns again from the first segment it hears.  A
stale layer object is inert: its process stays dead, so each send,
multicast and timer it asks for is a no-op.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Type

from repro.net.message import Address
from repro.net.network import HandlerTable
from repro.proc.env import Environment
from repro.runtime.api import TimerHandle

Handler = Callable[[Any, Address], None]


class Timer:
    """A cancellable (optionally periodic) timer owned by a process.

    A periodic timer holds one engine handle from
    :meth:`~repro.runtime.api.TimerService.every` for its whole life: the
    engine re-arms it each tick and calls the callback directly, so a
    tick costs no frame of this class's.

    A one-shot timer uses the engine's recyclable handle-free path
    (``after_call_once``): the engine event returns to the scheduler's
    free list the moment it fires, so timer-heavy features (delayed acks)
    allocate no engine objects in steady state.  The recycled handle is
    never touched after firing — a one-shot marks itself cancelled on
    fire, and :meth:`cancel` bails out on that flag before ever reaching
    the engine handle.
    """

    __slots__ = ("_process", "_fn", "_cancelled", "_handle")

    def __init__(
        self,
        process: "Process",
        delay: float,
        fn: Callable[[], None],
        periodic: bool,
    ) -> None:
        self._process = process
        self._fn = fn
        # A dead process arms nothing: its timer is born cancelled.
        self._cancelled = not process.alive
        self._handle: Optional[TimerHandle] = None
        if process.alive:
            process._timers[self] = None
            timers = process.env.scheduler
            if periodic:
                self._handle = timers.every(delay, fn)
            else:
                self._handle = timers.after_call_once(delay, Timer._fire, self)

    def _fire(self) -> None:
        # A fired one-shot timer is dead: mark it cancelled (so cancel()
        # never touches the now-recycled engine handle) and drop it, and
        # its callback, from the owner's live set before it runs.
        self._cancelled = True
        del self._process._timers[self]
        fn, self._fn = self._fn, None
        fn()

    def cancel(self) -> None:
        # Idempotent, and the sole guard keeping recycled one-shot
        # handles safe: once _cancelled is set (by cancel or by firing)
        # the engine handle is never touched again.
        if self._cancelled:
            return
        self._cancelled = True
        self._fn = None
        self._process._timers.pop(self, None)
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
        # Incarnation number: the environment gives a recovered process
        # one more than the dead one it succeeds, so a rebooted process is
        # distinguishable from its previous life (classical ISIS tagged
        # process ids the same way).  Protocol layers use it to discard
        # channel state belonging to a dead incarnation.
        self.incarnation = 0
        # The endpoint the network delivers to: payload type -> handler,
        # and ``unhandled`` for a type with none.
        self._handlers = HandlerTable(self)
        # Live timers in arming order (a dict used as an ordered set): a
        # one-shot leaves when it fires or is cancelled, a periodic timer
        # when it is cancelled.
        self._timers: Dict[Timer, None] = {}
        self._unhandled: List[Any] = []
        # env.network is assigned once in Environment.__init__ and never
        # replaced, so the per-send attribute chain can be cached here.
        self._network = env.network
        env.add_process(self)
        self._network.register(address, self._handlers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.address} {state}>"

    # -- messaging -------------------------------------------------------------

    def send(self, dst: Address, payload: Any) -> None:
        """Send a datagram (silently dropped if this process is crashed)."""
        if self.alive:
            self._network.send_each(self.address, (dst,), payload)

    def send_each(self, dsts: Sequence[Address], copies: Sequence[Any]) -> None:
        """Send ``copies[i]`` to ``dsts[i]`` in one network call: one
        payload's per-destination copies (the transport's segments)."""
        if self.alive:
            self._network.send_each(self.address, dsts, copies[0], copies)

    def multicast(self, dsts: Iterable[Address], payload: Any) -> None:
        """Send one payload to every destination, in one network call."""
        if self.alive:
            self._network.multicast(self.address, dsts, payload)

    def on(self, payload_type: Type, handler: Handler) -> None:
        """Register ``handler(payload, sender)`` for a payload class."""
        if payload_type in self._handlers:
            raise ValueError(
                f"{self.address}: handler for {payload_type.__name__} already set"
            )
        self._handlers[payload_type] = handler

    def replace_handler(self, payload_type: Type, handler: Handler) -> None:
        self._handlers[payload_type] = handler

    def deliver(self, payload: Any, sender: Address) -> None:
        """Dispatch a payload to its registered handler (or ``unhandled``)."""
        self._handlers[type(payload)](payload, sender)

    def unhandled(self, payload: Any, sender: Address) -> None:
        """Hook for payloads with no handler; default records them."""
        self._unhandled.append((payload, sender))

    @property
    def unhandled_messages(self) -> List[Any]:
        return list(self._unhandled)

    # -- timers ----------------------------------------------------------------

    def set_timer(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` once after ``delay`` (unless crashed or cancelled)."""
        return Timer(self, delay, fn, periodic=False)

    def every(self, interval: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` every ``interval`` until cancelled or the process
        crashes; the crash ends it for good."""
        return Timer(self, interval, fn, periodic=True)

    # -- lifecycle ---------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: stop sending, receiving and every timer, for good."""
        if not self.alive:
            return
        self.alive = False
        self.env.network.unregister(self.address)
        for timer in list(self._timers):
            timer.cancel()
        self.env.notify_crash(self.address)

    def recover(self) -> "Process":
        """Start this address's next incarnation and return it: a new
        process of the same class, built with the same constructor
        arguments (a subclass whose constructor takes more than the
        environment and the address overrides this).  This object stays
        dead.  ``ValueError`` if the address's process is alive."""
        return type(self)(self.env, self.address)
