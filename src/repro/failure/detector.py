"""Failure detectors.

Two interchangeable implementations of the same interface:

:class:`HeartbeatDetector`
    The realistic one, and one-way: a process says "alive" on its own
    tick to whoever subscribed, nobody replies, and a watcher that has
    heard nothing from a watched peer for ``suspect_after`` suspects it.
    ``watch(a)`` sends ``a`` a :class:`Subscribe`; ``a`` answers a new
    subscriber with one :class:`Heartbeat` at once and then pushes one
    every tick for :data:`LEASE_TICKS` of its own ticks; the watcher
    renews every :data:`RENEW_TICKS`, re-subscribes to a peer that has
    gone quiet for two intervals, and answers a push it does not want
    with :class:`Unsubscribe`.  A watched peer thus costs one datagram
    per tick.  All of it travels under the ``"heartbeat"`` category so
    benchmarks can separate steady-state monitoring cost from
    failure-handling cost.

    ``probe(a)`` is the fault path's shortcut.  It is called when a
    layer above holds evidence that ``a`` may be dead: a cohort that
    gets a client's hedged copy of a write the coordinator has left
    unanswered.  The detector sends ``a`` a :class:`Probe`, which ``a``
    answers at once with one :class:`Heartbeat`, and re-probes every
    quarter interval.  After :data:`PROBES` unanswered probes it
    suspects ``a``, but only if nothing at all was heard from ``a``
    since the first one.  A failure-free run sends no probe.

:class:`OracleDetector`
    Simulator scaffolding: learns of crashes from the environment hook and
    reports them after a configurable detection delay, with *no* network
    traffic.  ISIS ran its own site-monitoring layer below the toolkit; the
    oracle stands in for that layer when an experiment wants to measure
    only the protocol messages above it.

Both are *complete* (a crashed watched peer is eventually suspected).  The
heartbeat detector is only *eventually accurate*: message loss can cause
false suspicion, which the membership layer treats as a failure — exactly
the fail-stop conversion classical ISIS performed.  A probe suspects a
live peer only if every probe round and every push in its window were
lost (docs/hierarchy.md, "Requests during a coordinator outage").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set

from repro.net.message import Address
from repro.proc.process import Process

SuspectFn = Callable[[Address], None]

LEASE_TICKS = 50
"""How many of its own ticks a process keeps pushing to a subscriber that
does not renew: what a watcher that died outside any shared group (the
leader's manager, seen from the leaf coordinators it watched) can still
cost each peer it watched."""

RENEW_TICKS = LEASE_TICKS // 2
"""A watcher renews at half the lease, so one lost renewal is made good
by the next before the lease runs out."""

PROBES = 4
"""How many unanswered probes, a quarter interval apart, make a suspicion:
``PROBES * interval / 4`` after the first, one whole interval (0.2 s at
the benchmark's interval).  The window thus holds one push of a
subscribed peer, so a live peer is suspected only if four probe rounds
and that push were all lost.  Three rounds (0.15 s, a window that can
miss the push) doubled the false suspicions of a loaded 16-member group
at 10% loss (tests/test_heartbeat_push.py)."""


@dataclass
class Heartbeat:
    """"Alive", pushed to a subscriber; never answered."""

    category = "heartbeat"
    size_bytes = 16


@dataclass
class Subscribe:
    """Push me your heartbeats for the next :data:`LEASE_TICKS` ticks."""

    category = "heartbeat"
    size_bytes = 16


@dataclass
class Unsubscribe:
    """Stop pushing: the sender does not watch you (any more)."""

    category = "heartbeat"
    size_bytes = 16


@dataclass
class Probe:
    """Answer with one :class:`Heartbeat` now; no subscription changes."""

    category = "heartbeat"
    size_bytes = 16


# The payloads are stateless, so every one on the network can share an
# instance — monitoring n peers allocates nothing per tick.
_HEARTBEAT = Heartbeat()
_SUBSCRIBE = Subscribe()
_UNSUBSCRIBE = Unsubscribe()
_PROBE = Probe()


class FailureDetector:
    """Common interface: watch peers, get a callback on suspicion."""

    def watch(self, address: Address) -> None:
        raise NotImplementedError

    def unwatch(self, address: Address) -> None:
        raise NotImplementedError

    def watched(self) -> Set[Address]:
        raise NotImplementedError

    def add_listener(self, fn: SuspectFn) -> None:
        raise NotImplementedError

    def forget(self, address: Address) -> None:
        """``address`` has left a group it shared with this process: stop
        volunteering liveness to it.  If it still watches this process
        for another reason it asks again."""

    def probe(self, address: Address) -> None:
        """Evidence that ``address`` may be dead: check it now rather
        than at the next silence deadline.  No-op unless overridden."""


class HeartbeatDetector(FailureDetector):
    """One-way heartbeats under a lease, over the network (any engine)."""

    def __init__(
        self,
        process: Process,
        interval: float = 0.2,
        suspect_after: float = 1.0,
    ) -> None:
        if interval <= 0 or suspect_after <= 3 * interval:
            # A lost subscription is noticed on the first tick that finds
            # the peer silent for two intervals — up to three after it
            # was last heard — and repaired a round trip later; that must
            # happen before the silence becomes a suspicion.
            raise ValueError(
                "require 0 < 3 * interval < suspect_after: a peer silent "
                "for two intervals is re-subscribed on the next tick and "
                "must be able to answer before it is suspected"
            )
        self._process = process
        # The engine clock, read per tick and per heartbeat.
        self._clock = process.env.scheduler
        self._interval = interval
        self._suspect_after = suspect_after
        self._ticks = 0
        # Whom this process watches and when each was last heard; the
        # tick at which all their subscriptions are next renewed.
        self._last_heard: Dict[Address, float] = {}
        self._renew_at = 0
        self._suspected: Set[Address] = set()
        # Peers being probed now (at most one probe run each).
        self._probing: Set[Address] = set()
        # Who watches this process: the last tick of each one's lease.
        self._subscribers: Dict[Address, int] = {}
        self._listeners: List[SuspectFn] = []
        process.on(Heartbeat, self._on_heartbeat)
        process.on(Subscribe, self._on_subscribe)
        process.on(Unsubscribe, self._on_unsubscribe)
        process.on(Probe, self._on_probe)
        process.every(interval, self._tick)

    def watch(self, address: Address) -> None:
        if address == self._process.address:
            return
        if address in self._last_heard and address not in self._suspected:
            return
        # Also for a peer this detector suspects: the watch starts afresh.
        self._suspected.discard(address)
        if not self._last_heard:
            # Renewals are counted from the first watch, so detectors
            # that started watching at different times renew at
            # different ticks; a later watch is renewed early, never late.
            self._renew_at = self._ticks + RENEW_TICKS
        self._last_heard[address] = self._clock.now
        self._process.send(address, _SUBSCRIBE)

    def unwatch(self, address: Address) -> None:
        # Nothing is sent: the peer's next push is answered Unsubscribe.
        self._last_heard.pop(address, None)
        self._suspected.discard(address)

    def watched(self) -> Set[Address]:
        return set(self._last_heard)

    def add_listener(self, fn: SuspectFn) -> None:
        self._listeners.append(fn)

    def forget(self, address: Address) -> None:
        self._subscribers.pop(address, None)

    def is_suspected(self, address: Address) -> bool:
        return address in self._suspected

    def probe(self, address: Address) -> None:
        last = self._last_heard.get(address)
        if last is None or address in self._suspected or address in self._probing:
            return
        self._probing.add(address)
        self._probe_round(address, last, PROBES)

    def _probe_round(self, address: Address, last: float, left: int) -> None:
        """Probe ``address`` again, or, ``left`` rounds later with nothing
        heard since ``last``, suspect it."""
        if self._last_heard.get(address) != last or address in self._suspected:
            self._probing.discard(address)  # answered, unwatched or suspected
        elif not left:
            self._probing.discard(address)
            self._suspect(address, last)
        else:
            self._process.send(address, _PROBE)
            self._process.set_timer(
                self._interval / 4,
                lambda: self._probe_round(address, last, left - 1),
            )

    def _tick(self) -> None:
        process = self._process
        send = process.send
        tick = self._ticks = self._ticks + 1

        # Outbound: "alive" to every subscriber whose lease still runs.
        lapsed = False
        for address, lease_end in self._subscribers.items():
            if tick <= lease_end:
                send(address, _HEARTBEAT)
            else:
                lapsed = True
        if lapsed:
            self._subscribers = {
                address: lease_end
                for address, lease_end in self._subscribers.items()
                if tick <= lease_end
            }

        # Inbound.  The overwhelmingly common case: every watched peer
        # was heard within the last two intervals and no renewal is due,
        # so nothing is sent, no listener can fire and nothing can mutate
        # our dicts — iterate them directly, no defensive copy, no
        # allocation.
        now = self._clock.now
        last_heard = self._last_heard
        suspected = self._suspected
        renew = tick >= self._renew_at
        if renew:
            self._renew_at = tick + RENEW_TICKS
        quiet = now - 2 * self._interval
        horizon = now + self._interval - self._suspect_after
        near = False
        for address, last in last_heard.items():
            if address in suspected:
                continue
            # One rule repairs a lost Subscribe, a lease that lapsed or
            # was dropped, and a peer that recovered with an empty table:
            # a watched peer gone quiet is asked again, every tick, well
            # inside ``suspect_after``.
            if renew or last <= quiet:
                send(address, _SUBSCRIBE)
                # (3 * interval < suspect_after: whoever is this near
                # its deadline has been quiet for longer than that.)
                if last < horizon:
                    near = True
        if not near:
            return
        # Some peer's deadline falls before the next tick.  One already
        # past it is suspected now; otherwise a one-shot is armed for the
        # deadline itself, so detection takes ``suspect_after`` and not
        # up to an interval more.  Suspicion listeners may watch/unwatch
        # — take the defensive copy.
        for address in list(last_heard):
            last = last_heard.get(address)
            if last is None or address in suspected:
                continue
            if now - last >= self._suspect_after:
                self._suspect(address, last)
            elif last < horizon:
                process.set_timer(
                    last + self._suspect_after - now,
                    lambda address=address, last=last: self._suspect(address, last),
                )

    def _suspect(self, address: Address, last: float) -> None:
        """Suspect ``address`` unless it was heard from (or unwatched, or
        suspected) since ``last`` was read."""
        if self._last_heard.get(address) != last or address in self._suspected:
            return
        self._suspected.add(address)
        process = self._process
        trace = process.env.network.trace
        if trace is not None:
            trace.local(
                "suspicion", category="failure",
                process=process.address, peer=address,
                silent_for=self._clock.now - last,
            )
        for listener in list(self._listeners):
            listener(address)

    def _on_subscribe(self, _subscribe: Subscribe, sender: Address) -> None:
        # A new subscriber is answered at once, so a watcher hears its
        # peer a round trip after ``watch`` or after a repair.  A renewal
        # is not: the next tick's push answers it.
        if sender not in self._subscribers:
            self._process.send(sender, _HEARTBEAT)
        self._subscribers[sender] = self._ticks + LEASE_TICKS

    def _on_unsubscribe(self, _unsubscribe: Unsubscribe, sender: Address) -> None:
        self._subscribers.pop(sender, None)

    def _on_probe(self, _probe: Probe, sender: Address) -> None:
        self._process.send(sender, _HEARTBEAT)

    def _on_heartbeat(self, _heartbeat: Heartbeat, sender: Address) -> None:
        if sender in self._last_heard:
            self._last_heard[sender] = self._clock.now
            # Heard is alive: a peer suspected while a partition lasted
            # is watched again from here, so a later crash is reported.
            self._suspected.discard(sender)
        else:
            # A subscription this process no longer wants (``unwatch``
            # says nothing) costs its holder exactly one push.
            self._process.send(sender, _UNSUBSCRIBE)


class OracleDetector(FailureDetector):
    """Zero-traffic detector fed by the simulator's crash hook."""

    def __init__(self, process: Process, detection_delay: float = 0.1) -> None:
        if detection_delay < 0:
            raise ValueError("detection_delay must be nonnegative")
        # The process served, not its address: a dead incarnation's
        # detector must not find its live successor there.
        self._process = process
        self._env = env = process.env
        self._delay = detection_delay
        self._watched: Set[Address] = set()
        self._listeners: List[SuspectFn] = []
        env.add_crash_listener(self._on_crash)

    def watch(self, address: Address) -> None:
        if address == self._process.address:
            return
        self._watched.add(address)
        # A peer that is already dead when we start watching must still be
        # detected (completeness), e.g. joining a group with a dead member.
        if self._env.has_process(address) and not self._env.process(address).alive:
            self._on_crash(address)

    def unwatch(self, address: Address) -> None:
        self._watched.discard(address)

    def watched(self) -> Set[Address]:
        return set(self._watched)

    def add_listener(self, fn: SuspectFn) -> None:
        self._listeners.append(fn)

    def _on_crash(self, address: Address) -> None:
        process = self._process
        if address == process.address:
            # Dead for good: let the dead incarnation's stack be freed.
            self._env.remove_crash_listener(self._on_crash)
            return
        if address not in self._watched:
            return

        def report() -> None:
            # The watcher may itself have died in the interim.
            if process.alive and address in self._watched:
                trace = self._env.network.trace
                if trace is not None:
                    trace.local(
                        "suspicion", category="failure",
                        process=process.address, peer=address,
                    )
                for listener in list(self._listeners):
                    listener(address)

        self._env.scheduler.after(self._delay, report)
