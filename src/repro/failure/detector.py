"""Failure detectors.

Two interchangeable implementations of the same interface:

:class:`HeartbeatDetector`
    The realistic one: watched peers are pinged periodically; a peer that
    misses ``suspect_after`` worth of heartbeats is suspected.  Its traffic
    appears in network statistics under the ``"heartbeat"`` category so
    benchmarks can separate steady-state monitoring cost from
    failure-handling cost.

:class:`OracleDetector`
    Simulator scaffolding: learns of crashes from the environment hook and
    reports them after a configurable detection delay, with *no* network
    traffic.  ISIS ran its own site-monitoring layer below the toolkit; the
    oracle stands in for that layer when an experiment wants to measure
    only the protocol messages above it.

Both are *complete* (a crashed watched peer is eventually suspected).  The
heartbeat detector is only *eventually accurate*: message loss can cause
false suspicion, which the membership layer treats as a failure — exactly
the fail-stop conversion classical ISIS performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set

from repro.net.message import Address
from repro.proc.env import Environment
from repro.proc.process import Process

SuspectFn = Callable[[Address], None]


@dataclass
class Heartbeat:
    category = "heartbeat"
    size_bytes = 16


@dataclass
class HeartbeatAck:
    category = "heartbeat"
    size_bytes = 16


# Heartbeat payloads are stateless, so every ping/ack on the network can
# share one instance — monitoring n peers allocates nothing per tick.
_HEARTBEAT = Heartbeat()
_HEARTBEAT_ACK = HeartbeatAck()


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


class HeartbeatDetector(FailureDetector):
    """Ping/ack failure detection over the network (any engine)."""

    def __init__(
        self,
        process: Process,
        interval: float = 0.2,
        suspect_after: float = 1.0,
    ) -> None:
        if interval <= 0 or suspect_after <= interval:
            raise ValueError("require 0 < interval < suspect_after")
        self._process = process
        self._interval = interval
        self._suspect_after = suspect_after
        self._last_heard: Dict[Address, float] = {}
        self._suspected: Set[Address] = set()
        self._listeners: List[SuspectFn] = []
        process.on(Heartbeat, self._on_ping)
        process.on(HeartbeatAck, self._on_ack)
        process.every(interval, self._tick)
        process.add_recover_listener(self._after_recovery)

    def _after_recovery(self) -> None:
        # Silence is measured from now: what was heard before the crash
        # says nothing about who is alive after it.
        now = self._process.env.now
        for address in self._last_heard:
            self._last_heard[address] = now
        self._suspected.clear()

    def watch(self, address: Address) -> None:
        if address == self._process.address:
            return
        self._last_heard.setdefault(address, self._process.env.now)
        self._suspected.discard(address)

    def unwatch(self, address: Address) -> None:
        self._last_heard.pop(address, None)
        self._suspected.discard(address)

    def watched(self) -> Set[Address]:
        return set(self._last_heard)

    def add_listener(self, fn: SuspectFn) -> None:
        self._listeners.append(fn)

    def is_suspected(self, address: Address) -> bool:
        return address in self._suspected

    def _tick(self) -> None:
        process = self._process
        now = process.env.now
        last_heard = self._last_heard
        suspected = self._suspected
        interval = self._interval
        # Fast path (the overwhelmingly common case): every peer was heard
        # recently enough that its deadline lies beyond the next tick, so
        # no listener can fire and nothing can mutate our dicts — iterate
        # them directly, no defensive copy, no allocation.
        horizon = now + interval - self._suspect_after
        near = False
        for address, last in last_heard.items():
            if last < horizon and address not in suspected:
                near = True
                break
        if not near:
            send = process.send
            for address in last_heard:
                if address not in suspected:
                    send(address, _HEARTBEAT)
            return
        # Slow path: some peer's deadline falls before the next tick.  One
        # already past it is suspected now; otherwise a one-shot is armed
        # for the deadline itself, so detection takes ``suspect_after``
        # and not up to an interval more.  Suspicion listeners may
        # watch/unwatch — keep the defensive copy.
        for address in list(last_heard):
            last = last_heard.get(address)
            if last is None or address in suspected:
                continue
            process.send(address, _HEARTBEAT)
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
                silent_for=process.env.now - last,
            )
        for listener in list(self._listeners):
            listener(address)

    def _on_ping(self, ping: Heartbeat, sender: Address) -> None:
        self._process.send(sender, _HEARTBEAT_ACK)

    def _on_ack(self, ack: HeartbeatAck, sender: Address) -> None:
        if sender in self._last_heard:
            self._last_heard[sender] = self._process.env.now
            self._suspected.discard(sender)


class OracleDetector(FailureDetector):
    """Zero-traffic detector fed by the simulator's crash hook."""

    def __init__(
        self,
        env: Environment,
        owner: Address,
        detection_delay: float = 0.1,
    ) -> None:
        if detection_delay < 0:
            raise ValueError("detection_delay must be nonnegative")
        self._env = env
        self._owner = owner
        self._delay = detection_delay
        self._watched: Set[Address] = set()
        self._listeners: List[SuspectFn] = []
        env.on_crash(self._on_crash)

    def watch(self, address: Address) -> None:
        if address == self._owner:
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
        if address not in self._watched:
            return
        owner = self._owner

        def report() -> None:
            # The watcher may itself have died in the interim.
            if not self._env.has_process(owner) or not self._env.process(owner).alive:
                return
            if address in self._watched:
                trace = self._env.network.trace
                if trace is not None:
                    trace.local(
                        "suspicion", category="failure",
                        process=owner, peer=address,
                    )
                for listener in list(self._listeners):
                    listener(address)

        self._env.scheduler.after(self._delay, report)
