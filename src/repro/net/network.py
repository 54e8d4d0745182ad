"""The datagram network connecting all processes.

The network models an unreliable LAN over whichever engine hosts the
run: under :class:`~repro.runtime.sim_backend.SimRuntime` latency is
simulated time, under :class:`~repro.runtime.asyncio_backend.
AsyncioRuntime` it is a real wall-clock delay on the asyncio fabric.

Semantics:

* Unreliable, unordered datagram service (reliability and FIFO are built on
  top by :mod:`repro.transport`); optional drop and duplicate injection.
* Per-destination latency drawn from a :class:`~repro.net.latency.
  LatencyModel`.
* Partitions via :class:`~repro.net.partition.PartitionManager`.
* Two multicast modes, the subject of experiment E9:

  - *point-to-point* (default): a multicast to k destinations costs k wire
    packets, as in ISIS's portable implementation;
  - *hardware multicast* ("an effective hardware multicast facility, such
    as Ethernet", paper §2): one wire packet regardless of k.

  Logical message counts (one per destination) are identical in both modes;
  only wire-packet counts differ.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import (
    _META_CACHE,
    Address,
    Envelope,
    HEADER_BYTES,
    _register,
)
from repro.net.partition import PartitionManager
from repro.net.stats import NetworkStats
from repro.runtime.api import MessageFabric, SimRandom, TimerService


class HandlerTable(dict):
    """An endpoint: payload type -> ``handler(payload, sender)``, and
    ``owner.unhandled`` for a type with none.  A process owns its table,
    so a delivery is one lookup and one call, with no frame between."""

    __slots__ = ("owner",)

    def __init__(self, owner: Any) -> None:
        self.owner = owner

    def __missing__(self, kind: type) -> Callable[[Any, Address], None]:
        return self.owner.unhandled


class Network:
    """Datagram network over an engine's message fabric.

    The network is engine-agnostic: it reads the clock and defers
    deliveries through a :class:`~repro.runtime.api.MessageFabric`
    (by default the engine's own :class:`~repro.runtime.api.
    TimerService`, which under the sim backend is the Scheduler itself —
    the PR-1 hot path unchanged).  The socket backend binds its UDP
    fabric here instead.
    """

    def __init__(
        self,
        timers: TimerService,
        rng: SimRandom,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        hardware_multicast: bool = False,
        fabric: Optional[MessageFabric] = None,
    ) -> None:
        if not 0 <= drop_probability < 1:
            raise ValueError("drop_probability must be in [0, 1)")
        if not 0 <= duplicate_probability < 1:
            raise ValueError("duplicate_probability must be in [0, 1)")
        self._fabric = fabric if fabric is not None else timers
        self._rng = rng
        self._latency = latency if latency is not None else FixedLatency(0.001)
        # Exact-FixedLatency fast path: the constant is read directly in
        # the send loop, skipping a sample() call per datagram.  Exact
        # type match, so subclasses overriding sample() are untouched.
        self._fixed_delay = (
            self._latency.delay if type(self._latency) is FixedLatency else None
        )
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.hardware_multicast = hardware_multicast
        self._endpoints: Dict[Address, HandlerTable] = {}
        self.partitions = PartitionManager()
        self.stats = NetworkStats()
        self._tap_entries: list = []
        self._send_taps: list = []
        self._deliver_taps: list = []
        self._drop_taps: list = []
        # Causal tracing sink (repro.trace.api.TraceSink) or None when
        # tracing is off.  Installed by repro.trace.api.attach(); every
        # hook below is guarded by one attribute load + None check, which
        # is the entire disabled-path cost.
        self.trace = None
        # A delivery is one event: a pooled one-shot when the fabric
        # recycles them (the sim scheduler's at_call_once), else at_call
        # (the asyncio and socket fabrics).  Nobody holds the handle.
        self._schedule = getattr(
            self._fabric, "at_call_once", self._fabric.at_call
        )
        # What each delivery event calls, bound once: reading
        # ``self._deliver`` per send would build a bound method each time.
        self._deliver_bound = self._deliver
        # Envelope free list: a delivered (or dropped-in-transmit)
        # envelope is recycled for the next datagram, so the steady-state
        # send path allocates no envelope objects.
        self._env_pool: list = []
        self._fresh_envelopes = 0

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Envelope free-list telemetry, mirroring the scheduler's
        ``alloc_stats``: ``fresh_envelopes`` only grows when the pool is
        empty, so a flat steady-state delta means zero allocation."""
        return {
            "fresh_envelopes": self._fresh_envelopes,
            "pooled_envelopes": len(self._env_pool),
        }

    @property
    def now(self) -> float:
        """The clock the network sends and delivers by (its fabric's)."""
        return self._fabric.now

    # -- observation -----------------------------------------------------------

    def add_tap(
        self, fn: Callable[[str, "Envelope"], None], events=None
    ) -> None:
        """Register ``fn(event, envelope)`` called on every ``"send"``,
        ``"deliver"`` and ``"drop"`` — a wire-level observation point for
        debugging and tracing.  ``events`` narrows the subscription to an
        iterable of kinds (e.g. ``("deliver",)``), sparing the hot paths
        a call per unwanted event.  Taps must not mutate the envelope,
        and must not retain it: the ``"send"`` and ``"deliver"`` events
        for a datagram share one envelope object (built once per
        datagram), and the envelope is *recycled* onto a free list the
        moment its delivery (or drop) completes, after which it will
        carry a different datagram.  Copy out whatever fields you need;
        the time of an event is :attr:`now` when the tap runs."""
        self._tap_entries.append(
            (fn, None if events is None else frozenset(events))
        )
        self._rebuild_taps()

    def remove_tap(self, fn) -> None:
        self._tap_entries = [e for e in self._tap_entries if e[0] is not fn]
        self._rebuild_taps()

    def _rebuild_taps(self) -> None:
        # Per-kind dispatch lists, consulted directly by the hot paths
        # (one truthiness check each when no taps are attached).
        entries = self._tap_entries
        self._send_taps = [
            fn for fn, ev in entries if ev is None or "send" in ev
        ]
        self._deliver_taps = [
            fn for fn, ev in entries if ev is None or "deliver" in ev
        ]
        self._drop_taps = [
            fn for fn, ev in entries if ev is None or "drop" in ev
        ]

    # -- endpoint management -------------------------------------------------

    def register(self, address: Address, handlers: HandlerTable) -> None:
        """Attach an endpoint (a delivery calls ``handlers[type(payload)]
        (payload, src)``).  Re-registering an address replaces it."""
        self._endpoints[address] = handlers

    def unregister(self, address: Address) -> None:
        """Detach an endpoint; in-flight datagrams to it are dropped."""
        self._endpoints.pop(address, None)

    # -- sending -------------------------------------------------------------

    def send(self, src: Address, dst: Address, payload: Any) -> None:
        """Send one datagram; counts one logical message + one wire packet."""
        self.send_each(src, (dst,), payload)

    def send_each(
        self,
        src: Address,
        dsts: Sequence[Address],
        payload: Any,
        copies: Optional[Sequence[Any]] = None,
        wire_packets: int = 1,
    ) -> None:
        """Send ``payload`` to every destination, in order, as one
        fan-out; or, given ``copies``, ``copies[i]`` to ``dsts[i]``: one
        payload's per-destination copies (the transport's segments).
        ``wire_packets`` per datagram: 0 under hardware multicast, which
        counts its one shared packet itself.

        Every send takes this path, the hottest in any run, so a unicast
        is a fan-out of one.  The loop keeps what differs per
        destination: the envelope (from the free list), taps and trace,
        partition and loss, the latency draw, the duplicate, and the
        delivery (a pooled one-shot event when the fabric offers them).
        The meta lookup and the stats bookkeeping are done once per
        fan-out, which sets two preconditions:

        * every copy has ``payload``'s category, read once from it;
        * ``stats`` is settled only when the call returns: a tap or a
          trace hook that reads it mid-fan-out sees the counts from
          before the call, except ``dropped``, bumped per drop.  They
          end where one send per destination would leave them, also
          when a hook raises.
        """
        try:
            category, size = _META_CACHE[payload.__class__]
        except KeyError:
            category, size = _register(payload.__class__)  # cold
        if category is None:
            category = payload.category
        now = self._fabric.now
        pool = self._env_pool
        rng = self._rng
        schedule = self._schedule
        deliver = self._deliver_bound
        total_bytes = i = 0
        try:
            for dst in dsts:
                if copies is not None:
                    payload = copies[i]
                i += 1
                this_size = size if size is not None else int(payload.size_bytes)
                total = this_size + HEADER_BYTES
                total_bytes += total
                if pool:
                    envelope = pool.pop()
                    envelope.src = src
                    envelope.dst = dst
                    envelope.payload = payload
                else:
                    self._fresh_envelopes += 1
                    envelope = Envelope(src, dst, payload)
                if self._send_taps:
                    for fn in self._send_taps:
                        fn("send", envelope)
                if self.trace is not None:
                    self.trace.on_send(envelope, category)
                # The probability pre-checks are stream-neutral:
                # SimRandom.chance draws nothing when p <= 0, so skipping
                # the call leaves the RNG stream byte-identical on
                # lossless runs.
                if (
                    self.partitions.active
                    and not self.partitions.reachable(src, dst)
                ) or (self.drop_probability and rng.chance(self.drop_probability)):
                    self._drop(envelope)
                    self._recycle(envelope)
                    continue
                delay = self._fixed_delay
                if delay is None:
                    delay = self._latency.sample(rng, src, dst, total)
                schedule(now + delay, deliver, envelope)
                if self.duplicate_probability and rng.chance(
                    self.duplicate_probability
                ):
                    # The duplicate gets its own latency draw and envelope
                    # (the two copies are independently in flight).
                    delay = self._latency.sample(rng, src, dst, total)
                    self._fresh_envelopes += 1
                    duplicate = Envelope(src, dst, payload)
                    # Both copies stem from the same logical send span.
                    duplicate.trace = envelope.trace
                    schedule(now + delay, deliver, duplicate)
        finally:
            stats = self.stats
            stats.messages += i
            stats.bytes += total_bytes
            stats.by_category[category] += i
            stats.bytes_by_category[category] += total_bytes
            stats.wire_packets += i * wire_packets

    def multicast(self, src: Address, dsts: Iterable[Address], payload: Any) -> None:
        """Send the same payload to several destinations, in one
        :meth:`send_each`.

        Counts one logical message per destination.  Wire packets: one per
        destination point-to-point, or one total under hardware multicast —
        counted only if at least one transmit reached the latency stage
        (a multicast with every destination partitioned away never makes
        it onto the wire).
        """
        dsts = tuple(dsts)
        if not dsts:
            return
        if self.hardware_multicast:
            dropped = self.stats.dropped  # partition and loss drop at send
            self.send_each(src, dsts, payload, None, 0)
            if self.stats.dropped - dropped < len(dsts):
                self.stats.record_wire(1)
        else:
            self.send_each(src, dsts, payload)

    def _drop(self, envelope: Envelope) -> None:
        self.stats.record_drop()
        taps = self._drop_taps
        if taps:
            for fn in taps:
                fn("drop", envelope)
        trace = self.trace
        if trace is not None:
            trace.on_drop(envelope)

    def _recycle(self, envelope: Envelope) -> None:
        """Return a dead envelope to the free list.  Clears the payload
        and trace references so the pool never pins application objects
        or spans (the tracer retains spans, never envelopes)."""
        envelope.payload = None
        envelope.trace = None
        self._env_pool.append(envelope)

    def deliver_inbound(self, envelope: Envelope) -> None:
        """Deliver a datagram that arrived from a remote fabric (the
        socket backend's receive path).  Runs the normal local delivery
        pipeline — stats, taps, trace, endpoint dispatch, drop on unknown
        destination — on an envelope decoded from the wire, which then
        joins this network's free list like any locally built one."""
        self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        dst = envelope.dst
        handlers = self._endpoints.get(dst)
        if handlers is None:
            # Destination crashed or never existed; the datagram vanishes,
            # exactly as on a real LAN.
            self._drop(envelope)
        else:
            self.stats.received_by[dst] += 1
            taps = self._deliver_taps
            if taps:
                for fn in taps:
                    fn("deliver", envelope)
            payload = envelope.payload
            trace = self.trace
            if trace is None:
                handlers[type(payload)](payload, envelope.src)
            else:
                token = trace.on_deliver_begin(envelope)
                try:
                    handlers[type(payload)](payload, envelope.src)
                finally:
                    trace.on_deliver_end(token)
        envelope.payload = None
        envelope.trace = None
        self._env_pool.append(envelope)
