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

from typing import Any, Callable, Dict, Iterable, Optional

from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import (
    _META_CACHE,
    Address,
    Envelope,
    HEADER_BYTES,
    payload_meta,
)
from repro.net.partition import PartitionManager
from repro.net.stats import NetworkStats
from repro.runtime.api import MessageFabric, SimRandom, TimerService

DeliverFn = Callable[[Envelope], None]


class Network:
    """Datagram network over an engine's message fabric.

    The network is engine-agnostic: it reads the clock and defers
    deliveries through a :class:`~repro.runtime.api.MessageFabric`
    (by default the engine's own :class:`~repro.runtime.api.
    TimerService`, which under the sim backend is the Scheduler itself —
    the PR-1 hot path unchanged).  The asyncio backend binds its
    in-flight-counting fabric here instead.
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
        self._endpoints: Dict[Address, DeliverFn] = {}
        self.partitions = PartitionManager()
        self.stats = NetworkStats()
        self._tap_entries: list = []
        self._taps: list = []
        self._send_taps: list = []
        self._deliver_taps: list = []
        self._drop_taps: list = []
        # Causal tracing sink (repro.trace.api.TraceSink) or None when
        # tracing is off.  Installed by repro.trace.api.attach(); every
        # hook below is guarded by one attribute load + None check, which
        # is the entire disabled-path cost.
        self.trace = None
        # Batched dispatch (docs/simulator.md): when the fabric offers
        # bucketed scheduling (the sim scheduler's at_call_grouped), all
        # deliveries sharing a timestamp drain through one heap pop and
        # one _deliver_batch fan-out.  The asyncio fabric doesn't, and
        # falls back to one at_call per datagram.  The fan-out callback
        # is bound ONCE here: bucket matching is by identity
        # (``bucket.fn is fn``), and a fresh ``self._deliver_batch``
        # bound-method object per send would seal the bucket every time.
        self._group = getattr(self._fabric, "at_call_grouped", None)
        self._fan_out = self._deliver_batch
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
        datagram), so ``deliver_time`` is filled in after the send tap
        fires — and the envelope is *recycled* onto a free list the
        moment its delivery (or drop) completes, after which it will
        carry a different datagram.  Copy out whatever fields you need."""
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
        self._taps = [fn for fn, _ in entries]
        self._send_taps = [
            fn for fn, ev in entries if ev is None or "send" in ev
        ]
        self._deliver_taps = [
            fn for fn, ev in entries if ev is None or "deliver" in ev
        ]
        self._drop_taps = [
            fn for fn, ev in entries if ev is None or "drop" in ev
        ]

    def _tap(self, event: str, envelope: "Envelope") -> None:
        for fn in self._taps:
            fn(event, envelope)

    # -- endpoint management -------------------------------------------------

    def register(self, address: Address, deliver: DeliverFn) -> None:
        """Attach an endpoint.  Re-registering an address replaces it."""
        self._endpoints[address] = deliver

    def unregister(self, address: Address) -> None:
        """Detach an endpoint; in-flight datagrams to it are dropped."""
        self._endpoints.pop(address, None)

    def is_registered(self, address: Address) -> bool:
        return address in self._endpoints

    @property
    def endpoints(self) -> Iterable[Address]:
        return self._endpoints.keys()

    # -- sending -------------------------------------------------------------

    def send(
        self, src: Address, dst: Address, payload: Any, wire_packets: int = 1
    ) -> bool:
        """Send one datagram; counts one logical message + one wire packet
        (hardware multicast passes ``wire_packets=0`` and accounts for the
        shared packet itself).  Returns True if the datagram reached the
        latency stage, i.e. was actually put in flight rather than
        partitioned or lost.

        This is the hottest function in any run, so it trades a little
        repetition for speed: the payload meta lookup and the stats
        bookkeeping (``NetworkStats.record_send`` — keep the two in
        lockstep) are inlined, the envelope is drawn from the free list,
        and delivery is scheduled through the fabric's grouped bucket
        when it offers one.
        """
        try:
            category, size = _META_CACHE[payload.__class__]
            if category is None:
                category = payload.category
            if size is None:
                size = int(payload.size_bytes)
        except KeyError:
            category, size = payload_meta(payload)  # cold: registers class
        total = size + HEADER_BYTES
        stats = self.stats
        stats.messages += 1
        stats.bytes += total
        # Counter bumps use try/except rather than dict.get: after the
        # first datagram of a (category, sender) the key always exists,
        # so the exception path never runs in steady state and the
        # bound-method call per counter is saved.
        by_category = stats.by_category
        try:
            by_category[category] += 1
        except KeyError:
            by_category[category] = 1
        bytes_by_category = stats.bytes_by_category
        try:
            bytes_by_category[category] += total
        except KeyError:
            bytes_by_category[category] = total
        sent_by = stats.sent_by
        try:
            sent_by[src] += 1
        except KeyError:
            sent_by[src] = 1
        stats.wire_packets += wire_packets
        fabric = self._fabric
        now = fabric.now
        pool = self._env_pool
        if pool:
            envelope = pool.pop()
            envelope.src = src
            envelope.dst = dst
            envelope.payload = payload
            envelope.send_time = now
            envelope.deliver_time = 0.0
            envelope.size_bytes = size
        else:
            self._fresh_envelopes += 1
            envelope = Envelope(src, dst, payload, now, 0.0, size)
        taps = self._send_taps
        if taps:
            for fn in taps:
                fn("send", envelope)
        trace = self.trace
        if trace is not None:
            trace.on_send(envelope, category)
        partitions = self.partitions
        if partitions.active and not partitions.reachable(src, dst):
            self._drop(envelope)
            self._recycle(envelope)
            return False
        rng = self._rng
        # The probability pre-checks are stream-neutral: SimRandom.chance
        # draws nothing when p <= 0, so skipping the call entirely leaves
        # the RNG stream byte-identical on lossless runs.
        if self.drop_probability and rng.chance(self.drop_probability):
            self._drop(envelope)
            self._recycle(envelope)
            return False
        delay = self._fixed_delay
        if delay is None:
            delay = self._latency.sample(rng, src, dst, total)
        deliver_time = now + delay
        envelope.deliver_time = deliver_time
        group = self._group
        if group is not None:
            # Sim fabric: all deliveries landing on one timestamp drain
            # through a single heap pop and one _deliver_batch fan-out.
            group(deliver_time, self._fan_out, envelope)
        else:
            fabric.at_call(deliver_time, self._deliver, envelope)
        duplicate_probability = self.duplicate_probability
        if duplicate_probability and rng.chance(duplicate_probability):
            # The duplicate gets its own latency draw and envelope (the
            # two copies are independently in flight).
            delay = self._latency.sample(rng, src, dst, total)
            self._fresh_envelopes += 1
            duplicate = Envelope(src, dst, payload, now, now + delay, size)
            # Both copies stem from the same logical send span.
            duplicate.trace = envelope.trace
            if group is not None:
                group(duplicate.deliver_time, self._fan_out, duplicate)
            else:
                fabric.at_call(duplicate.deliver_time, self._deliver, duplicate)
        return True

    def multicast(self, src: Address, dsts: Iterable[Address], payload: Any) -> None:
        """Send the same payload to several destinations.

        Counts one logical message per destination.  Wire packets: one per
        destination point-to-point, or one total under hardware multicast —
        counted only if at least one transmit reached the latency stage
        (a multicast with every destination partitioned away never makes
        it onto the wire).
        """
        dst_list = list(dsts)
        if not dst_list:
            return
        send = self.send
        if self.hardware_multicast:
            reached = False
            for dst in dst_list:
                if send(src, dst, payload, 0):
                    reached = True
            if reached:
                self.stats.record_wire(1)
        else:
            for dst in dst_list:
                send(src, dst, payload, 1)

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

    def _deliver_batch(self, envelopes: list) -> None:
        """Fan a bucket of same-timestamp deliveries out of one event.

        The scheduler's grouped bucket preserves exact per-call (time,
        seq) order, so iterating the list here delivers in precisely the
        order individual ``at_call`` events would have — taps, stats and
        digests are byte-identical.  Endpoint table, stats recorder and
        tap/trace guards are hoisted once per bucket instead of loaded
        per delivery.
        """
        endpoints = self._endpoints
        received_by = self.stats.received_by
        taps = self._deliver_taps
        trace = self.trace
        pool = self._env_pool
        for envelope in envelopes:
            dst = envelope.dst
            deliver = endpoints.get(dst)
            if deliver is None:
                self._drop(envelope)
            else:
                # record_delivery, inlined (try/except: the key exists
                # after the destination's first delivery).
                try:
                    received_by[dst] += 1
                except KeyError:
                    received_by[dst] = 1
                if taps:
                    for fn in taps:
                        fn("deliver", envelope)
                if trace is None:
                    deliver(envelope)
                else:
                    token = trace.on_deliver_begin(envelope)
                    try:
                        deliver(envelope)
                    finally:
                        trace.on_deliver_end(token)
            envelope.payload = None
            envelope.trace = None
            pool.append(envelope)

    def deliver_inbound(self, envelope: Envelope) -> None:
        """Deliver a datagram that arrived from a remote fabric (the
        socket backend's receive path).  Runs the normal local delivery
        pipeline — stats, taps, trace, endpoint dispatch, drop on unknown
        destination — on an envelope decoded from the wire, which then
        joins this network's free list like any locally built one."""
        self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        deliver = self._endpoints.get(envelope.dst)
        if deliver is None:
            # Destination crashed or never existed; the datagram vanishes,
            # exactly as on a real LAN.
            self._drop(envelope)
            self._recycle(envelope)
            return
        self.stats.record_delivery(envelope.dst)
        taps = self._deliver_taps
        if taps:
            for fn in taps:
                fn("deliver", envelope)
        trace = self.trace
        if trace is None:
            deliver(envelope)
            self._recycle(envelope)
            return
        token = trace.on_deliver_begin(envelope)
        try:
            deliver(envelope)
        finally:
            trace.on_deliver_end(token)
        self._recycle(envelope)
