"""The deployment backend: the protocol stack over real UDP sockets.

:class:`SocketRuntime` is the :class:`~repro.runtime.asyncio_backend.
AsyncioRuntime` with the in-memory fabric swapped for a
:class:`SocketFabric`: timers, the logical clock, the callback error
funnel and ``run()`` semantics are inherited unchanged, but any envelope
whose destination appears in the fabric's *address book* is encoded with
the :mod:`repro.net.wire` codec and transmitted as a UDP datagram to
that peer's ``(host, port)``.  Destinations *not* in the book are local
to this OS process and take the same deferred-delivery path as the
asyncio fabric — so one process can host several group members and only
cross-process traffic touches the wire.

The fabric honours the ``MessageFabric`` contract the network relies on:

* ``at_call`` defers both local deliveries and wire transmissions to the
  envelope's deliver time, with in-flight accounting and ``drain()``;
* non-envelope callbacks relay through plain timers, untouched.

Failure containment: an unencodable or oversized payload, a truncated
datagram, a byte-flipped frame — each counts as a drop in the bound
:class:`~repro.net.stats.NetworkStats` (and on the fabric's own
counters) and never raises out of the transport.  Protocol-level errors
raised *by delivery handlers* (including strict sanitizer violations)
are funnelled into the timer service's error list and re-raised out of
``run()``, exactly like timer callbacks on the asyncio backend.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.net.message import Address, Envelope
from repro.net.wire.codec import (
    CodecError,
    FRAME_DATA,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_data_frames,
)
from repro.runtime.asyncio_backend import (
    AsyncioRuntime,
    AsyncioTimerHandle,
    AsyncioTimers,
    WallClockError,
    _POLL,
)

Endpoint = Tuple[str, int]


class _Inbound(asyncio.DatagramProtocol):
    """Receive half of the UDP endpoint; everything routes to the fabric."""

    def __init__(self, fabric: "SocketFabric") -> None:
        self._fabric = fabric

    def datagram_received(self, data: bytes, addr: Endpoint) -> None:
        self._fabric._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:
        # ICMP errors (e.g. a peer's port closed mid-shutdown) are the
        # datagram service being a datagram service, not a crash.
        self._fabric.socket_errors += 1


class SocketFabric:
    """:class:`~repro.runtime.api.MessageFabric` over one UDP socket."""

    def __init__(
        self,
        timers: AsyncioTimers,
        loop: asyncio.AbstractEventLoop,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._timers = timers
        self._loop = loop
        self._max_frame_bytes = max_frame_bytes
        # Address book: logical address -> remote (host, port).  Local
        # addresses are exactly the ones NOT in the book.
        self._peers: Dict[Address, Endpoint] = {}
        self._network = None  # bound by Environment via bind_network()
        self._transport: Optional[asyncio.DatagramTransport] = None
        self.dispatched = 0  # datagrams ever handed to the fabric
        self._in_flight = 0
        # Wire telemetry (perf_report --wire; docs/deployment.md).
        self.frames_sent = 0
        self.frames_received = 0
        self.wire_bytes_sent = 0
        self.wire_bytes_received = 0
        self.envelopes_sent = 0
        self.envelopes_received = 0
        self.decode_errors = 0
        self.encode_drops = 0
        self.socket_errors = 0

    # -- endpoint lifecycle --------------------------------------------------

    def open(self, host: str = "127.0.0.1", port: int = 0) -> Endpoint:
        """Bind the UDP socket (call before the loop runs protocols)."""
        if self._transport is not None:
            raise WallClockError("socket fabric already open")
        transport, _ = self._loop.run_until_complete(
            self._loop.create_datagram_endpoint(
                lambda: _Inbound(self), local_addr=(host, port)
            )
        )
        self._transport = transport
        return self.local_endpoint

    @property
    def local_endpoint(self) -> Endpoint:
        if self._transport is None:
            raise WallClockError("socket fabric is not open")
        sockname = self._transport.get_extra_info("sockname")
        return (sockname[0], sockname[1])

    def close(self) -> None:
        transport, self._transport = self._transport, None
        # A shared-loop cluster may close the loop's owner first; a dead
        # loop cannot run the transport's close callbacks (the process is
        # exiting — the OS reclaims the socket).
        if transport is not None and not self._loop.is_closed():
            transport.close()

    # -- wiring --------------------------------------------------------------

    def bind_network(self, network: Any) -> None:
        """Attach the Network whose delivery path receives inbound frames
        (and whose stats absorb codec drops).  Called by Environment."""
        self._network = network

    def set_peers(self, peers: Mapping[Address, Endpoint]) -> None:
        """Replace the address book.  Map only *remote* addresses; a
        logical address absent from the book is delivered in-process."""
        self._peers = dict(peers)

    @property
    def peers(self) -> Mapping[Address, Endpoint]:
        return dict(self._peers)

    # -- MessageFabric contract ----------------------------------------------

    @property
    def now(self) -> float:
        return self._timers.now

    @property
    def in_flight(self) -> int:
        """Datagrams accepted but not yet delivered or transmitted."""
        return self._in_flight

    def at_call(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> AsyncioTimerHandle:
        self.dispatched += 1
        self._in_flight += 1
        if arg.__class__ is Envelope and arg.dst in self._peers:
            return self._timers.at_call(time, self._transmit, arg)
        return self._timers.at_call(time, self._relay, (fn, arg))

    def _relay(self, pair: Tuple[Callable[[Any], None], Any]) -> None:
        self._in_flight -= 1
        fn, arg = pair
        fn(arg)

    async def drain(self) -> None:
        """Wait until no local deliveries or transmissions are queued."""
        while self._in_flight > 0:
            await asyncio.sleep(_POLL)

    # -- transmit ------------------------------------------------------------

    def _transmit(self, envelope: Envelope) -> None:
        self._in_flight -= 1
        transport = self._transport
        endpoint = self._peers.get(envelope.dst)
        if transport is None or endpoint is None:
            # Socket closed or peer withdrawn between schedule and fire:
            # the datagram vanishes, as on a real LAN.
            self._count_drops(1)
            return
        frames, rejects = encode_data_frames(
            (envelope,), self._max_frame_bytes
        )
        if rejects:
            self.encode_drops += 1
            self._count_drops(1)
            return
        for frame in frames:
            transport.sendto(frame, endpoint)
            self.frames_sent += 1
            self.wire_bytes_sent += len(frame)
        self.envelopes_sent += 1

    def _count_drops(self, count: int) -> None:
        network = self._network
        if network is not None:
            for _ in range(count):
                network.stats.record_drop()

    # -- receive -------------------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Endpoint) -> None:
        self.frames_received += 1
        self.wire_bytes_received += len(data)
        try:
            frame_kind, envelopes = decode_frame(data)
            if frame_kind != FRAME_DATA:
                raise CodecError(f"unexpected frame kind {frame_kind} on "
                                 "the data plane")
        except CodecError:
            self.decode_errors += 1
            self._count_drops(1)
            return
        network = self._network
        if network is None:
            self._count_drops(len(envelopes))
            return
        self.envelopes_received += len(envelopes)
        record_error = self._timers._record_error
        for envelope in envelopes:
            try:
                network.deliver_inbound(envelope)
            except Exception as exc:
                # Handler errors (incl. strict sanitizer violations) take
                # the same funnel as timer callbacks: out of run().
                record_error(exc)

    def wire_stats(self) -> Dict[str, int]:
        """Counter snapshot for reports and smoke output."""
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "wire_bytes_sent": self.wire_bytes_sent,
            "wire_bytes_received": self.wire_bytes_received,
            "envelopes_sent": self.envelopes_sent,
            "envelopes_received": self.envelopes_received,
            "decode_errors": self.decode_errors,
            "encode_drops": self.encode_drops,
            "socket_errors": self.socket_errors,
        }


class SocketRuntime(AsyncioRuntime):
    """Wall-clock engine whose fabric speaks UDP: the deployment on-ramp.

    Usage (one OS process of a deployment)::

        runtime = SocketRuntime(seed=7, time_scale=0.25)
        runtime.open()                      # bind 127.0.0.1, ephemeral port
        env = Environment(runtime=runtime)  # binds network <-> fabric
        ...build local members...
        runtime.connect({"g-2": ("10.0.0.7", 9012), ...})  # remote peers
        env.run_for(5.0)
        runtime.close()

    Peer exchange (who hosts which logical address) is the deploy
    tracker's job — see :mod:`repro.deploy` and ``docs/deployment.md``.
    """

    def __init__(
        self,
        seed: int = 0,
        time_scale: float = 1.0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        super().__init__(seed=seed, time_scale=time_scale, loop=loop)
        # Imported here, not at module top: the registry reaches into
        # every protocol package, and this module is imported by
        # ``repro.runtime`` — which those packages import for the engine
        # contract.  Constructing a SocketRuntime is the first moment the
        # full kind table is genuinely needed.
        from repro.net.wire.registry import ensure_registered

        ensure_registered()
        self.fabric = SocketFabric(self.timers, self._loop, max_frame_bytes)

    def open(self, host: str = "127.0.0.1", port: int = 0) -> Endpoint:
        """Bind the data-plane UDP socket; returns the bound endpoint."""
        return self.fabric.open(host, port)

    @property
    def local_endpoint(self) -> Endpoint:
        return self.fabric.local_endpoint

    def connect(self, peers: Mapping[Address, Endpoint]) -> None:
        """Install the address book mapping remote logical addresses to
        their hosts' UDP endpoints."""
        self.fabric.set_peers(peers)

    def reset_clock(self) -> None:
        """Restart logical time at zero (see ``AsyncioTimers.
        reset_epoch``): deployments align every node's t=0 to the
        tracker's barrier release so absolute-time schedules agree."""
        self.timers.reset_epoch()

    def close(self) -> None:
        self.fabric.close()
        super().close()


def run_cluster(runtimes, duration: float) -> None:
    """Advance several same-loop :class:`SocketRuntime`\\ s together.

    The in-process deployment shape (parity tests, perf runs): N
    runtimes, each with its own sockets, environment and logical clock,
    all multiplexed on ONE asyncio loop — `run()` belongs to a single
    runtime, so a shared-loop cluster needs this driver.  Returns once
    every runtime's clock has advanced by ``duration``; the first
    callback error recorded by any runtime is re-raised.
    """
    if not runtimes:
        return
    loop = runtimes[0].loop
    for runtime in runtimes:
        if runtime.loop is not loop:
            raise WallClockError("run_cluster needs runtimes on one loop")
    targets = [runtime.timers.now + duration for runtime in runtimes]

    async def drive() -> None:
        while True:
            done = True
            for runtime, target in zip(runtimes, targets):
                if runtime.timers._errors:
                    return
                if runtime.timers.now < target:
                    done = False
            if done:
                return
            await asyncio.sleep(_POLL)

    loop.run_until_complete(drive())
    for runtime in runtimes:
        error = runtime.timers.take_error()
        if error is not None:
            raise error
