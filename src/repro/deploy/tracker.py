"""Tracker-style bootstrap control plane over synchronous UDP.

The deployment's data plane is the asyncio :class:`~repro.runtime.
socket_backend.SocketFabric`; bootstrap happens *before* any event loop
runs, so the control plane is deliberately dumb: one blocking UDP socket
per side, control frames from the same :mod:`repro.net.wire` codec, and
attempt-counted retry loops (socket timeouts bound every wait — no
wall-clock reads, per RL001, and no protocol state survives a lost
datagram that a resend cannot rebuild).

:class:`ControlEndpoint` mirrors the process layer's dispatch idiom —
``endpoint.on(Kind, handler)`` routed by payload type — so the RL013
handler census covers the control plane exactly like any other wire
surface.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Optional, Tuple

from repro.deploy.messages import (
    NodeRegister,
    NodeResult,
    PeerList,
    RegisterAck,
    ShutdownCmd,
)
from repro.net.wire.codec import (
    CodecError,
    FRAME_CONTROL,
    decode_frame,
    encode_control_frame,
)

Endpoint = Tuple[str, int]

# One blocking-recv slice; every bounded wait below is counted in these.
_PUMP_TIMEOUT = 0.1
# Bootstrap budget: 600 pumps x 0.1 s = 60 s, the CI hard ceiling.
_DEFAULT_ATTEMPTS = 600
# Resend cadence during a wait (every Nth empty pump).
_RESEND_EVERY = 5


class TrackerError(RuntimeError):
    """Bootstrap failed: a peer never registered, reported or stopped."""


class ControlEndpoint:
    """Synchronous UDP endpoint dispatching control frames by kind."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(_PUMP_TIMEOUT)
        self._handlers: Dict[type, Callable[[Any, Endpoint], None]] = {}
        self.decode_errors = 0

    @property
    def endpoint(self) -> Endpoint:
        name = self._sock.getsockname()
        return (name[0], name[1])

    def on(self, kind: type, handler: Callable[[Any, Endpoint], None]) -> None:
        """Register ``handler(message, sender_endpoint)`` for a kind."""
        self._handlers[kind] = handler

    def send(self, endpoint: Endpoint, payload: Any) -> None:
        self._sock.sendto(encode_control_frame(payload), endpoint)

    def pump(self) -> bool:
        """Receive and dispatch one control frame; False on timeout.
        Malformed or unexpected datagrams are counted and dropped."""
        try:
            data, addr = self._sock.recvfrom(65536)
        except (socket.timeout, ConnectionError, OSError):
            # ICMP port-unreachable surfaces as ConnectionError on some
            # platforms; either way the pump just came up empty.
            return False
        try:
            frame_kind, message = decode_frame(data)
            if frame_kind != FRAME_CONTROL:
                raise CodecError("data frame on the control plane")
        except CodecError:
            self.decode_errors += 1
            return True
        handler = self._handlers.get(message.__class__)
        if handler is not None:
            handler(message, (addr[0], addr[1]))
        return True

    def close(self) -> None:
        self._sock.close()


class Tracker:
    """The parent side: registration barrier, results, shutdown fan-out."""

    def __init__(self, expected: int, host: str = "127.0.0.1") -> None:
        if expected < 1:
            raise ValueError("a deployment needs at least one node")
        self.expected = expected
        self._endpoint = ControlEndpoint(host=host)
        self._control_addrs: Dict[int, Endpoint] = {}
        self._data_endpoints: Dict[int, Endpoint] = {}
        self._results: Dict[int, Any] = {}
        self._endpoint.on(NodeRegister, self._on_register)
        self._endpoint.on(NodeResult, self._on_result)

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint.endpoint

    # -- handlers ------------------------------------------------------------

    def _on_register(self, message: NodeRegister, addr: Endpoint) -> None:
        self._control_addrs[message.node] = addr
        self._data_endpoints[message.node] = (message.host, message.port)
        self._endpoint.send(addr, RegisterAck(node=message.node))
        # Post-barrier re-register means the node lost its PeerList.
        if len(self._data_endpoints) == self.expected:
            self._endpoint.send(addr, self._peer_list())

    def _on_result(self, message: NodeResult, addr: Endpoint) -> None:
        self._results[message.node] = message.payload

    def _peer_list(self) -> PeerList:
        return PeerList(
            peers=tuple(
                (node, host, port)
                for node, (host, port) in sorted(self._data_endpoints.items())
            )
        )

    # -- phases --------------------------------------------------------------

    def wait_registered(self, attempts: int = _DEFAULT_ATTEMPTS) -> None:
        """Pump until all nodes registered, then release the barrier."""
        for _ in range(attempts):
            self._endpoint.pump()
            if len(self._data_endpoints) == self.expected:
                break
        else:
            raise TrackerError(
                f"only {len(self._data_endpoints)}/{self.expected} nodes "
                "registered before the bootstrap deadline"
            )
        peer_list = self._peer_list()
        for addr in self._control_addrs.values():
            self._endpoint.send(addr, peer_list)

    def wait_results(self, attempts: int = _DEFAULT_ATTEMPTS) -> Dict[int, Any]:
        for _ in range(attempts):
            self._endpoint.pump()
            if len(self._results) == self.expected:
                return dict(self._results)
        raise TrackerError(
            f"only {len(self._results)}/{self.expected} nodes reported "
            "results before the deadline"
        )

    def shutdown(self) -> None:
        """Fan ShutdownCmd out to every known node (thrice: UDP)."""
        for _ in range(3):
            for addr in self._control_addrs.values():
                self._endpoint.send(addr, ShutdownCmd())

    def close(self) -> None:
        self._endpoint.close()


class NodeClient:
    """The child side: register, await the barrier, report, await stop."""

    def __init__(self, node: int, tracker: Endpoint) -> None:
        self.node = node
        self._tracker = tracker
        self._endpoint = ControlEndpoint()
        self._acked = False
        self._peers: Optional[Dict[int, Endpoint]] = None
        self._stopped = False
        self._endpoint.on(RegisterAck, self._on_ack)
        self._endpoint.on(PeerList, self._on_peer_list)
        self._endpoint.on(ShutdownCmd, self._on_shutdown)

    def _on_ack(self, message: RegisterAck, addr: Endpoint) -> None:
        if message.node == self.node:
            self._acked = True

    def _on_peer_list(self, message: PeerList, addr: Endpoint) -> None:
        self._peers = {
            int(node): (host, int(port)) for node, host, port in message.peers
        }

    def _on_shutdown(self, message: ShutdownCmd, addr: Endpoint) -> None:
        self._stopped = True

    def register(
        self, data_endpoint: Endpoint, attempts: int = _DEFAULT_ATTEMPTS
    ) -> Dict[int, Endpoint]:
        """Announce our data endpoint; block until the peer list (the
        start barrier) arrives.  Returns {node index: data endpoint}."""
        register = NodeRegister(
            node=self.node, host=data_endpoint[0], port=data_endpoint[1]
        )
        for attempt in range(attempts):
            if self._peers is not None:
                return dict(self._peers)
            if attempt % _RESEND_EVERY == 0 and not self._acked:
                self._endpoint.send(self._tracker, register)
            elif attempt % (_RESEND_EVERY * 10) == 0:
                # Acked but no barrier yet: re-register occasionally in
                # case the tracker restarted or the PeerList was lost.
                self._endpoint.send(self._tracker, register)
            self._endpoint.pump()
        raise TrackerError(f"node {self.node}: no peer list from tracker")

    def report(self, payload: Any, attempts: int = _DEFAULT_ATTEMPTS) -> None:
        """Deliver our result; block until the tracker says shut down."""
        result = NodeResult(node=self.node, payload=payload)
        for attempt in range(attempts):
            if self._stopped:
                return
            if attempt % _RESEND_EVERY == 0:
                self._endpoint.send(self._tracker, result)
            self._endpoint.pump()
        raise TrackerError(f"node {self.node}: no shutdown from tracker")

    def close(self) -> None:
        self._endpoint.close()
