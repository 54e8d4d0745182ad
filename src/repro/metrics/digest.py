"""Order-sensitive digests of simulation behaviour.

A :class:`DeliveryDigest` taps the network and folds every delivery into a
rolling SHA-256 over ``(time, src, dst, category)`` tuples, the time
being the network's clock at delivery.  Two runs with the same digest
delivered the same messages, between the same endpoints, in the same
order, at the same simulated times — which is the property the perf
work on the event core must preserve byte-for-byte.

Usage::

    env = Environment(seed=7)
    digest = DeliveryDigest(env.network)
    ...run the scenario...
    assert digest.hexdigest() == expected

The digest is deliberately *order-sensitive*: swapping two deliveries at
the same timestamp changes it, so it also guards the scheduler's FIFO
tie-breaking.

The folded tuple deliberately excludes everything else on the envelope —
in particular the causal-trace context (``envelope.trace``) attached by
:mod:`repro.trace` — so a traced run produces the byte-identical digest
as an untraced one (regression-tested in tests/test_trace_determinism.py).
"""

from __future__ import annotations

import hashlib

from repro.net.message import payload_category


class DeliveryDigest:
    """Rolling hash of every network delivery, in delivery order.

    The byte stream folded into SHA-256 is one ``repr(time)|src|dst|
    category\\n`` line per delivery — unchanged since the digests were
    frozen.  Two mechanical optimisations keep the tap cheap enough to
    leave attached during benchmarks, neither of which can alter the
    stream:

    * lines are buffered and hashed in chunks (``update(a); update(b)``
      is definitionally ``update(a+b)`` for SHA-256);
    * ``repr(time)`` — float shortest-repr is surprisingly costly — is
      cached across runs of deliveries at one instant (simulated times
      are never ``-0.0``, the one float where equality would alias
      distinct reprs).
    """

    __slots__ = ("_hash", "_count", "_network", "_lines", "_time", "_time_repr")

    _FLUSH_AT = 1024

    def __init__(self, network=None) -> None:
        self._hash = hashlib.sha256()
        self._count = 0
        self._network = network
        self._lines: list = []
        self._time: float = None
        self._time_repr = ""
        if network is not None:
            network.add_tap(self._on_event, events=("deliver",))

    def _on_event(self, kind: str, envelope) -> None:
        # Only the behavioural fields are folded; observation-side state
        # (envelope.trace) must never reach the fingerprint.
        time = self._network.now
        if time != self._time:
            self._time = time
            self._time_repr = repr(time)
        self._count += 1
        category = payload_category(envelope.payload)
        lines = self._lines
        lines.append(
            f"{self._time_repr}|{envelope.src}|{envelope.dst}|{category}\n"
        )
        if len(lines) >= self._FLUSH_AT:
            self._hash.update("".join(lines).encode("utf-8"))
            lines.clear()

    def update(self, time: float, src: str, dst: str, category: str) -> None:
        """Fold one delivery tuple into the digest."""
        self._count += 1
        lines = self._lines
        lines.append(f"{time!r}|{src}|{dst}|{category}\n")
        if len(lines) >= self._FLUSH_AT:
            self._hash.update("".join(lines).encode("utf-8"))
            lines.clear()

    def _flush(self) -> None:
        if self._lines:
            self._hash.update("".join(self._lines).encode("utf-8"))
            self._lines.clear()

    def detach(self) -> None:
        """Stop observing the network (the digest keeps its value)."""
        if self._network is not None:
            self._network.remove_tap(self._on_event)
            self._network = None

    @property
    def count(self) -> int:
        """Number of deliveries folded in so far."""
        return self._count

    def hexdigest(self) -> str:
        self._flush()
        return self._hash.hexdigest()
