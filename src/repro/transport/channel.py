"""Per-peer channel state and wire types for the reliable transport.

The network gives us lossy unordered datagrams; :mod:`repro.transport.
reliable` builds per-peer reliable FIFO channels on top using sequence
numbers, cumulative acknowledgements, timeout-driven retransmission and
a receiver-side gap report (the idea of TCP SACK, RFC 2018: a receiver
with a gap says where the gap ends).

Channels are additionally tagged with the sender's process *incarnation*
(bumped on crash recovery) and a per-channel *epoch* (bumped whenever the
sender restarts the channel, e.g. because the receiver rebooted and lost
its receive state).  A receiver keys its state by (incarnation, epoch)
and ignores anything older, so a recovered workstation is never
black-holed by sequence numbers from its previous life.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.net.message import payload_category, payload_size


@dataclass
class Segment:
    """A reliably transmitted payload with a per-peer sequence number.

    Statistics transparency: a segment reports its *inner* payload's
    category and size, so protocol-level message accounting (flush
    messages, group data, ...) is unaffected by the transport wrapping.

    A segment can additionally carry a piggybacked cumulative ack for
    the *reverse* channel (docs/comms.md) — ``ack_cum_seq``/``ack_epoch``
    mirror a standalone :class:`SegmentAck` and add its bytes to the
    frame when present.
    """

    seq: int
    payload: Any
    incarnation: int = 0
    epoch: int = 0
    ack_cum_seq: Optional[int] = None
    ack_epoch: int = 0

    @property
    def category(self) -> str:
        return payload_category(self.payload)

    @property
    def size_bytes(self) -> int:
        size = payload_size(self.payload) + 16  # seq-number overhead
        if self.ack_cum_seq is not None:
            size += SegmentAck.size_bytes  # ack riding in the header
        return size

    @property
    def channel_id(self) -> Tuple[int, int]:
        return (self.incarnation, self.epoch)


@dataclass
class SegmentAck:
    """Cumulative acknowledgement: all seq <= cum_seq received.

    Carries the acker's incarnation (so a sender notices the receiver
    rebooted) and echoes the channel epoch being acknowledged (so acks
    from a dead epoch are ignored).  ``high`` is non-zero only when the
    receiver has a gap: it is the gap's upper edge, the first seq the
    receiver holds beyond ``cum_seq``, so every seq below it is missing
    and the sender resends at once every unacked segment below it.
    """

    category = "transport-ack"
    size_bytes = 16
    cum_seq: int
    incarnation: int = 0
    epoch: int = 0
    high: int = 0


@dataclass
class SendState:
    """Sender-side state for one destination.

    ``unacked`` maps seq -> (payload, last transmission time, lazy).  Its
    keys are always the contiguous run ``first_unacked .. next_seq - 1``
    in insertion, i.e. seq, order: segments are admitted in sequence and
    only a cumulative ack removes any, from the front.  A *lazy* segment
    is one whose receiver may hold the ack for ``hold`` (docs/comms.md,
    "Acks ride the stability round"), so it is resent only after
    ``rto + hold``; every other segment after ``rto``.
    """

    epoch: int = 0
    next_seq: int = 1
    unacked: Dict[int, Tuple[Any, float, bool]] = field(default_factory=dict)

    @property
    def first_unacked(self) -> int:
        return self.next_seq - len(self.unacked)

    def admit(
        self, payload: Any, now: float, incarnation: int = 0, lazy: bool = False
    ) -> Segment:
        segment = Segment(
            seq=self.next_seq,
            payload=payload,
            incarnation=incarnation,
            epoch=self.epoch,
        )
        self.unacked[segment.seq] = (payload, now, lazy)
        self.next_seq += 1
        return segment

    def acknowledge(self, cum_seq: int) -> None:
        unacked = self.unacked
        for seq in range(self.first_unacked, min(cum_seq, self.next_seq - 1) + 1):
            del unacked[seq]

    def due_for_retransmit(
        self, now: float, rto: float, incarnation: int = 0, hold: float = 0.0
    ) -> List[Segment]:
        """Segments to resend now, in seq order, each restamped ``now``: a
        prompt segment is due ``rto`` after its last transmission, a lazy
        one ``rto + hold`` after it — or together with a due prompt
        segment behind it, which the receiver could not deliver before
        it."""
        unacked = self.unacked
        pull = 0
        for seq, (_payload, sent_at, lazy) in unacked.items():
            if not lazy and now - sent_at >= rto:
                pull = seq
        due = []
        for seq, (payload, sent_at, lazy) in unacked.items():
            if (lazy and seq < pull) or now - sent_at >= (rto + hold if lazy else rto):
                unacked[seq] = (payload, now, lazy)
                due.append(Segment(seq, payload, incarnation, self.epoch))
        return due

    def resend_below(self, high: int, now: float, incarnation: int = 0) -> List[Segment]:
        """The receiver reported a gap ending at ``high``: every unacked
        segment below it — all missing there — restamped ``now``."""
        unacked = self.unacked
        due = []
        for seq in range(self.first_unacked, min(high, self.next_seq)):
            payload, _sent_at, lazy = unacked[seq]
            unacked[seq] = (payload, now, lazy)
            due.append(Segment(seq, payload, incarnation, self.epoch))
        return due

    def restart(self, now: float) -> List[Any]:
        """Begin a new epoch (the receiver lost its state): unacked
        payloads are carried over in order to be re-admitted by the
        caller.  Returns those payloads."""
        pending = [payload for payload, _at, _lazy in self.unacked.values()]
        self.epoch += 1
        self.next_seq = 1
        self.unacked = {}
        return pending


@dataclass
class ReceiveState:
    """Receiver-side state for one source channel (incarnation, epoch)."""

    channel_id: Tuple[int, int] = (0, 0)
    expected: int = 1
    out_of_order: Dict[int, Any] = field(default_factory=dict)

    def accept(self, segment: Segment) -> List[Any]:
        """Record a segment; return payloads now deliverable in order."""
        if segment.seq < self.expected:
            return []  # duplicate of something already delivered
        self.out_of_order.setdefault(segment.seq, segment.payload)
        ready: List[Any] = []
        while self.expected in self.out_of_order:
            ready.append(self.out_of_order.pop(self.expected))
            self.expected += 1
        return ready

    @property
    def cum_seq(self) -> int:
        return self.expected - 1

    @property
    def high(self) -> int:
        """The upper edge of the gap after ``cum_seq`` — the first seq held
        beyond it — or 0 when there is no gap.  Only what is missing lies
        below it, so a resend of that range repeats nothing held here."""
        return min(self.out_of_order) if self.out_of_order else 0
