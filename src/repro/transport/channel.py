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

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.message import payload_meta


class _SegmentMeta:
    """The slots a :class:`Segment` fills from its payload when built.
    Declared apart from its dataclass fields, so they never travel."""

    __slots__ = ("category", "size_bytes")


@dataclass(slots=True, init=False)
class Segment(_SegmentMeta):
    """A reliably transmitted payload with a per-peer sequence number.

    Statistics transparency: a segment reports its *inner* payload's
    category and size, so protocol-level message accounting (flush
    messages, group data, ...) is unaffected by the transport wrapping.
    Both are taken once, when the segment is built: the network reads
    them on every send, where a property would cost a call each (a
    caller that has them passes ``meta``, the ``payload_meta``).

    A segment can additionally carry a piggybacked cumulative ack for
    the *reverse* channel (docs/comms.md) — ``ack_cum_seq``/``ack_epoch``
    mirror a standalone :class:`SegmentAck` and add its bytes to the
    frame when present (:meth:`carry_ack`).
    """

    seq: int
    payload: Any
    incarnation: int = 0
    epoch: int = 0
    ack_cum_seq: Optional[int] = None
    ack_epoch: int = 0

    def __init__(
        self, seq: int, payload: Any, incarnation: int = 0, epoch: int = 0,
        ack_cum_seq: Optional[int] = None, ack_epoch: int = 0,
        meta: Optional[Tuple[str, int]] = None,
    ) -> None:
        self.seq = seq
        self.payload = payload
        self.incarnation = incarnation
        self.epoch = epoch
        self.ack_cum_seq = ack_cum_seq
        self.ack_epoch = ack_epoch
        self.category, size = meta or payload_meta(payload)
        self.size_bytes = size + 16  # seq-number overhead
        if ack_cum_seq is not None:
            self.size_bytes += SegmentAck.size_bytes  # ack riding in the header

    def carry_ack(self, cum_seq: int, epoch: int) -> None:
        """Ride a cumulative ack for the reverse channel on this segment."""
        self.ack_cum_seq = cum_seq
        self.ack_epoch = epoch
        self.size_bytes += SegmentAck.size_bytes


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

    ``prompt_since`` / ``lazy_since`` bound from below the last
    transmission time of the oldest prompt / lazy segment unacked: they
    are the channel's earliest deadline, less ``rto`` / ``rto + hold``.
    Admission lowers them, a sweep recomputes them, a restart clears
    them; an ack or a gap resend only makes them stale on the early
    side.  So a sweep that finds both deadlines ahead skips the scan,
    and the test it skips is the scan's own arithmetic.
    """

    epoch: int = 0
    next_seq: int = 1
    unacked: Dict[int, Tuple[Any, float, bool]] = field(default_factory=dict)
    prompt_since: float = math.inf
    lazy_since: float = math.inf

    @property
    def first_unacked(self) -> int:
        return self.next_seq - len(self.unacked)

    def admit(
        self, payload: Any, now: float, incarnation: int = 0, lazy: bool = False
    ) -> Segment:
        return SendState.admit_many((self,), payload, now, incarnation, lazy)[0]

    @staticmethod
    def admit_many(
        states: Sequence["SendState"], payload: Any, now: float,
        incarnation: int = 0, lazy: bool = False,
    ) -> List[Segment]:
        """Number ``payload`` on each channel and hold it unacked there:
        one segment per channel.  Its meta and its unacked entry are
        taken once for every channel (tuples: a restamp replaces them)."""
        meta = payload_meta(payload)
        entry = (payload, now, lazy)
        segments = []
        for state in states:
            seq = state.next_seq
            state.unacked[seq] = entry
            state.next_seq = seq + 1
            if lazy:
                if now < state.lazy_since:
                    state.lazy_since = now
            elif now < state.prompt_since:
                state.prompt_since = now
            # positional: a keyword argument costs the call ~90 ns
            segments.append(Segment(seq, payload, incarnation, state.epoch, None, 0, meta))
        return segments

    def acknowledge(self, cum_seq: int) -> None:
        unacked = self.unacked
        last = self.next_seq - 1
        if cum_seq >= last:
            # All acked: a fresh table gives back one sized for the
            # biggest burst this channel ever held in flight.
            if unacked:
                self.unacked = {}
            return
        for seq in range(self.first_unacked, cum_seq + 1):
            del unacked[seq]

    def due_for_retransmit(
        self, now: float, rto: float, incarnation: int = 0, hold: float = 0.0
    ) -> List[Segment]:
        """Segments to resend now, in seq order, each restamped ``now``: a
        prompt segment is due ``rto`` after its last transmission, a lazy
        one ``rto + hold`` after it — or together with a due prompt
        segment behind it, which the receiver could not deliver before
        it."""
        if now - self.prompt_since < rto and now - self.lazy_since < rto + hold:
            return []  # neither deadline has come: no segment can be due
        unacked = self.unacked
        pull = 0
        for seq, (_payload, sent_at, lazy) in unacked.items():
            if not lazy and now - sent_at >= rto:
                pull = seq
        due = []
        prompt_since = lazy_since = math.inf
        for seq, (payload, sent_at, lazy) in unacked.items():
            if (lazy and seq < pull) or now - sent_at >= (rto + hold if lazy else rto):
                sent_at = now
                unacked[seq] = (payload, now, lazy)
                due.append(Segment(seq, payload, incarnation, self.epoch))
            if lazy:
                if sent_at < lazy_since:
                    lazy_since = sent_at
            elif sent_at < prompt_since:
                prompt_since = sent_at
        self.prompt_since = prompt_since
        self.lazy_since = lazy_since
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
        self.prompt_since = self.lazy_since = math.inf
        return pending


@dataclass
class ReceiveState:
    """Receiver-side state for one source channel (incarnation, epoch)."""

    channel_id: Tuple[int, int] = (0, 0)
    expected: int = 1
    out_of_order: Dict[int, Any] = field(default_factory=dict)

    def accept(self, segment: Segment) -> Sequence[Any]:
        """Record a segment; return payloads now deliverable in order."""
        seq = segment.seq
        expected = self.expected
        out_of_order = self.out_of_order
        if seq == expected and not out_of_order:
            # In order with no gap open, as nearly every segment arrives.
            self.expected = seq + 1
            return (segment.payload,)
        if seq < expected:
            return ()  # duplicate of something already delivered
        out_of_order.setdefault(seq, segment.payload)
        ready: List[Any] = []
        while expected in out_of_order:
            ready.append(out_of_order.pop(expected))
            expected += 1
        self.expected = expected
        if ready and not out_of_order:
            self.out_of_order = {}  # the gap closed: give its table back
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
