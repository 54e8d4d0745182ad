"""Reliable FIFO point-to-point transport over the lossy network.

Attach a :class:`ReliableTransport` to a process and every protocol layer
above it gets exactly-once, in-order delivery per peer::

    transport = ReliableTransport(process)
    transport.send(dst, SomeProtocolMessage(...))

Received payloads re-enter the owning process's normal dispatch
(``process.deliver``), so upper layers are oblivious to the transport —
they simply register handlers for their own payload types.

Reliability comes from sequence numbers + cumulative acks + a single
retransmission sweep per process (one timer, not one per segment, which
keeps large simulations cheap).  The sweep runs on a fixed ``rto`` grid
but only while something is unacked: a process with nothing in flight
has no transport timer at all.

Acks are cumulative and held (docs/comms.md): an ack rides on the next
segment to that peer, and only if none leaves in time does one
standalone :class:`SegmentAck` go out, covering everything received in
the meantime.  How long an ack may wait depends on what it answers:

* a *prompt* segment — the default — is acked within ``rto / 5``.  The
  delay is derived from ``rto`` rather than set, so it is below ``rto``
  by construction and a held ack cannot by itself provoke a
  retransmission;
* a *lazy* segment, one of the payload kinds named by :meth:`hold_acks`,
  may wait up to that call's ``hold``, because the owner sends the peer
  something at least that often for the ack to ride on.  Its sender
  resends it only ``hold + rto`` after the last transmission;
* a gap is never held: ``rto / 5`` after an out-of-order segment arrived
  with the gap still open, a standalone ack reports where the gap ends —
  the first seq held beyond it (``SegmentAck.high``) — and the sender
  resends at once every unacked segment below that: what is missing, and
  nothing the receiver holds.  A further gap beyond it is reported once
  the first has closed and a later segment arrives.

Crash recovery is handled with incarnations and channel epochs (see
:mod:`repro.transport.channel`): a recovered process sends under a new
incarnation, receivers discard channel state from its previous life, and
a sender that observes a rebooted receiver restarts the channel in a new
epoch, carrying unacked payloads over — so traffic flows again in both
directions without manual intervention, even when the reboot was too
fast for any failure detector to notice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.net.message import Address
from repro.proc.process import Process, Timer
from repro.transport.channel import ReceiveState, Segment, SegmentAck, SendState

DEFAULT_RTO = 0.05


class ReliableTransport:
    """Per-peer reliable FIFO channels multiplexed onto one process."""

    def __init__(self, process: Process, rto: float = DEFAULT_RTO) -> None:
        if rto <= 0:
            raise ValueError("rto must be positive")
        self._process = process
        self._rto = rto
        self._ack_delay = rto / 5
        # Payload classes whose acks may be held for ``_ack_hold``
        # (hold_acks); empty unless the owner sends reports that carry them.
        self._lazy: frozenset = frozenset()
        self._ack_hold = 0.0
        self._send: Dict[Address, SendState] = {}
        self._recv: Dict[Address, ReceiveState] = {}
        # Number of channels with unacked segments outstanding.  The
        # retransmission sweep is armed when this leaves zero and re-arms
        # itself only while it stays positive; with the ack delay well
        # below rto the steady state is "everything acked", i.e. no timer.
        self._inflight = 0
        self._sweep_timer: Optional[Timer] = None
        self._sweep_origin = process.env.now
        self._peer_incarnation: Dict[Address, int] = {}
        # Held-ack state per peer: segments received since the last ack
        # (standalone or ridden), the time by which that ack must leave,
        # when the gap on that channel was first seen (unless already
        # reported), and one timer as (fire time, handle) for whichever
        # of the ack and the gap report falls due first.
        self._ack_pending: Dict[Address, int] = {}
        self._ack_due: Dict[Address, float] = {}
        self._gap_since: Dict[Address, float] = {}
        self._ack_timers: Dict[Address, Tuple[float, Any]] = {}
        process.on(Segment, self._on_segment)
        process.on(SegmentAck, self._on_ack)
        process.add_recover_listener(self.reset)

    @property
    def _incarnation(self) -> int:
        return self._process.incarnation

    def hold_acks(self, kinds: Iterable[type], hold: float) -> None:
        """Make payloads of ``kinds`` lazy: a receiver may hold their ack
        for up to ``hold``, and a sender resends them only ``hold + rto``
        after their last transmission.  For an owner that sends each peer
        a segment of its own at least every ``hold`` whenever the peer
        sent it one of ``kinds`` — the ack rides on that."""
        if hold <= 0:
            raise ValueError("hold must be positive")
        self._lazy = frozenset(kinds)
        self._ack_hold = hold

    # -- sending ---------------------------------------------------------------

    def send(self, dst: Address, payload: Any) -> None:
        """Reliably send ``payload`` to ``dst`` (FIFO per destination)."""
        state = self._send.setdefault(dst, SendState())
        if not state.unacked:
            self._note_inflight()
        segment = state.admit(
            payload, self._process.env.now, self._incarnation,
            payload.__class__ in self._lazy,
        )
        self._send_segment(dst, segment)

    def send_many(self, dsts: Iterable[Address], payload: Any) -> None:
        """Reliable 'multicast': an independent reliable send per peer.

        Logical message counts match ISIS's point-to-point multicast; the
        hardware-multicast saving of E9 applies to the *first*
        transmission only, so we route initial copies through the network
        multicast (when their channel positions align) and keep per-peer
        state for retransmission.
        """
        dst_list = list(dsts)
        if not dst_list:
            return
        now = self._process.env.now
        lazy = payload.__class__ in self._lazy
        segments = []
        for dst in dst_list:
            state = self._send.setdefault(dst, SendState())
            if not state.unacked:
                self._note_inflight()
            segments.append((dst, state.admit(payload, now, self._incarnation, lazy)))
        identities = {(s.seq, s.epoch) for _, s in segments}
        if len(identities) == 1 and self._process.env.network.hardware_multicast:
            # One shared segment object reaches every destination, so no
            # per-peer ack can ride on it.
            self._process.multicast([dst for dst, _ in segments], segments[0][1])
        else:
            for dst, segment in segments:
                self._send_segment(dst, segment)

    def _send_segment(self, dst: Address, segment: Segment) -> None:
        """Put one segment on the wire, riding any pending ack for the
        reverse channel on it (docs/comms.md).  A gap on that channel
        keeps its own timer: only a standalone ack can report it."""
        pending = self._ack_pending.pop(dst, 0)
        if pending:
            del self._ack_due[dst]
            self._rearm_ack_timer(dst)
            state = self._recv.get(dst)
            if state is not None:
                segment.ack_cum_seq = state.cum_seq
                segment.ack_epoch = state.channel_id[1]
                self._process.env.network.stats.acks_piggybacked += pending
        self._process.send(dst, segment)

    def unacked_count(self, dst: Address) -> int:
        state = self._send.get(dst)
        return len(state.unacked) if state else 0

    def abandon(
        self, dst: Address, keep: Optional[Callable[[Any], bool]] = None
    ) -> None:
        """Give up on what is unacked towards ``dst`` — a peer suspected
        of having failed, or removed from a group view.

        Only the send side is touched: the channel restarts in a new
        epoch, so nothing more is retransmitted to a dead peer, while a
        peer that is in fact alive (false suspicion, graceful leave) is
        not black-holed — its receive state follows our new epoch, and
        ours for *its* channel is left alone, so what it sends next is
        still in sequence.  Payloads ``keep`` accepts are carried over
        into the new epoch in order; when it accepts all of them the
        channel is left as it is.
        """
        state = self._send.get(dst)
        if state is None or not state.unacked:
            return
        # ``unacked`` is in admission, i.e. sequence, order.
        kept = [] if keep is None else [
            payload for payload, _at, _lazy in state.unacked.values() if keep(payload)
        ]
        if len(kept) == len(state.unacked):
            return
        self._inflight -= 1
        state.restart(self._process.env.now)
        for payload in kept:
            self.send(dst, payload)

    def reset(self) -> None:
        """Drop all channel state (fail-stop recovery: this process comes
        back with fresh sequence numbers under a new incarnation)."""
        self._send.clear()
        self._inflight = 0
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None
        self._recv.clear()
        self._peer_incarnation.clear()
        self._ack_pending.clear()
        self._ack_due.clear()
        self._gap_since.clear()
        for _at, timer in self._ack_timers.values():
            timer.cancel()
        self._ack_timers.clear()

    def _note_inflight(self) -> None:
        """A channel gained its first unacked segment.  If it is the only
        such channel, arm the sweep for the next point of the ``rto``
        grid (counted from this transport's creation), so a segment is
        retransmitted between one and two ``rto`` after it was sent
        whether or not the process was idle before."""
        self._inflight += 1
        if self._sweep_timer is None:
            elapsed = self._process.env.now - self._sweep_origin
            self._sweep_timer = self._process.set_timer(
                self._rto - elapsed % self._rto, self._retransmit_sweep
            )

    def _retransmit_sweep(self) -> None:
        if not self._inflight:
            self._sweep_timer = None  # all acked: sleep until the next send
            return
        self._sweep_timer = self._process.set_timer(
            self._rto, self._retransmit_sweep
        )
        now = self._process.env.now
        for dst, state in self._send.items():
            # Channels with nothing unacked (the steady-state majority)
            # skip the call entirely.
            if state.unacked:
                self._retransmit(
                    dst,
                    state.due_for_retransmit(
                        now, self._rto, self._incarnation, self._ack_hold
                    ),
                )

    def _retransmit(self, dst: Address, segments: List[Segment]) -> None:
        trace = self._process.env.network.trace
        for segment in segments:
            if trace is not None:
                # Each retransmission gets its own span so traced runs
                # separate first transmissions from recovery traffic.
                with trace.span(
                    "retransmit", category="transport",
                    process=self._process.address, peer=dst,
                    seq=segment.seq,
                ):
                    self._send_segment(dst, segment)
            else:
                self._send_segment(dst, segment)

    # -- receiving --------------------------------------------------------------

    def _on_segment(self, segment: Segment, sender: Address) -> None:
        # Steady state: the peer's incarnation is already known and
        # unchanged, so the bookkeeping call is skipped entirely.
        if self._peer_incarnation.get(sender) != segment.incarnation:
            self._note_peer_incarnation(sender, segment.incarnation)
        if segment.ack_cum_seq is not None:
            self._apply_ack(sender, segment.ack_cum_seq, segment.ack_epoch)
        state = self._recv.get(sender)
        if state is None or state.channel_id < segment.channel_id:
            # first contact, or the sender rebooted / restarted the
            # channel: fresh receive state for the new channel
            state = ReceiveState(channel_id=segment.channel_id)
            self._recv[sender] = state
        elif state.channel_id > segment.channel_id:
            return  # a straggler from a dead channel: ignore entirely
        # A duplicate means the sender is (probably) retransmitting: it is
        # answered promptly whatever it carries.
        prompt = (
            segment.payload.__class__ not in self._lazy
            or segment.seq < state.expected
        )
        ready = state.accept(segment)
        self._note_ack_needed(sender, state, prompt)
        for payload in ready:
            self._process.deliver(payload, sender)

    def _note_ack_needed(
        self, peer: Address, state: ReceiveState, prompt: bool
    ) -> None:
        """Queue an ack for ``peer``: it rides on the next outgoing
        segment, or goes standalone once the earliest deadline of what it
        covers has passed — ``rto / 5`` after a prompt segment arrived,
        the hold after a lazy one.  A gap still open ``rto / 5`` after an
        arrival first found it is reported then, whether or not the ack
        has ridden meanwhile.  Nothing but a reboot of either end
        discards a pending ack — a peer we abandoned or that a view
        removed may be alive and needs the ack to stop retransmitting."""
        now = self._process.env.now
        self._ack_pending[peer] = self._ack_pending.get(peer, 0) + 1
        due = now + (self._ack_delay if prompt else self._ack_hold)
        held = self._ack_due.get(peer)
        moved = held is None or due < held
        if moved:
            self._ack_due[peer] = due
        gaps = self._gap_since
        if state.out_of_order:
            if peer not in gaps:
                gaps[peer] = now
                moved = True
        elif gaps and gaps.pop(peer, None) is not None:
            moved = True
        if moved:
            self._rearm_ack_timer(peer)

    def _rearm_ack_timer(self, peer: Address) -> None:
        """Point ``peer``'s timer at the earlier of the held ack's deadline
        and the open gap's report time, or at nothing if there is neither."""
        wake = self._ack_due.get(peer)
        gap = self._gap_since.get(peer)
        if gap is not None:
            gap += self._ack_delay
            if wake is None or gap < wake:
                wake = gap
        timer = self._ack_timers.get(peer)
        if timer is not None:
            if timer[0] == wake:
                return
            timer[1].cancel()
            del self._ack_timers[peer]
        if wake is not None:
            # Raw engine timer, not process.set_timer: acks are armed per
            # inbound burst, and the Timer-object/closure per arm shows up
            # in allocation-heavy runs.  Crash safety is preserved without
            # the process-owned cancel — a fire after crash finds the
            # process dead, and recovery's ``reset`` drops all pending
            # state first.
            self._ack_timers[peer] = (
                wake,
                self._process.env.scheduler.at_call(wake, self._delayed_ack, peer),
            )

    def _delayed_ack(self, peer: Address) -> None:
        """No reverse segment carried the ack in time, or a gap has been
        open for ``rto / 5``: send one standalone cumulative ack covering
        everything pending (and, for a gap, where it ends)."""
        del self._ack_timers[peer]
        pending = self._ack_pending.pop(peer, 0)
        self._ack_due.pop(peer, None)
        gap = self._gap_since.pop(peer, None)
        state = self._recv.get(peer)
        if not self._process.alive or state is None:
            return  # dead, or the peer rebooted meanwhile: that channel is gone
        high = 0
        if gap is not None:
            if self._process.env.now < gap + self._ack_delay:
                # The ack fell due first; the gap is reported on time.
                self._gap_since[peer] = gap
                self._rearm_ack_timer(peer)
            else:
                high = state.high
        # One cumulative ack covers ``pending`` segments; all but the
        # ack actually sent were absorbed into it.  A gap report whose
        # ack has ridden already answers no segment of its own.
        if pending:
            self._process.env.network.stats.acks_piggybacked += pending - 1
        self._process.send(
            peer,
            SegmentAck(
                cum_seq=state.cum_seq,
                incarnation=self._incarnation,
                epoch=state.channel_id[1],
                high=high,
            ),
        )

    def _on_ack(self, ack: SegmentAck, sender: Address) -> None:
        if self._peer_incarnation.get(sender) != ack.incarnation:
            self._note_peer_incarnation(sender, ack.incarnation)
        self._apply_ack(sender, ack.cum_seq, ack.epoch)
        if ack.high:
            state = self._send.get(sender)
            if state is not None and ack.epoch == state.epoch:
                self._retransmit(
                    sender,
                    state.resend_below(
                        ack.high, self._process.env.now, self._incarnation
                    ),
                )

    def _apply_ack(self, peer: Address, cum_seq: int, epoch: int) -> None:
        state = self._send.get(peer)
        if state is not None and epoch == state.epoch and state.unacked:
            state.acknowledge(cum_seq)
            if not state.unacked:
                self._inflight -= 1

    def _note_peer_incarnation(self, peer: Address, incarnation: int) -> None:
        """Detect a rebooted peer: restart our outgoing channel to it so
        unacked traffic is renumbered for its fresh receive state."""
        known = self._peer_incarnation.get(peer)
        if known is None:
            self._peer_incarnation[peer] = incarnation
            return
        if incarnation <= known:
            return
        self._peer_incarnation[peer] = incarnation
        self._recv.pop(peer, None)  # its old outgoing channel died with it
        trace = self._process.env.network.trace
        if trace is not None:
            trace.local(
                "channel-restart", category="transport",
                process=self._process.address, peer=peer,
                incarnation=incarnation,
            )
        state = self._send.get(peer)
        if state is not None:
            now = self._process.env.now
            for payload in state.restart(now):
                segment = state.admit(
                    payload, now, self._incarnation,
                    payload.__class__ in self._lazy,
                )
                self._send_segment(peer, segment)
