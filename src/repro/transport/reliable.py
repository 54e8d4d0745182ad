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

Acks are cumulative and delayed (docs/comms.md): an ack rides on the
next segment to that peer, and only if the reverse direction stays idle
for ``rto / 5`` does one standalone :class:`SegmentAck` go out, covering
everything received in the meantime.  The delay is derived from ``rto``
rather than set, so it is below ``rto`` by construction and a held ack
cannot by itself provoke a retransmission.

Crash recovery is handled with incarnations and channel epochs (see
:mod:`repro.transport.channel`): a recovered process sends under a new
incarnation, receivers discard channel state from its previous life, and
a sender that observes a rebooted receiver restarts the channel in a new
epoch, carrying unacked payloads over — so traffic flows again in both
directions without manual intervention, even when the reboot was too
fast for any failure detector to notice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

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
        # Delayed-ack state: segments received per peer since the last
        # ack (standalone or ridden), and the idle-fallback timer.
        self._ack_pending: Dict[Address, int] = {}
        self._ack_timers: Dict[Address, Any] = {}
        process.on(Segment, self._on_segment)
        process.on(SegmentAck, self._on_ack)
        process.add_recover_listener(self.reset)

    @property
    def _incarnation(self) -> int:
        return self._process.incarnation

    # -- sending ---------------------------------------------------------------

    def send(self, dst: Address, payload: Any) -> None:
        """Reliably send ``payload`` to ``dst`` (FIFO per destination)."""
        state = self._send.setdefault(dst, SendState())
        if not state.unacked:
            self._note_inflight()
        segment = state.admit(payload, self._process.env.now, self._incarnation)
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
        segments = []
        for dst in dst_list:
            state = self._send.setdefault(dst, SendState())
            if not state.unacked:
                self._note_inflight()
            segments.append((dst, state.admit(payload, now, self._incarnation)))
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
        reverse channel on it (docs/comms.md)."""
        pending = self._ack_pending.pop(dst, 0)
        if pending:
            timer = self._ack_timers.pop(dst, None)
            if timer is not None:
                timer.cancel()
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
            payload for payload, _at in state.unacked.values() if keep(payload)
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
        for timer in self._ack_timers.values():
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
        trace = self._process.env.network.trace
        for dst, state in self._send.items():
            # Channels with nothing unacked (the steady-state majority)
            # skip the per-channel sort inside due_for_retransmit.
            if not state.unacked:
                continue
            for segment in state.due_for_retransmit(now, self._rto, self._incarnation):
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
        ready = state.accept(segment)
        self._note_ack_needed(sender)
        for payload in ready:
            self._process.deliver(payload, sender)

    def _note_ack_needed(self, peer: Address) -> None:
        """Queue an ack for ``peer``: it rides on the next outgoing
        segment, or goes standalone after ``rto / 5`` of reverse-path
        idleness.  Nothing but a reboot of either end discards it — a
        peer we abandoned or that a view removed may be alive and needs
        the ack to stop retransmitting."""
        self._ack_pending[peer] = self._ack_pending.get(peer, 0) + 1
        if peer not in self._ack_timers:
            # Raw engine timer, not process.set_timer: acks are armed per
            # inbound segment, and the Timer-object/closure per arm shows
            # up in allocation-heavy runs.  Crash safety is preserved
            # without the process-owned cancel — a fire after crash hits
            # the ``process.send`` alive-guard, and recovery's ``reset``
            # drops all pending state first.
            self._ack_timers[peer] = self._process.env.scheduler.after_call(
                self._ack_delay, self._delayed_ack, peer
            )

    def _delayed_ack(self, peer: Address) -> None:
        """Idle fallback: no reverse segment carried the ack in time, so
        send one standalone cumulative ack covering everything pending."""
        self._ack_timers.pop(peer, None)
        pending = self._ack_pending.pop(peer, 0)
        if not pending or not self._process.alive:
            return
        state = self._recv.get(peer)
        if state is None:
            return  # the peer rebooted meanwhile: that channel is gone
        # One cumulative ack covers ``pending`` segments; all but the
        # ack actually sent were absorbed into it.
        self._process.env.network.stats.acks_piggybacked += pending - 1
        self._process.send(
            peer,
            SegmentAck(
                cum_seq=state.cum_seq,
                incarnation=self._incarnation,
                epoch=state.channel_id[1],
            ),
        )

    def _on_ack(self, ack: SegmentAck, sender: Address) -> None:
        if self._peer_incarnation.get(sender) != ack.incarnation:
            self._note_peer_incarnation(sender, ack.incarnation)
        self._apply_ack(sender, ack.cum_seq, ack.epoch)

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
            pending = state.restart(self._process.env.now)
            for payload in pending:
                segment = state.admit(
                    payload, self._process.env.now, self._incarnation
                )
                self._send_segment(peer, segment)
