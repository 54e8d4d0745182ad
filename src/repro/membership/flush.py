"""The view change as one sans-IO core.

:class:`ViewCore` is a member's state in one group — its view, that
view's ordering engines, stability log and delivered ids, its suspicions
and the membership intentions it coordinates — and the rules that move
it to the next view.  It performs nothing itself: a subclass supplies
the port, reliable ``_send`` / ``_send_many``, best-effort
``_datagram``, ``_emit`` (a delivery for the application),
``_set_flush_timer`` (which calls back ``_flush_timeout``), ``_rewatch``,
``_note`` (a trace span), and ``_installed`` / ``_departed`` (what a
view means outside the group).  A process runs the subclass
:class:`~repro.membership.group.GroupMember`;
``tests/test_flush_enumerated.py`` drives cores through a fake port and
enumerates a flush's interleavings.

**The flush.**  The acting coordinator starts a view change for the
suspicions, leaves and joins it holds, if the primary-partition rule
allows: it sends ``Flush`` to every old-view member it does not suspect,
and each replies ``FlushOk`` with its unstable messages and the abcast
orders it knows.  From its reply on a member is *reported*: it queues its
multicasts and holds old-view data that reaches it — the sequencer stamps
none of it — since the ``NewView``'s merge decides that data.  A target
suspected mid-flush, or silent past the timeout, is dropped; nothing is
re-announced, since a report taken before the drop is as good as a fresh
one.  Once the rest have reported, the initiator merges the reports
(:func:`merge_reports`), sends the merge to the old view and the state
snapshot — taken after delivering the merge itself — to the joiners, and
installs.  Survivors deliver the merge before installing, so they deliver
the same old-view messages: virtual synchrony.  If the drops took the
proposal below quorum it sends ``FlushAbort`` instead, and each reported
member goes back to the view, taking in what it held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.broadcast.abcast import TotalEngine, merge_flush_orders
from repro.broadcast.cbcast import CausalEngine, causal_sort_key
from repro.broadcast.fbcast import FifoEngine
from repro.broadcast.stability import StabilityTracker
from repro.membership.delivered import DeliveredIds
from repro.membership.events import (
    CAUSAL,
    FIFO,
    Flush,
    FlushAbort,
    FlushOk,
    GroupData,
    MessageId,
    NewView,
    ORDERINGS,
    SuspectReport,
    TOTAL,
)
from repro.membership.view import GroupView
from repro.net.message import Address


class NotMemberError(RuntimeError):
    """Operation requires an installed view."""


@dataclass
class FlushRound:
    """One view change at its initiator: who must report (in old-view rank
    order), and what the reports said."""

    target_seq: int
    proposed: List[Address]
    targets: List[Address]
    joiners: List[Address]
    responses: Dict[Address, FlushOk] = field(default_factory=dict)

    def drop(self, address: Address) -> None:
        """A target or joiner is gone: it neither reports nor joins."""
        for members in (self.targets, self.proposed, self.joiners):
            if address in members:
                members.remove(address)
        self.responses.pop(address, None)

    def missing(self) -> List[Address]:
        return [m for m in self.targets if m not in self.responses]


def merge_reports(view: GroupView, reports: Iterable[FlushOk]) -> NewView:
    """The ``NewView`` that installs ``view`` after these reports: the
    union of their unstable messages, deduplicated by id and sorted by
    (sender, seq), and the final total order (see
    :func:`repro.broadcast.abcast.merge_flush_orders`)."""
    reports = list(reports)
    seen: Set[Tuple[int, MessageId]] = set()
    unstable: List[GroupData] = []
    for ok in reports:
        for data in ok.unstable:
            key = (data.view_seq, data.message_id)
            if key not in seen:
                seen.add(key)
                unstable.append(data)
    unstable.sort(key=lambda d: (d.sender, d.sender_seq))
    orders, next_global_seq = merge_flush_orders(
        [(ok.order_known, ok.next_global_seq) for ok in reports],
        [d for d in unstable if d.ordering == TOTAL],
    )
    return NewView(
        view=view, unstable=unstable, orders=orders,
        next_global_seq=next_global_seq,
    )


class ViewCore:
    """One member's state in one group and the rules that change it."""

    primary_partition = False  # see ``_quorate``; a subclass may override

    def __init__(self, me: Address, group: str) -> None:
        self.me = me
        self.group = group
        self.view: Optional[GroupView] = None
        self.left = False
        self.excluded = False
        self._leave_requested = False

        self._engines: Dict[str, Any] = {}
        self._stability: Optional[StabilityTracker] = None
        self._sender_seq = 0
        # View seq -> what this member delivered in it: the current view
        # and the one before.
        self._delivered: Dict[int, DeliveredIds] = {}
        # The initiator this member reported to, while it waits for that
        # flush's NewView or FlushAbort; its own multicasts queue in
        # ``_outbox`` meanwhile.
        self._reported: Optional[Address] = None
        self._outbox: List[Tuple[Any, str]] = []
        # Traffic this member cannot take in yet, as (handler, payload,
        # sender) in arrival order: of a view not installed here, or of
        # this view after its report.  Replayed on install or abort.
        self._future: List[Tuple[Callable[[Any, Address], None], Any, Address]] = []

        self._suspects: Set[Address] = set()
        self._pending_joins: List[Address] = []
        self._pending_leaves: Set[Address] = set()
        self._flush: Optional[FlushRound] = None
        # Called by an initiator with joiners for the snapshot they get.
        self.state_provider: Optional[Callable[[], Any]] = None

        self.view_changes = 0
        self.deliveries = 0

    # ------------------------------------------------------------------ public

    @property
    def is_member(self) -> bool:
        return self.view is not None and not self.left and not self.excluded

    @property
    def members(self) -> Tuple[Address, ...]:
        if self.view is None:
            return ()
        return self.view.members

    def acting_coordinator(self) -> Optional[Address]:
        """Lowest-ranked view member this process does not suspect."""
        if self.view is None:
            return None
        for member in self.view.members:
            if member not in self._suspects:
                return member
        return None

    @property
    def is_coordinator(self) -> bool:
        """In its view and its own acting coordinator: every coordinator's
        rule, which moves with a suspicion, before any view change."""
        return self.is_member and self.acting_coordinator() == self.me

    def multicast(self, payload: Any, ordering: int = FIFO) -> None:
        """Multicast ``payload`` to the group with the given ordering.

        During a view change (flush) the send is queued and goes out in
        the next view — exactly ISIS's behaviour of blocking new
        multicasts while a flush is in progress.
        """
        if ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}")
        if not self.is_member:
            raise NotMemberError(f"{self.me} is not a member of {self.group}")
        if self._reported is not None:
            self._outbox.append((payload, ordering))
            return
        self._send_data(payload, ordering)

    # ------------------------------------------------------------- data plane

    def _send_data(self, payload: Any, ordering: int) -> None:
        view = self.view
        assert view is not None
        self._sender_seq += 1
        data = GroupData(
            group=self.group,
            view_seq=view.seq,
            sender=self.me,
            sender_seq=self._sender_seq,
            ordering=ordering,
            payload=payload,
        )
        engine = self._engines[ordering]
        engine.stamp_outgoing(data)
        self._stability.record(data)
        if ordering == TOTAL and data.global_seq is None:
            # Relayed: the sequencer stamps it and sends it on, back to
            # this member too, which holds its own copy until then.
            self._send(view.coordinator, data)
            engine.admit(data)
            return
        others = view.others(self.me)
        if others:
            self._send_many(others, data)
        # ISIS delivers a process's own fbcast/cbcast locally at send; the
        # sequencer's stamp makes its own abcast deliverable now.
        if ordering != TOTAL or engine.admit(data):
            self._deliver(data)

    def _on_data(self, data: GroupData, sender: Address) -> None:
        if self.left or self.excluded:
            return
        view = self.view
        if view is not None and data.view_seq < view.seq:
            return  # old view: reconciled by that view's flush
        if view is None or data.view_seq > view.seq or self._reported is not None:
            # Joining, or the sender installed the next view first; or
            # this member has reported, and the merge decides the data:
            # delivered here, it could be a message no report carries.
            self._future.append((self._on_data, data, sender))
            return
        delivered = self._delivered[data.view_seq]
        if (
            data.sender_seq <= delivered.floor.get(data.sender, 0)
            or data.message_id in delivered.above
        ):
            return
        self._stability.record(data)
        engine = self._engines[data.ordering]
        if data.ordering != TOTAL:
            for each in engine.on_receive(data):
                self._deliver(each)
            return
        if data.global_seq is None:
            # Another member's abcast, relayed to this member, the
            # sequencer: a copy stamped with the next position goes to
            # every other member, the originator included.
            engine.admit(data)
            data = engine.stamp(data)
            self._send_many(view.others(self.me), data)
        if engine.admit(data):
            self._deliver(data)

    def _deliver(self, data: GroupData) -> None:
        delivered = self._delivered.get(data.view_seq)
        if delivered is None:
            return
        floor = delivered.floor
        watermark = floor.get(data.sender, 0)
        seq = data.sender_seq
        if seq <= watermark or data.message_id in delivered.above:
            return
        if seq == watermark + 1 and not delivered.above:
            floor[data.sender] = seq
        else:
            delivered.add(data.message_id)
        self.deliveries += 1
        self._emit(data)

    # --------------------------------------------------------- membership plane

    def _on_suspect(self, address: Address) -> None:
        if not self.is_member or not self.view.contains(address):
            return
        if address == self.me or address in self._suspects:
            return
        reported_to = self.acting_coordinator()
        self._suspects.add(address)
        self._rewatch()
        self._note("suspect", suspect=address)
        if self._flush is not None:
            self._flush.drop(address)
            self._try_complete()
            return
        # Whoever takes over from a suspected coordinator monitors its own
        # predecessor only, so it is told everything this member knows.
        self._report(
            sorted(self._suspects) if address == reported_to else [address]
        )

    def _report(self, suspects: List[Address]) -> None:
        """Bring ``suspects`` to the acting coordinator: start the view
        change if that is this member, send it reports otherwise."""
        coordinator = self.acting_coordinator()
        if coordinator == self.me:
            self._maybe_start_view_change()
        elif coordinator is not None:
            for suspect in suspects:
                self._send(
                    coordinator, SuspectReport(group=self.group, suspect=suspect)
                )

    def _on_suspect_report(self, report: SuspectReport, sender: Address) -> None:
        # A member that was removed without learning of it (partitioned
        # away when the view changed) still reports on its old view.
        if self.view is not None and self.view.contains(sender):
            self._on_suspect(report.suspect)

    # ------------------------------------------------------------- the flush

    def _quorate(self, proposed: List[Address]) -> bool:
        """Primary-partition check (paper §5, "coping with network
        partitions"): a view change may only proceed when a strict
        majority of the current view survives into the next one.  In a
        partition, heartbeat detectors make each island suspect the
        other; only the majority island can pass this check, so exactly
        one partition continues — the minority stalls instead of forming
        a divergent view (no split brain)."""
        if not self.primary_partition:
            return True
        survivors = [m for m in proposed if self.view.contains(m)]
        return 2 * len(survivors) > self.view.size

    def _maybe_start_view_change(self) -> None:
        if self._flush is not None or not self.is_coordinator:
            return
        view = self.view
        removes = [
            m for m in view.members
            if m in self._suspects or m in self._pending_leaves
        ]
        adds = [
            j for j in self._pending_joins
            if not view.contains(j) and j not in self._suspects
        ]
        if not removes and not adds:
            return
        proposed = list(view.successor(add=adds, remove=removes).members)
        if not self._quorate(proposed):
            return  # the minority side stalls
        targets = [m for m in view.members if m not in self._suspects]
        flush = self._flush = FlushRound(view.seq + 1, proposed, targets, adds)
        self._note(
            "flush-start", target_seq=flush.target_seq, proposed=len(proposed)
        )
        others = [m for m in targets if m != self.me]
        if others:
            self._send_many(
                others,
                Flush(group=self.group, target_seq=flush.target_seq, initiator=self.me),
            )
        flush.responses[self.me] = self._flush_ok(self.me, flush.target_seq)
        self._set_flush_timer(True)
        self._try_complete()

    def _flush_ok(self, initiator: Address, target_seq: int) -> FlushOk:
        """This member's report to ``initiator``; it is reported from now
        on (see ``multicast`` and ``_on_data``)."""
        self._reported = initiator
        engine: TotalEngine = self._engines[TOTAL]
        return FlushOk(
            group=self.group,
            target_seq=target_seq,
            unstable=self._stability.unstable(),
            order_known=engine.known_orders(),
            next_global_seq=engine.next_global_seq,
        )

    def _on_flush(self, flush: Flush, sender: Address) -> None:
        if not self.is_member or flush.target_seq <= self.view.seq:
            return  # stale
        self._send(flush.initiator, self._flush_ok(flush.initiator, flush.target_seq))

    def _on_flush_ok(self, ok: FlushOk, sender: Address) -> None:
        flush = self._flush
        if flush and ok.target_seq == flush.target_seq and sender in flush.targets:
            flush.responses[sender] = ok
            self._try_complete()

    def _flush_timeout(self) -> None:
        flush = self._flush
        if flush is None:
            return
        missing = flush.missing()
        if not missing:
            return
        self._note("flush-timeout", missing=len(missing))
        # Unresponsive members are treated as failed (fail-stop conversion).
        for address in missing:
            self._suspects.add(address)
            flush.drop(address)
        self._rewatch()
        self._try_complete()

    def _try_complete(self) -> None:
        flush = self._flush
        if flush is None or flush.missing():
            return
        self._flush = None
        self._set_flush_timer(False)
        if not flush.proposed:
            return  # everyone is gone; nothing to install
        view = self.view
        if not self._quorate(flush.proposed):
            # Mid-flush drops took us below quorum: abandon the view
            # change rather than install a minority view, and say so.
            abort = FlushAbort(group=self.group, target_seq=flush.target_seq)
            others = view.others(self.me)
            self._send_many([m for m in others if m not in self._suspects], abort)
            for address in others:
                if address in self._suspects:
                    self._datagram(address, abort)
            self._on_flush_abort(abort, self.me)
            return
        message = merge_reports(
            GroupView(self.group, flush.target_seq, tuple(flush.proposed)),
            flush.responses.values(),
        )
        new_view = message.view
        # The old view's members get what finishes it; a joiner, which has
        # no old view, gets the state snapshot instead.  Both copies go out
        # in address order, the order one shared copy took, so splitting it
        # moves no latency draw.
        joiner_copy = None
        if flush.joiners:
            app_state = None
            if self.state_provider is not None:
                # The snapshot must hold what the old view delivers last:
                # deliver it here first (installing the view will not
                # deliver anything twice).
                self._deliver_flush_set(message)
                app_state = self.state_provider()
            joiner_copy = NewView(
                view=new_view, next_global_seq=message.next_global_seq,
                app_state=app_state,
            )
        recipients = set(new_view.members) | set(flush.targets)
        recipients.discard(self.me)
        is_joiner = flush.joiners.__contains__
        for to_joiners, run in groupby(sorted(recipients), key=is_joiner):
            self._send_many(list(run), joiner_copy if to_joiners else message)
        # Excluded old-view members are told too, but best-effort (one
        # unreliable datagram): a falsely suspected, still-live process
        # learns of its exclusion and can rejoin, while a genuinely dead
        # one costs a single dropped packet instead of a retransmission
        # stream that would never be acknowledged.
        for address in sorted(set(view.members) - recipients - {self.me}):
            self._datagram(address, message)
        self._on_new_view(message, self.me)

    def _on_flush_abort(self, abort: FlushAbort, sender: Address) -> None:
        """The flush this member reported to was abandoned: back to the
        view.  What arrived meanwhile is taken in now — delivered, and
        at the sequencer stamped — and queued multicasts go out."""
        if sender != self._reported or abort.target_seq != self.view.seq + 1:
            return
        self._reported = None
        self._release()

    def _on_new_view(self, message: NewView, sender: Address) -> None:
        if self.left:
            return
        new_view = message.view
        if self.view is not None and new_view.seq <= self.view.seq:
            return
        was_previous_member = (
            self.view is not None
            and self.view.contains(self.me)
            and new_view.seq == self.view.seq + 1
        )
        if not new_view.contains(self.me):
            if self.view is None:
                # Still joining: a view that predates our admission (e.g.
                # a stale retransmission from before a recovery) is not an
                # exclusion — our own admission view is still coming.
                return
            # Graceful departure or exclusion by false suspicion.
            if was_previous_member:
                self._deliver_flush_set(message)
            if self._leave_requested:
                self.left = True
            else:
                self.excluded = True
            self._departed(new_view)
            return
        if was_previous_member:
            self._deliver_flush_set(message)
        # Being in the new view re-admits us even if an earlier view
        # excluded this member (false suspicion followed by a rejoin).
        self.excluded = False
        self._install(message)

    def _deliver_flush_set(self, message: NewView) -> None:
        """Deliver the reconciled old-view messages (virtual synchrony)."""
        fifo = [d for d in message.unstable if d.ordering == FIFO]
        causal = [d for d in message.unstable if d.ordering == CAUSAL]
        total = {d.message_id: d for d in message.unstable if d.ordering == TOTAL}
        for data in sorted(fifo, key=lambda d: (d.sender, d.sender_seq)):
            self._deliver(data)
        for data in sorted(causal, key=causal_sort_key):
            self._deliver(data)
        for held in self._engines[TOTAL].held():
            total.setdefault(held.message_id, held)
        for _global_seq, message_id in message.orders:
            data = total.get(message_id)
            if data is not None:
                self._deliver(data)

    def _install(self, message: NewView) -> None:
        old_view = self.view
        new_view = message.view
        self._note("view-install", seq=new_view.seq, size=new_view.size)
        self.view = new_view
        self.view_changes += 1
        self._sender_seq = 0
        self._delivered[new_view.seq] = DeliveredIds()
        for seq in [s for s in self._delivered if s < new_view.seq - 1]:
            del self._delivered[seq]
        self._engines = {
            FIFO: FifoEngine(new_view, self.me),
            CAUSAL: CausalEngine(new_view, self.me),
            TOTAL: TotalEngine(new_view, self.me, message.next_global_seq),
        }
        self._stability = StabilityTracker(
            self.me, new_view.members, ordered=message.next_global_seq - 1
        )
        self._reported = None
        self._flush = None
        self._set_flush_timer(False)
        # Satisfied or void membership intentions go; suspicions follow
        # the view.
        self._suspects &= set(new_view.members)
        self._pending_joins = [
            j for j in self._pending_joins if not new_view.contains(j)
        ]
        self._pending_leaves &= set(new_view.members)
        self._installed(old_view, message)

        # The old view's held data is dropped now: the merge carried it.
        self._release()

        # Suspicions that outlived the view change (reported, perhaps, to
        # a coordinator that died with them) go to the new coordinator.
        self._report(sorted(self._suspects))

    def _release(self) -> None:
        """Replay held traffic (what still is not for this view is held
        again), then send the queued multicasts."""
        future, self._future = self._future, []
        for handler, payload, sender in future:
            handler(payload, sender)
        outbox, self._outbox = self._outbox, []
        for payload, ordering in outbox:
            if self.is_member:
                self._send_data(payload, ordering)
