"""Virtually synchronous process groups ("small groups" in the paper, §2).

This is the re-implementation of the core ISIS abstraction: a process
group with totally ordered membership *views*, ordered multicast within a
view (fifo / causal / total), and the virtual-synchrony guarantee that all
members surviving from view ``i`` to view ``i+1`` deliver exactly the same
set of view-``i`` messages before installing view ``i+1``.

Layering at each process::

    application / toolkit
        GroupMember (one per group) ---- GroupRuntime (one per process)
        ordering engines + stability       |  routes payloads by group
    ReliableTransport (FIFO channels)   ---+
    Network (lossy datagrams)

View changes use the coordinator-driven flush of :mod:`repro.membership.
flush`.  Failures come from a pluggable failure detector; suspicion is
converted to membership exclusion, the classical ISIS fail-stop
conversion.

This is the *flat* implementation: a multicast reaches every member and
every view change touches everyone, so those costs grow with group size,
and the paper's contribution (bounding them with hierarchy) is built on
top in :mod:`repro.core`.  The two *background* planes, however, cost a
member the same whatever the size of its group (docs/comms.md):

* failure monitoring is a ring — a member watches its
  :data:`MONITOR_K` nearest rank-predecessors that it does not suspect,
  each of which pushes it one heartbeat a tick that nobody answers
  (:mod:`repro.failure.detector`), and reports a suspicion to the acting
  coordinator; a member a view removes is dropped from the push lists of
  the members that stay;
* stability is agreed through the coordinator and quiescent — a member
  reports the watermarks that moved since its last report to
  ``view.coordinator`` alone, and the coordinator announces the floors
  that moved; nobody sends anything while nothing is delivered.

An abcast carries its global order on its data, stamped by the sequencer
(rank 0, also the coordinator of a coordinator–cohort service).  From the
sequencer it is one message per receiver; from any other member it goes
to the sequencer alone, which stamps a copy and sends it to everyone else,
the originator included: one more message, one more hop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.broadcast.abcast import TotalEngine
from repro.broadcast.cbcast import CausalEngine, causal_sort_key
from repro.broadcast.fbcast import FifoEngine
from repro.broadcast.stability import StabilityTracker
from repro.failure.detector import FailureDetector, OracleDetector
from repro.membership.events import (
    CAUSAL,
    DeliveryEvent,
    FIFO,
    Flush,
    FlushOk,
    GroupData,
    JoinRequest,
    LeaveRequest,
    MessageId,
    NewView,
    ORDERINGS,
    StabilityGossip,
    SuspectReport,
    TOTAL,
    ViewEvent,
)
from repro.membership.flush import FlushController
from repro.membership.view import GroupView
from repro.net.message import Address
from repro.proc.process import Process
from repro.proc.rpc import Rpc, RpcError
from repro.transport.reliable import ReliableTransport

MONITOR_K = 3
"""How many rank-predecessors each member monitors: a member is reported
unless it and its ``MONITOR_K`` successors fail within one detection
period (and even then, one period later — see ``GroupMember._rewatch``).
Matches the ``resiliency`` every hierarchy in the repo runs with; groups
of up to ``MONITOR_K + 1`` members are monitored all-to-all.  It is also
what monitoring costs a member per tick: ``MONITOR_K`` heartbeats out to
the successors that watch it, for as long as they keep renewing
(``repro.failure.detector.LEASE_TICKS`` / ``RENEW_TICKS``)."""

DeliveryListener = Callable[[DeliveryEvent], None]
ViewListener = Callable[[ViewEvent], None]


class NotMemberError(RuntimeError):
    """Operation requires an installed view."""


class GroupMember:
    """One process's endpoint in one group.  Created via GroupRuntime."""

    def __init__(self, runtime: "GroupRuntime", group: str) -> None:
        self.runtime = runtime
        self.group = group
        self.me: Address = runtime.process.address
        self.view: Optional[GroupView] = None
        self.joining = False
        self.left = False
        self.excluded = False

        self._engines: Dict[str, Any] = {}
        self._stability: Optional[StabilityTracker] = None
        self._sender_seq = 0
        self._delivered: Dict[int, Set[MessageId]] = {}
        self._blocked = False
        self._outbox: List[Tuple[Any, str]] = []
        # Traffic of a view not installed here yet, as (handler, payload,
        # sender) in arrival order; replayed by ``_install``.
        self._future: List[Tuple[Callable[[Any, Address], None], Any, Address]] = []

        self._suspects: Set[Address] = set()
        self._watching: Set[Address] = set()
        self._pending_joins: List[Address] = []
        self._pending_leaves: Set[Address] = set()
        self._leave_requested = False
        self._flush: Optional[FlushController] = None
        self._flush_timer = None
        self._join_contact: Optional[Address] = None
        self._join_timer = None

        self._delivery_listeners: List[DeliveryListener] = []
        self._view_listeners: List[ViewListener] = []
        self.state_provider: Optional[Callable[[], Any]] = None
        self.state_receiver: Optional[Callable[[Any], None]] = None

        self.view_changes = 0
        self.deliveries = 0

    # ------------------------------------------------------------------ public

    def add_delivery_listener(self, fn: DeliveryListener) -> None:
        self._delivery_listeners.append(fn)

    def add_view_listener(self, fn: ViewListener) -> None:
        self._view_listeners.append(fn)

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

    def multicast(self, payload: Any, ordering: str = FIFO) -> None:
        """Multicast ``payload`` to the group with the given ordering.

        During a view change (flush) the send is queued and goes out in
        the next view — exactly ISIS's behaviour of blocking new
        multicasts while a flush is in progress.
        """
        if ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}")
        if not self.is_member:
            raise NotMemberError(f"{self.me} is not a member of {self.group}")
        if self._blocked:
            self._outbox.append((payload, ordering))
            return
        self._send_data(payload, ordering)

    def leave(self) -> None:
        """Request a graceful departure via the acting coordinator."""
        if not self.is_member:
            raise NotMemberError(f"{self.me} is not a member of {self.group}")
        self._leave_requested = True
        coordinator = self.acting_coordinator()
        if coordinator == self.me:
            self._pending_leaves.add(self.me)
            self._maybe_start_view_change()
        else:
            self.runtime.rpc.call(
                coordinator,
                LeaveRequest(group=self.group, leaver=self.me),
                on_reply=lambda value, sender: None,
                timeout=2.0,
                on_timeout=self._retry_leave,
            )

    def _retry_leave(self) -> None:
        if self.is_member and self._leave_requested:
            self.leave()

    def mark_departing(self) -> None:
        """Declare that this member expects to be removed by the
        coordinator (e.g. a hierarchy split); its exclusion from the next
        view then finalises as a graceful departure, not a fault."""
        self._leave_requested = True

    def request_removal(self, addresses) -> None:
        """Coordinator-side batch removal: queue ``addresses`` for the next
        view change (used by hierarchy splits)."""
        for address in addresses:
            if self.view is not None and self.view.contains(address):
                self._pending_leaves.add(address)
        self._maybe_start_view_change()

    # ------------------------------------------------------- lifecycle (internal)

    def _bootstrap(self, members: Tuple[Address, ...]) -> None:
        """Install the initial view directly (static group construction)."""
        self._install(
            NewView(view=GroupView.initial(self.group, members)),
            deliver_flushed=False,
        )

    def _start_join(self, contact: Address, retry: float) -> None:
        self.joining = True
        self._join_contact = contact
        self._send_join(contact, retry)

    def _end_join(self) -> None:
        """Admitted, or given up on (``GroupRuntime.forget_group``): stop
        asking.  The RPC in flight finds ``joining`` cleared and does not
        re-arm."""
        self.joining = False
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None

    def _send_join(self, contact: Address, retry: float) -> None:
        if not self.joining or not self.runtime.process.alive:
            return
        self.runtime.rpc.call(
            contact,
            JoinRequest(group=self.group, joiner=self.me),
            on_reply=lambda value, sender: self._join_reply(value, retry),
            timeout=retry,
            on_timeout=lambda: self._send_join(self._join_contact, retry),
        )

    def _join_reply(self, value: Any, retry: float) -> None:
        if not self.joining:
            return
        if isinstance(value, tuple) and value and value[0] == "redirect":
            self._join_contact = value[1]
            self._send_join(self._join_contact, retry)
        # "pending": NewView will arrive; the retry timer in _send_join's
        # timeout path has been satisfied by this reply, so arm another
        # guard in case the coordinator dies before installing us.
        elif isinstance(value, tuple) and value and value[0] == "pending":
            self._join_timer = self.runtime.process.set_timer(
                4 * retry, lambda: self._send_join(self._join_contact, retry)
            )
        elif value is None:
            # Contact answered but has no such group (yet) — e.g. a leaf
            # that is still being created.  Back off and retry.
            self._join_timer = self.runtime.process.set_timer(
                retry, lambda: self._send_join(self._join_contact, retry)
            )

    # ------------------------------------------------------------- data plane

    def _send_data(self, payload: Any, ordering: str) -> None:
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
            self.runtime.transport.send(view.coordinator, data)
            engine.on_receive(data)
            return
        others = view.others(self.me)
        if others:
            self.runtime.transport.send_many(others, data)
        if ordering in (FIFO, CAUSAL):
            # ISIS delivers a process's own fbcast/cbcast locally at send.
            self._deliver(data)
        else:
            # The sequencer's stamp makes its own abcast deliverable now.
            for each in engine.on_receive(data):
                self._deliver(each)

    def _stamp_and_forward(self, data: GroupData, engine: TotalEngine) -> None:
        """At the sequencer, for another member's abcast relayed to it:
        send a copy stamped with the next position to every other member,
        the originator included, and deliver it here — but not during a
        flush.  This member's flush reply has already reported every order
        it assigned, and the view change positions flushed data nobody
        ordered after those; an order given now would be missing from that
        merge and could contradict it (a retransmitted abcast can reach the
        sequencer after its reply)."""
        if self._blocked:
            return
        stamped = engine.stamp(data)
        self.runtime.transport.send_many(self.view.others(self.me), stamped)
        for each in engine.on_receive(stamped):
            self._deliver(each)

    def _on_data(self, data: GroupData, sender: Address) -> None:
        if self.left or self.excluded:
            return
        if self.view is None or data.view_seq > self.view.seq:
            # joining, or the sender installed the next view first
            self._future.append((self._on_data, data, sender))
            return
        if data.view_seq < self.view.seq:
            return  # old view: reconciled by that view's flush
        if data.message_id in self._delivered[self.view.seq]:
            return
        self._stability.record(data)
        engine = self._engines[data.ordering]
        ready = engine.on_receive(data)
        if data.global_seq is None and data.ordering == TOTAL:
            self._stamp_and_forward(data, engine)  # only the sequencer gets these
        for each in ready:
            self._deliver(each)

    def _on_gossip(self, gossip: StabilityGossip, sender: Address) -> None:
        view = self.view
        if view is None or gossip.view_seq < view.seq:
            return
        if gossip.view_seq > view.seq:
            # A report is a delta and is not repeated, so one that outruns
            # this member's install of the view it coordinates must wait.
            self._future.append((self._on_gossip, gossip, sender))
        elif view.coordinator == self.me:
            self._stability.on_report(sender, gossip.delivered, gossip.ordered)
        elif sender == view.coordinator:
            self._stability.on_floors(gossip.delivered, gossip.ordered)
            self._engines[TOTAL].forget_orders(self._stability.ordered_floor)

    def _gossip_tick(self) -> None:
        """One round of the stability plane (docs/comms.md): everyone but
        the coordinator reports what moved to it, the coordinator announces
        the floors that moved to everyone else.  Channels are reliable and
        FIFO, so what was sent once in this view need never be repeated:
        an idle group sends nothing in either direction."""
        if not self.is_member or self._blocked or self.view is None:
            return
        view = self.view
        engine: TotalEngine = self._engines[TOTAL]
        if view.coordinator == self.me:
            moved = self._stability.take_floors(engine.delivered_through)
            engine.forget_orders(self._stability.ordered_floor)
            targets = view.others(self.me)
        else:
            moved = self._stability.take_report(engine.delivered_through)
            targets = (view.coordinator,)
        if moved is None or not targets:
            return
        delivered, ordered = moved
        self.runtime.transport.send_many(
            targets,
            StabilityGossip(
                group=self.group,
                view_seq=view.seq,
                delivered=delivered,
                ordered=ordered,
            ),
        )

    def _deliver(self, data: GroupData) -> None:
        delivered = self._delivered[data.view_seq] if data.view_seq in self._delivered else None
        if delivered is None:
            return
        if data.message_id in delivered:
            return
        delivered.add(data.message_id)
        self.deliveries += 1
        event = DeliveryEvent(
            group=self.group,
            view_seq=data.view_seq,
            sender=data.sender,
            payload=data.payload,
            ordering=data.ordering,
        )
        for listener in list(self._delivery_listeners):
            listener(event)

    # --------------------------------------------------------- membership plane

    def _on_suspect(self, address: Address) -> None:
        if not self.is_member or not self.view.contains(address):
            return
        if address == self.me or address in self._suspects:
            return
        reported_to = self.acting_coordinator()
        self._suspects.add(address)
        self._rewatch()
        trace = self.runtime.process.env.network.trace
        if trace is not None:
            trace.local(
                "suspect", category="membership", process=self.me,
                group=self.group, suspect=address,
            )
        if self._flush is not None:
            # Mid-flush failure: drop it from the proposal and re-flush.
            if self._flush.drop_member(address):
                self._flush.attempt += 1
                self._broadcast_flush()
                self._check_flush_complete()
            return
        # Whoever takes over from a suspected coordinator monitors its own
        # predecessors only, so it is told everything this member knows.
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
                self.runtime.transport.send(
                    coordinator, SuspectReport(group=self.group, suspect=suspect)
                )

    def _rewatch(self) -> None:
        """Point failure detection at the ``MONITOR_K`` nearest
        rank-predecessors (the ring wraps) this member does not suspect.

        Every member is thus watched by its K successors, and rank 1
        watches the coordinator itself.  Skipping suspects is what makes
        the ring *complete*: when a member and all K of its watchers die
        together, the next live successor suspects those watchers, its
        watch set moves past them onto the member nobody was left to
        report, and so on round the ring until a live member is reached.
        """
        members = self.view.members
        rank = self.view.rank_of(self.me)
        wanted: Set[Address] = set()
        for step in range(1, len(members)):
            candidate = members[rank - step]
            if candidate not in self._suspects:
                wanted.add(candidate)
                if len(wanted) == MONITOR_K:
                    break
        for address in sorted(self._watching - wanted):
            self.runtime.unwatch(address, self.group)
        for address in members:
            if address in wanted and address not in self._watching:
                self.runtime.watch(address, self.group)
        self._watching = wanted

    def _on_suspect_report(self, report: SuspectReport, sender: Address) -> None:
        # A member that was removed without learning of it (partitioned
        # away when the view changed) still reports on its old view.
        if self.view is not None and self.view.contains(sender):
            self._on_suspect(report.suspect)

    def _handle_join_request(self, request: JoinRequest, sender: Address) -> Any:
        if not self.is_member:
            raise RpcError(f"{self.me} not in group {request.group}")
        coordinator = self.acting_coordinator()
        if coordinator != self.me:
            return ("redirect", coordinator)
        if self.view.contains(request.joiner):
            return ("member",)
        if request.joiner not in self._pending_joins:
            self._pending_joins.append(request.joiner)
        self._maybe_start_view_change()
        return ("pending",)

    def _handle_leave_request(self, request: LeaveRequest, sender: Address) -> Any:
        if not self.is_member:
            raise RpcError(f"{self.me} not in group {request.group}")
        coordinator = self.acting_coordinator()
        if coordinator != self.me:
            return ("redirect", coordinator)
        if self.view.contains(request.leaver):
            self._pending_leaves.add(request.leaver)
            self._maybe_start_view_change()
        return ("pending",)

    def _maybe_start_view_change(self) -> None:
        if self.view is None or self._flush is not None or not self.is_member:
            return
        if self.acting_coordinator() != self.me:
            return
        removes = [
            m
            for m in self.view.members
            if m in self._suspects or m in self._pending_leaves
        ]
        adds = [
            j
            for j in self._pending_joins
            if not self.view.contains(j) and j not in self._suspects
        ]
        if not removes and not adds:
            return
        if not self._quorum_holds(removes):
            return  # primary-partition rule: the minority side stalls
        proposed = list(self.view.successor(add=adds, remove=removes).members)
        targets = [m for m in self.view.members if m not in self._suspects]
        self._flush = FlushController(
            target_seq=self.view.seq + 1,
            proposed=proposed,
            targets=targets,
            joiners=adds,
        )
        self._flush.started_at = self.runtime.process.env.now
        trace = self.runtime.process.env.network.trace
        if trace is not None:
            trace.local(
                "flush-start", category="membership", process=self.me,
                group=self.group, target_seq=self._flush.target_seq,
                proposed=len(proposed),
            )
        self._broadcast_flush()
        self._arm_flush_timer()
        self._check_flush_complete()

    def _quorum_holds(self, removes) -> bool:
        """Primary-partition check (paper §5, "coping with network
        partitions"): a view change may only proceed when a strict
        majority of the current view survives into the next one.  In a
        partition, heartbeat detectors make each island suspect the
        other; only the majority island can pass this check, so exactly
        one partition continues — the minority stalls instead of forming
        a divergent view (no split brain)."""
        if not self.runtime.primary_partition:
            return True
        survivors = self.view.size - len(removes)
        return 2 * survivors > self.view.size

    def _broadcast_flush(self) -> None:
        flush = self._flush
        assert flush is not None and self.view is not None
        message = Flush(
            group=self.group,
            target_seq=flush.target_seq,
            initiator=self.me,
            proposed=tuple(flush.proposed),
        )
        others = [t for t in flush.targets if t != self.me]
        if others:
            self.runtime.transport.send_many(others, message)
        if self.me in flush.targets:
            self._blocked = True
            flush.record_response(self.me, self._make_flush_ok(flush.target_seq))

    def _arm_flush_timer(self) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
        self._flush_timer = self.runtime.process.set_timer(
            self.runtime.flush_timeout, self._flush_timeout_fired
        )

    def _flush_timeout_fired(self) -> None:
        if self._flush is None:
            return
        missing = list(self._flush.missing())
        if not missing:
            return
        trace = self.runtime.process.env.network.trace
        if trace is not None:
            trace.local(
                "flush-timeout", category="membership", process=self.me,
                group=self.group, missing=len(missing),
            )
        # Unresponsive members are treated as failed (fail-stop conversion).
        for address in missing:
            self._suspects.add(address)
            self._flush.drop_member(address)
        self._rewatch()
        self._flush.attempt += 1
        self._broadcast_flush()
        self._arm_flush_timer()
        self._check_flush_complete()

    def _make_flush_ok(self, target_seq: int) -> FlushOk:
        total_engine: TotalEngine = self._engines[TOTAL]
        return FlushOk(
            group=self.group,
            target_seq=target_seq,
            unstable=self._stability.unstable(),
            order_known=total_engine.known_orders(),
            next_global_seq=total_engine.next_global_seq,
        )

    def _on_flush(self, flush: Flush, sender: Address) -> None:
        if self.left or self.excluded or self.view is None:
            return
        if flush.target_seq <= self.view.seq:
            return  # stale
        # Block new multicasts and report unstable state to the initiator.
        self._blocked = True
        self.runtime.transport.send(
            flush.initiator, self._make_flush_ok(flush.target_seq)
        )

    def _on_flush_ok(self, ok: FlushOk, sender: Address) -> None:
        if self._flush is None or ok.target_seq != self._flush.target_seq:
            return
        self._flush.record_response(sender, ok)
        self._check_flush_complete()

    def _check_flush_complete(self) -> None:
        flush = self._flush
        if flush is None or not flush.complete:
            return
        self._flush = None
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if not flush.proposed:
            return  # everyone is gone; nothing to install
        if self.runtime.primary_partition and self.view is not None:
            old_survivors = [
                m for m in flush.proposed if self.view.contains(m)
            ]
            if 2 * len(old_survivors) <= self.view.size:
                # Mid-flush drops took us below quorum: abandon the view
                # change rather than install a minority view.  No merge
                # will place what reached the sequencer meanwhile, so it
                # stamps and forwards that now.
                self._blocked = False
                engine: TotalEngine = self._engines[TOTAL]
                if engine.is_sequencer:
                    for data in engine.held():
                        self._stamp_and_forward(data, engine)
                return
        unstable = flush.merged_unstable()
        orders, next_global_seq = flush.merged_orders()
        app_state = None
        if flush.joiners and self.state_provider is not None:
            app_state = self.state_provider()
        new_view = GroupView(self.group, flush.target_seq, tuple(flush.proposed))
        message = NewView(
            view=new_view,
            unstable=unstable,
            orders=orders,
            next_global_seq=next_global_seq,
            app_state=app_state,
        )
        recipients = set(new_view.members) | set(flush.targets)
        recipients.discard(self.me)
        if recipients:
            self.runtime.transport.send_many(sorted(recipients), message)
        # Excluded old-view members are told too, but best-effort (one
        # unreliable datagram): a falsely suspected, still-live process
        # learns of its exclusion and can rejoin, while a genuinely dead
        # one costs a single dropped packet instead of a retransmission
        # stream that would never be acknowledged.
        if self.view is not None:
            excluded = set(self.view.members) - recipients - {self.me}
            for address in sorted(excluded):
                self.runtime.process.send(address, message)
        self._on_new_view(message, self.me)

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
            self._teardown_watches()
            self._emit_view_event(new_view, departed_self=True)
            return
        if was_previous_member:
            self._deliver_flush_set(message)
        # Being in the new view re-admits us even if an earlier view
        # excluded this member (false suspicion followed by a rejoin).
        self.excluded = False
        self._install(message, deliver_flushed=False)

    def _deliver_flush_set(self, message: NewView) -> None:
        """Deliver the reconciled old-view messages (virtual synchrony)."""
        fifo = [d for d in message.unstable if d.ordering == FIFO]
        causal = [d for d in message.unstable if d.ordering == CAUSAL]
        total = {d.message_id: d for d in message.unstable if d.ordering == TOTAL}
        for data in sorted(fifo, key=lambda d: (d.sender, d.sender_seq)):
            self._deliver(data)
        for data in sorted(causal, key=causal_sort_key):
            self._deliver(data)
        engine: Optional[TotalEngine] = self._engines.get(TOTAL)
        if engine is not None:
            for held in engine.held():
                total.setdefault(held.message_id, held)
        for _global_seq, message_id in message.orders:
            data = total.get(message_id)
            if data is not None:
                self._deliver(data)

    def _install(self, message: NewView, deliver_flushed: bool) -> None:
        old_view = self.view
        new_view = message.view
        trace = self.runtime.process.env.network.trace
        if trace is not None:
            trace.local(
                "view-install", category="membership", process=self.me,
                group=self.group, seq=new_view.seq, size=new_view.size,
            )
        self.view = new_view
        self.view_changes += 1
        self._sender_seq = 0
        self._delivered[new_view.seq] = set()
        for seq in [s for s in self._delivered if s < new_view.seq - 1]:
            del self._delivered[seq]
        self._engines = {
            FIFO: FifoEngine(new_view, self.me),
            CAUSAL: CausalEngine(new_view, self.me),
            TOTAL: TotalEngine(new_view, self.me, message.next_global_seq),
        }
        for engine in self._engines.values():
            engine.network = self.runtime.process.env.network
        self._stability = StabilityTracker(
            self.me, new_view.members, ordered=message.next_global_seq - 1
        )
        self._blocked = False
        self._flush = None
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if self.joining:
            self._end_join()
            if self.state_receiver is not None and message.app_state is not None:
                self.state_receiver(message.app_state)

        # Only the members that watched a departed one ever suspected it;
        # everybody else stops retransmitting to it here.  It may be alive
        # (false suspicion, graceful leave, leaf move), so the channel is
        # abandoned, not forgotten, and the one message of this group it
        # still needs — the view that removes it — is carried over.
        def still_wanted(payload: Any) -> bool:
            return (
                payload is message
                or getattr(payload, "group", None) != self.group
            )

        old_members = set(old_view.members) if old_view else set()
        for departed in sorted(old_members - set(new_view.members)):
            self.runtime.transport.abandon(departed, keep=still_wanted)
            # Nor is it told "alive" any more: a crashed member cannot
            # unsubscribe, and its lease would outlive this view.
            self.runtime.detector.forget(departed)

        # Clear satisfied/void membership intentions; failure detection
        # follows the view.
        self._suspects &= set(new_view.members)
        self._rewatch()
        self._pending_joins = [
            j for j in self._pending_joins if not new_view.contains(j)
        ]
        self._pending_leaves &= set(new_view.members)

        self._emit_view_event(new_view, departed_self=False, old_view=old_view)

        # Replay buffered traffic for this view, then queued sends.
        future, self._future = self._future, []
        for handler, payload, sender in future:
            handler(payload, sender)
        outbox, self._outbox = self._outbox, []
        for payload, ordering in outbox:
            if self.is_member:
                self._send_data(payload, ordering)

        # Suspicions that outlived the view change (reported, perhaps, to
        # a coordinator that died with them) go to the new coordinator.
        self._report(sorted(self._suspects))

    def _emit_view_event(
        self,
        new_view: GroupView,
        departed_self: bool,
        old_view: Optional[GroupView] = None,
    ) -> None:
        old_members = set(old_view.members) if old_view else set()
        joined = tuple(m for m in new_view.members if m not in old_members)
        departed = tuple(m for m in old_members if not new_view.contains(m))
        if departed_self:
            joined = ()
            departed = (self.me,)
        event = ViewEvent(view=new_view, joined=joined, departed=departed)
        for listener in list(self._view_listeners):
            listener(event)

    def _teardown_watches(self) -> None:
        for address in sorted(self._watching):
            self.runtime.unwatch(address, self.group)
        self._watching = set()


class GroupRuntime:
    """Per-process hub: transport, RPC, failure detection and group demux.

    Create exactly one per process; obtain group endpoints through
    :meth:`create_group` (static bootstrap) or :meth:`join_group`.
    """

    def __init__(
        self,
        process: Process,
        detector: Optional[FailureDetector] = None,
        gossip_interval: Optional[float] = 1.0,
        flush_timeout: float = 1.0,
        rto: float = 0.05,
        primary_partition: bool = False,
    ) -> None:
        self.process = process
        self.transport = ReliableTransport(process, rto=rto)
        self.rpc = Rpc(process)
        self.flush_timeout = flush_timeout
        # §5 extension: refuse minority view changes during partitions.
        self.primary_partition = primary_partition
        self.detector = detector if detector is not None else OracleDetector(
            process.env, process.address, detection_delay=0.05
        )
        self.detector.add_listener(self._on_suspect)
        self._groups: Dict[str, GroupMember] = {}
        self._watch_refs: Dict[Address, Set[str]] = {}

        process.on(GroupData, self._route(lambda m, p, s: m._on_data(p, s)))
        process.on(
            StabilityGossip, self._route(lambda m, p, s: m._on_gossip(p, s))
        )
        process.on(Flush, self._route(lambda m, p, s: m._on_flush(p, s)))
        process.on(FlushOk, self._route(lambda m, p, s: m._on_flush_ok(p, s)))
        process.on(NewView, self._route(lambda m, p, s: m._on_new_view(p, s)))
        process.on(
            SuspectReport, self._route(lambda m, p, s: m._on_suspect_report(p, s))
        )
        self.rpc.serve(JoinRequest, self._serve_join)
        self.rpc.serve(LeaveRequest, self._serve_leave)
        if gossip_interval is not None:
            process.every(gossip_interval, self._gossip_all)
            # Each round a member that delivered data reports it to the
            # coordinator, and a coordinator that heard reports announces
            # floors: the acks for data and reports ride on those, or
            # leave on their own a round late (docs/comms.md).
            self.transport.hold_acks((GroupData, StabilityGossip), gossip_interval)
        process.add_recover_listener(self._after_recovery)

    def _after_recovery(self) -> None:
        """Fail-stop recovery: group state died with the old incarnation.
        The recovered process rejoins groups like a new member (the
        classical ISIS recovery story)."""
        for member in list(self._groups.values()):
            member._teardown_watches()
        self._groups.clear()
        for address in list(self._watch_refs):
            self.detector.unwatch(address)
        self._watch_refs.clear()

    # -- group lifecycle ----------------------------------------------------------

    def create_group(self, name: str, members: List[Address]) -> GroupMember:
        """Statically bootstrap a group whose initial view is ``members``.

        Every listed process must make the identical call; no messages are
        exchanged (this mirrors starting a distributed application from a
        common configuration file).
        """
        if name in self._groups:
            raise ValueError(f"{self.process.address} already in group {name}")
        if self.process.address not in members:
            raise ValueError("creator must be listed in the initial membership")
        member = GroupMember(self, name)
        self._groups[name] = member
        member._bootstrap(tuple(members))
        return member

    def join_group(
        self, name: str, contact: Address, retry: float = 1.0
    ) -> GroupMember:
        """Dynamically join ``name`` via any current member ``contact``."""
        if name in self._groups:
            raise ValueError(f"{self.process.address} already in group {name}")
        member = GroupMember(self, name)
        self._groups[name] = member
        member._start_join(contact, retry)
        return member

    def forget_group(self, name: str) -> None:
        """Drop local state for a group (after leave/exclusion)."""
        member = self._groups.pop(name, None)
        if member is not None:
            member._end_join()
            member._teardown_watches()

    def rejoin_group(
        self, name: str, contact: Address, retry: float = 1.0
    ) -> GroupMember:
        """Discard any stale local state for ``name`` and join afresh —
        the recovery path for a member excluded by false suspicion or
        stranded on the minority side of a healed partition."""
        self.forget_group(name)
        return self.join_group(name, contact, retry=retry)

    def group(self, name: str) -> GroupMember:
        return self._groups[name]

    def has_group(self, name: str) -> bool:
        return name in self._groups

    @property
    def groups(self) -> List[GroupMember]:
        return list(self._groups.values())

    # -- routing --------------------------------------------------------------------

    def _route(self, fn):
        def handler(payload, sender):
            member = self._groups.get(payload.group)
            if member is not None:
                fn(member, payload, sender)

        return handler

    def _serve_join(self, request: JoinRequest, sender: Address):
        member = self._groups.get(request.group)
        if member is None:
            raise RpcError(f"no such group here: {request.group}")
        return member._handle_join_request(request, sender)

    def _serve_leave(self, request: LeaveRequest, sender: Address):
        member = self._groups.get(request.group)
        if member is None:
            raise RpcError(f"no such group here: {request.group}")
        return member._handle_leave_request(request, sender)

    def _gossip_all(self) -> None:
        for member in self._groups.values():
            member._gossip_tick()

    # -- failure detection ------------------------------------------------------------

    def watch(self, address: Address, group: str) -> None:
        refs = self._watch_refs.setdefault(address, set())
        if not refs:
            self.detector.watch(address)
        refs.add(group)

    def unwatch(self, address: Address, group: str) -> None:
        refs = self._watch_refs.get(address)
        if refs is None:
            return
        refs.discard(group)
        if not refs:
            self.detector.unwatch(address)
            del self._watch_refs[address]

    def _on_suspect(self, address: Address) -> None:
        self.transport.abandon(address)
        for member in list(self._groups.values()):
            member._on_suspect(address)
