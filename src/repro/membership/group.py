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

A member's view, data plane and view change are the sans-IO core of
:mod:`repro.membership.flush`, which GroupMember extends with the
process's IO.  Failures come from a pluggable failure detector; suspicion
is converted to membership exclusion, the classical ISIS fail-stop
conversion.

This is the *flat* implementation: a multicast reaches every member and
every view change touches everyone, so those costs grow with group size,
and the paper's contribution (bounding them with hierarchy) is built on
top in :mod:`repro.core`.  The two *background* planes, however, cost a
member the same whatever the size of its group (docs/comms.md):

* failure monitoring is a ring — a member watches its nearest
  rank-predecessor that it does not suspect, which pushes it one
  heartbeat a tick that nobody answers (:mod:`repro.failure.detector`),
  and reports a suspicion to the acting coordinator; a member a view
  removes is dropped from the push list of the member that stays;
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
from repro.failure.detector import FailureDetector, OracleDetector
from repro.membership.events import (
    DeliveryEvent,
    Flush,
    FlushAbort,
    FlushOk,
    GroupData,
    JoinRequest,
    LeaveRequest,
    NewView,
    StabilityGossip,
    SuspectReport,
    TOTAL,
    ViewEvent,
)
from repro.membership.flush import NotMemberError, ViewCore
from repro.membership.view import GroupView
from repro.net.message import Address
from repro.proc.process import Process
from repro.proc.rpc import Rpc, RpcError, redirect
from repro.transport.reliable import ReliableTransport

DeliveryListener = Callable[[DeliveryEvent], None]
ViewListener = Callable[[ViewEvent], None]


class GroupMember(ViewCore):
    """One process's endpoint in one group.  Created via GroupRuntime.

    It performs what its :class:`~repro.membership.flush.ViewCore`
    decides through the process's transport, timers, failure detector
    and tracer, and adds the join and leave RPCs and the stability tick.
    """

    def __init__(self, runtime: "GroupRuntime", group: str) -> None:
        super().__init__(runtime.process.address, group)
        self.runtime = runtime
        self.joining = False
        self._watching: Optional[Address] = None
        self._flush_timer = None
        self._join_contact: Optional[Address] = None
        self._join_timer = None

        # Copy-on-write tuples: adding a listener builds a new tuple, so
        # a pass over them sees the listeners of when it began without a
        # copy per delivery.
        self._delivery_listeners: Tuple[DeliveryListener, ...] = ()
        self._view_listeners: Tuple[ViewListener, ...] = ()
        self.state_receiver: Optional[Callable[[Any], None]] = None

    # ------------------------------------------------------------------ public

    def add_delivery_listener(self, fn: DeliveryListener) -> None:
        self._delivery_listeners += (fn,)

    def add_view_listener(self, fn: ViewListener) -> None:
        self._view_listeners += (fn,)

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
            self.runtime.rpc.walk(
                (coordinator,),
                LeaveRequest(group=self.group, leaver=self.me),
                lambda *_: True,
                2.0,
                exhausted=self._retry_leave,
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
        self._install(NewView(view=GroupView.initial(self.group, members)))

    def _start_join(self, contact: Address, retry: float) -> None:
        self.joining = True
        self._join_contact = contact
        self._send_join(retry)

    def _end_join(self) -> None:
        """Admitted, or given up on (``GroupRuntime.forget_group``): stop
        asking.  The RPC in flight finds ``joining`` cleared and does not
        re-arm."""
        self.joining = False
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None

    def _send_join(self, retry: float) -> None:
        self.runtime.rpc.walk(
            (self._join_contact,),
            JoinRequest(group=self.group, joiner=self.me),
            lambda value, sender: self._join_reply(value, sender, retry),
            retry,
            stale=lambda: not self.joining,
            exhausted=lambda: self._send_join(retry),
        )

    def _join_reply(self, value: Any, sender: Address, retry: float) -> bool:
        if not self.joining:
            return True
        self._join_contact = sender  # the contact, or its coordinator
        # "pending": NewView will arrive; the walk has been satisfied by
        # this reply, so arm another guard in case the coordinator dies
        # before installing us.
        if isinstance(value, tuple) and value and value[0] == "pending":
            self._join_timer = self.runtime.process.set_timer(
                4 * retry, lambda: self._send_join(retry)
            )
        elif value is None:
            # Contact answered but has no such group (yet) — e.g. a leaf
            # that is still being created.  Back off and retry.
            self._join_timer = self.runtime.process.set_timer(
                retry, lambda: self._send_join(retry)
            )
        return True

    # ---------------------------------------------------- stability plane

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
        an idle group sends nothing in either direction, and an idle
        member's tick ends at the tracker's ``idle_at``."""
        stability = self._stability
        if stability is None:
            return
        engine: TotalEngine = self._engines[TOTAL]
        if (
            stability.idle_at == engine.delivered_through
            or not self.is_member
            or self._reported is not None
        ):
            return
        view = self.view
        if view.coordinator == self.me:
            moved = stability.take_floors(engine.delivered_through)
            engine.forget_orders(stability.ordered_floor)
            targets = view.others(self.me)
        else:
            moved = stability.take_report(engine.delivered_through)
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

    # ------------------------------------------------------------------ the port

    @property
    def primary_partition(self) -> bool:
        return self.runtime.primary_partition

    def _send(self, dst: Address, payload: Any) -> None:
        self.runtime.transport.send(dst, payload)

    def _send_many(self, dsts, payload: Any) -> None:
        self.runtime.transport.send_many(dsts, payload)

    def _datagram(self, dst: Address, payload: Any) -> None:
        self.runtime.process.send(dst, payload)

    def _emit(self, data: GroupData) -> None:
        event = DeliveryEvent(
            self.group, data.view_seq, data.sender, data.payload, data.ordering
        )
        for listener in self._delivery_listeners:
            listener(event)

    def _set_flush_timer(self, armed: bool) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if armed:
            self._flush_timer = self.runtime.process.set_timer(
                self.runtime.flush_timeout, self._flush_timeout
            )

    def _note(self, span: str, **fields: Any) -> None:
        trace = self.runtime.process.env.network.trace
        if trace is not None:
            trace.local(span, category="membership", process=self.me,
                        group=self.group, **fields)

    def _installed(self, old_view: Optional[GroupView], message: NewView) -> None:
        network = self.runtime.process.env.network
        for engine in self._engines.values():
            engine.network = network
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

        new_view = message.view
        old_members = old_view.members if old_view else ()
        for departed in sorted(set(old_members) - set(new_view.members)):
            self.runtime.transport.abandon(departed, keep=still_wanted)
            # Nor is it told "alive" any more: a crashed member cannot
            # unsubscribe, and its lease would outlive this view.
            self.runtime.detector.forget(departed)
        self._rewatch()
        was = set(old_members)
        self._tell(ViewEvent(
            view=new_view,
            joined=tuple(m for m in new_view.members if m not in was),
            departed=tuple(m for m in old_members if not new_view.contains(m)),
        ))

    def _departed(self, new_view: GroupView) -> None:
        self._teardown_watches()
        self._tell(ViewEvent(view=new_view, joined=(), departed=(self.me,)))

    def _tell(self, event: ViewEvent) -> None:
        for listener in self._view_listeners:
            listener(event)

    # --------------------------------------------------------- membership plane

    def _rewatch(self) -> None:
        """Point failure detection at the nearest rank-predecessor (the
        ring wraps) this member does not suspect.

        Every member is thus watched by its successor alone, and rank 1
        watches the coordinator itself: monitoring costs a member one
        heartbeat a tick, whatever the size of its group.  Skipping
        suspects is what makes the ring *complete*: when a member dies
        together with its watcher, the next live successor suspects the
        watcher and moves on to the member nobody was left to report.
        That member is probed (``FailureDetector.probe``) rather than
        given a fresh ``suspect_after``, so f adjacent crashes are all
        suspected within ``suspect_after`` plus f - 1 probe windows.
        """
        members = self.view.members
        rank = self.view.rank_of(self.me)
        wanted = None
        for step in range(1, len(members)):
            if members[rank - step] not in self._suspects:
                wanted = members[rank - step]
                break
        if wanted == self._watching:
            return
        if self._watching is not None:
            self.runtime.unwatch(self._watching, self.group)
        self._watching = wanted
        if wanted is not None:
            self.runtime.watch(wanted, self.group)
            if wanted != members[rank - 1]:  # the walk skipped a suspect
                self.runtime.detector.probe(wanted)

    def _handle_membership_request(self, request: Any) -> Any:
        """A join or leave request: the acting coordinator queues it, and
        any other member redirects the caller there."""
        if not self.is_member:
            raise RpcError(f"{self.me} not in group {request.group}")
        if not self.is_coordinator:
            return redirect(self.acting_coordinator())
        if isinstance(request, LeaveRequest):
            if self.view.contains(request.leaver):
                self._pending_leaves.add(request.leaver)
                self._maybe_start_view_change()
            return ("pending",)
        if self.view.contains(request.joiner):
            return ("member",)
        if request.joiner not in self._pending_joins:
            self._pending_joins.append(request.joiner)
        self._maybe_start_view_change()
        return ("pending",)

    def _teardown_watches(self) -> None:
        if self._watching is not None:
            self.runtime.unwatch(self._watching, self.group)
            self._watching = None


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
            process, detection_delay=0.05
        )
        self.detector.add_listener(self._on_suspect)
        self._groups: Dict[str, GroupMember] = {}
        self._watch_refs: Dict[Address, Set[str]] = {}

        route = self._route  # one bound method for every kind in _HANDLERS
        process.on(GroupData, route)
        process.on(StabilityGossip, route)
        process.on(Flush, route)
        process.on(FlushOk, route)
        process.on(FlushAbort, route)
        process.on(NewView, route)
        process.on(SuspectReport, route)
        self.rpc.serve(JoinRequest, self._serve_membership)
        self.rpc.serve(LeaveRequest, self._serve_membership)
        if gossip_interval is not None:
            process.every(gossip_interval, self._gossip_all)
            # Each round a member that delivered data reports it to the
            # coordinator, and a coordinator that heard reports announces
            # floors: the acks for data and reports ride on those, or
            # leave on their own a round late (docs/comms.md).
            self.transport.hold_acks((GroupData, StabilityGossip), gossip_interval)

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

    # One table routes each group payload to the member of its group.
    _HANDLERS: Dict[type, Callable[[GroupMember, Any, Address], None]] = {
        GroupData: GroupMember._on_data,
        StabilityGossip: GroupMember._on_gossip,
        Flush: GroupMember._on_flush,
        FlushOk: GroupMember._on_flush_ok,
        FlushAbort: GroupMember._on_flush_abort,
        NewView: GroupMember._on_new_view,
        SuspectReport: GroupMember._on_suspect_report,
    }

    def _route(self, payload: Any, sender: Address) -> None:
        member = self._groups.get(payload.group)
        if member is not None:
            self._HANDLERS[payload.__class__](member, payload, sender)

    def _serve_membership(self, request: Any, sender: Address):
        member = self._groups.get(request.group)
        if member is None:
            raise RpcError(f"no such group here: {request.group}")
        return member._handle_membership_request(request)

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
