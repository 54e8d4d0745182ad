"""Large-group membership: the leaf-side of hierarchical process groups.

A :class:`LargeGroupMember` is one application process's endpoint in a
large group.  It asks the service's leader for a leaf assignment, runs the
ordinary view-synchronous protocol *within its leaf only* (so failures and
membership changes touch a bounded number of processes — the paper's
scaling argument), reports its leaf's status to the leader when it is the
leaf coordinator, and executes the leader's split and merge directives.

The application sees a stable interface across leaf reorganisations:
delivery/view listeners survive splits and merges, and
:meth:`leaf_multicast` always targets the current leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.core.leader import (
    JoinLarge,
    LeafProbe,
    MergeDirective,
    ReportLeafStatus,
    SplitDirective,
)
from repro.core.params import LargeGroupParams
from repro.membership.events import DeliveryEvent, FIFO, TOTAL, ViewEvent
from repro.membership.group import GroupMember
from repro.membership.service import GroupNode
from repro.net.message import Address


@dataclass
class SplitCmd:
    """abcast within a leaf: the listed movers depart to form a new leaf.

    ``level``/``parent_path`` carry the leader's level-tagged placement
    through to the movers (the new leaf is a sibling: same level, same
    branch chain above), so deep trees need no extra round trip.
    """

    new_leaf_id: str
    new_group: str
    movers: Tuple[Address, ...]
    level: int = 0
    parent_path: Tuple[str, ...] = ()


@dataclass
class MergeCmd:
    """abcast within a leaf: everyone migrates to the target leaf."""

    target_group: str
    target_contacts: Tuple[Address, ...]
    level: int = 0
    target_path: Tuple[str, ...] = ()


class LargeGroupMember:
    """One process's membership in one hierarchically organised service."""

    def __init__(
        self,
        node: GroupNode,
        service: str,
        leader_contacts: Tuple[Address, ...],
        assign_retry: float = 1.0,
        report_retry: float = 0.5,
        params: Optional[LargeGroupParams] = None,
    ) -> None:
        if not leader_contacts:
            raise ValueError("need at least one leader contact")
        self.node = node
        self.service = service
        self.leader_contacts = tuple(leader_contacts)
        self.assign_retry = assign_retry
        self.report_retry = report_retry
        self.params = params if params is not None else LargeGroupParams()

        self.leaf_id: Optional[str] = None
        self.leaf_member: Optional[GroupMember] = None
        self._delivery_listeners: List[Callable[[DeliveryEvent], None]] = []
        self._view_listeners: List[Callable[[ViewEvent], None]] = []
        self._leaf_change_listeners: List[Callable[[GroupMember], None]] = []
        self._joining = False
        self._moving = False  # split/merge transition in progress
        self.reorganisations = 0
        # Level-tagged placement as learned from directives (0/() until
        # the first reorganisation teaches us where we sit).
        self.leaf_level = 0
        self.leaf_path: Tuple[str, ...] = ()
        # Load accounting (load-driven policy only): a raw per-interval
        # counter, turned into a rate sample by the report tick; the
        # leader folds the samples into its EWMA.
        self._deliveries = 0
        self._last_delivery_rate = -1.0  # negative = no sample yet
        self._tick_gen = 0  # invalidates stale tick timers across recovery

        runtime = node.runtime
        runtime.rpc.serve(LeafProbe, self._serve_probe)
        runtime.rpc.serve(SplitDirective, self._serve_split)
        runtime.rpc.serve(MergeDirective, self._serve_merge)
        node.add_recover_listener(self._after_recovery)
        if self.params.reorg.load_driven:
            self._arm_tick()

    def _after_recovery(self) -> None:
        """Fail-stop recovery: the old incarnation's leaf membership died
        with it (the runtime wiped the group state); this endpoint resets
        so the application can simply call :meth:`join` again."""
        self.leaf_id = None
        self.leaf_member = None
        self._joining = False
        self._moving = False
        self.leaf_level = 0
        self.leaf_path = ()
        self._deliveries = 0
        self._last_delivery_rate = -1.0
        if self.params.reorg.load_driven:
            self._arm_tick()

    # ------------------------------------------------------------ load reports

    def _arm_tick(self) -> None:
        self._tick_gen += 1
        gen = self._tick_gen
        self.node.set_timer(
            self.params.reorg.report_interval, lambda: self._load_tick(gen)
        )

    def _load_tick(self, gen: int) -> None:
        """Per-interval load sampling: turn the raw counter into a rate
        sample and, when this process is the leaf coordinator, report it
        to the leader (which folds it into its per-leaf EWMA)."""
        if gen != self._tick_gen or not self.node.alive:
            return
        interval = self.params.reorg.report_interval
        self._last_delivery_rate = self._deliveries / interval
        self._deliveries = 0
        if self.is_leaf_coordinator:
            self._report_status()
        self.node.set_timer(interval, lambda: self._load_tick(gen))

    # ------------------------------------------------------------------ public

    @property
    def me(self) -> Address:
        return self.node.address

    @property
    def is_member(self) -> bool:
        return self.leaf_member is not None and self.leaf_member.is_member

    @property
    def leaf_size(self) -> int:
        if self.leaf_member is None or self.leaf_member.view is None:
            return 0
        return self.leaf_member.view.size

    @property
    def is_leaf_coordinator(self) -> bool:
        return (
            self.is_member
            and self.leaf_member.acting_coordinator() == self.me
        )

    def add_delivery_listener(self, fn: Callable[[DeliveryEvent], None]) -> None:
        self._delivery_listeners.append(fn)

    def add_view_listener(self, fn: Callable[[ViewEvent], None]) -> None:
        self._view_listeners.append(fn)

    def add_leaf_change_listener(self, fn: Callable[[GroupMember], None]) -> None:
        """``fn(new_leaf_member)`` whenever this process switches leaf
        group (initial placement, split, merge).  Toolkit layers use this
        to re-attach per-leaf protocol state."""
        self._leaf_change_listeners.append(fn)
        if self.leaf_member is not None:
            fn(self.leaf_member)

    def join(self) -> None:
        """Ask the leader for a leaf and join it."""
        if self._joining or self.is_member:
            return
        self._joining = True
        self._request_assignment(0)

    def leaf_multicast(self, payload: Any, ordering: str = FIFO) -> None:
        """Multicast to this member's leaf subgroup (the common case: the
        paper routes requests to individual subgroups, never the whole
        large group)."""
        if not self.is_member:
            raise RuntimeError(f"{self.me} not yet placed in {self.service}")
        self.leaf_member.multicast(payload, ordering)

    # ------------------------------------------------------------ join protocol

    def _request_assignment(self, contact_index: int) -> None:
        if not self._joining or not self.node.alive:
            return
        contacts = self.leader_contacts
        contact = contacts[contact_index % len(contacts)]
        self.node.runtime.rpc.call(
            contact,
            JoinLarge(service=self.service, joiner=self.me),
            on_reply=lambda value, sender: self._assignment_reply(
                value, contact_index
            ),
            timeout=self.assign_retry,
            on_timeout=lambda: self._request_assignment(contact_index + 1),
        )

    def _assignment_reply(self, value: Any, contact_index: int) -> None:
        if not self._joining:
            return
        if value is None:
            self._retry_join(contact_index + 1)
            return
        kind = value[0]
        if kind == "redirect":
            target = value[1]
            if target in self.leader_contacts:
                index = self.leader_contacts.index(target)
            else:
                self.leader_contacts = self.leader_contacts + (target,)
                index = len(self.leader_contacts) - 1
            self._request_assignment(index)
        elif kind == "create":
            _, leaf_id, group_name = value
            self._install_leaf(
                leaf_id,
                self.node.runtime.create_group(group_name, [self.me]),
            )
        elif kind == "join":
            _, group_name, contacts = value
            leaf_id = group_name.split("::", 1)[1]
            if self.node.runtime.has_group(group_name):
                self.node.runtime.forget_group(group_name)
            member = self.node.runtime.join_group(
                group_name, contact=contacts[0], retry=self.assign_retry
            )
            self._install_leaf(leaf_id, member, pending=True)
            # If placement stalls (contact died, leaf dissolved), start over.
            self.node.set_timer(
                6 * self.assign_retry, lambda: self._check_placement(group_name)
            )
        else:
            self._retry_join(contact_index + 1)

    def _retry_join(self, next_index: int) -> None:
        self.node.set_timer(
            self.assign_retry, lambda: self._request_assignment(next_index)
        )

    def _check_placement(self, group_name: str) -> None:
        if self.is_member or not self._joining:
            return
        if self.node.runtime.has_group(group_name):
            self.node.runtime.forget_group(group_name)
        self._request_assignment(0)

    def _install_leaf(
        self, leaf_id: str, member: GroupMember, pending: bool = False
    ) -> None:
        self.leaf_id = leaf_id
        self.leaf_member = member
        member.add_delivery_listener(self._on_leaf_delivery)
        member.add_view_listener(self._on_leaf_view)
        for listener in list(self._leaf_change_listeners):
            listener(member)
        if not pending:
            self._joining = False
            self._moving = False
            self._report_status()

    # ---------------------------------------------------------------- leaf events

    def _on_leaf_delivery(self, event: DeliveryEvent) -> None:
        payload = event.payload
        if isinstance(payload, SplitCmd):
            self._execute_split(payload)
            return
        if isinstance(payload, MergeCmd):
            self._execute_merge(payload)
            return
        self._deliveries += 1
        for listener in list(self._delivery_listeners):
            listener(event)

    def _on_leaf_view(self, event: ViewEvent) -> None:
        if self._joining and event.view.contains(self.me):
            self._joining = False
            self._moving = False
        for listener in list(self._view_listeners):
            listener(event)
        # "When a process fails, or leaves the large group, only the other
        # members of its leaf group need to be informed" — and the leaf's
        # coordinator refreshes the leader's bounded summary.
        if self.is_leaf_coordinator:
            self._report_status()

    def _report_status(self, attempt: int = 0) -> None:
        if not self.is_leaf_coordinator or self.leaf_id is None:
            return
        view = self.leaf_member.view
        load_driven = self.params.reorg.load_driven
        body = ReportLeafStatus(
            service=self.service,
            leaf_id=self.leaf_id,
            size=view.size,
            contacts=view.members[:8],
            level=self.leaf_level,
            path=self.leaf_path,
            delivery_rate=self._last_delivery_rate if load_driven else -1.0,
        )
        contacts = self.leader_contacts
        contact = contacts[attempt % len(contacts)]
        reported_seq = view.seq

        def on_reply(value, sender) -> None:
            if value is None or value[0] == "redirect":
                self._retry_report(attempt + 1, reported_seq)

        self.node.runtime.rpc.call(
            contact,
            body,
            on_reply=on_reply,
            timeout=self.report_retry,
            on_timeout=lambda: self._retry_report(attempt + 1, reported_seq),
        )

    def _retry_report(self, attempt: int, reported_seq: int) -> None:
        if (
            self.is_leaf_coordinator
            and self.leaf_member.view is not None
            and self.leaf_member.view.seq == reported_seq
            and attempt < 3 * len(self.leader_contacts)
        ):
            self.node.set_timer(
                self.report_retry, lambda: self._report_status(attempt)
            )

    # -------------------------------------------------------------- directives

    def _serve_probe(self, body: LeafProbe, sender: Address):
        if body.leaf_id != self.leaf_id or not self.is_member:
            return None
        view = self.leaf_member.view
        return (view.size, view.members[:8])

    def _serve_split(self, body: SplitDirective, sender: Address):
        if body.leaf_id != self.leaf_id or not self.is_leaf_coordinator:
            return ("not-coordinator",)
        view = self.leaf_member.view
        half = view.size // 2
        movers = view.members[view.size - half :]
        if not movers:
            return ("too-small",)
        self.leaf_level = body.level
        self.leaf_path = tuple(body.parent_path)
        self.leaf_member.multicast(
            SplitCmd(
                new_leaf_id=body.new_leaf_id,
                new_group=body.new_group,
                movers=movers,
                level=body.level,
                parent_path=tuple(body.parent_path),
            ),
            TOTAL,
        )
        return ("splitting", movers)

    def _serve_merge(self, body: MergeDirective, sender: Address):
        if body.leaf_id != self.leaf_id or not self.is_leaf_coordinator:
            return ("not-coordinator",)
        self.leaf_member.multicast(
            MergeCmd(
                target_group=body.target_group,
                target_contacts=tuple(body.target_contacts),
                level=body.level,
                target_path=tuple(body.target_path),
            ),
            TOTAL,
        )
        return ("merging",)

    # ----------------------------------------------------------- reorganisation

    def _trace_reorg(self, name: str, **attrs) -> None:
        """Guarded reorg span (repro.trace.api hook contract: zero cost
        with tracing off)."""
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                name, category="reorg", process=self.me,
                service=self.service, **attrs,
            )

    def _execute_split(self, cmd: SplitCmd) -> None:
        self.reorganisations += 1
        old_member = self.leaf_member
        if old_member.acting_coordinator() == self.me:
            self._trace_reorg(
                "reorg-split-start",
                leaf_id=self.leaf_id,
                new_leaf_id=cmd.new_leaf_id,
                movers=len(cmd.movers),
            )
        if self.me in cmd.movers:
            # Depart gracefully; once excluded, bootstrap the new leaf.
            old_member.mark_departing()
            self._moving = True

            def maybe_form_new_leaf(event: ViewEvent) -> None:
                if not event.view.contains(self.me) and self._moving:
                    self._form_new_leaf(cmd)

            old_member.add_view_listener(maybe_form_new_leaf)
            # The coordinator's removal view change races with this abcast
            # delivery; if we are already excluded the listener never
            # fires, so also check directly.
            if not old_member.is_member:
                self._form_new_leaf(cmd)
        elif old_member.acting_coordinator() == self.me:
            old_member.request_removal(cmd.movers)

    def _form_new_leaf(self, cmd: SplitCmd) -> None:
        if not self._moving:
            return
        self._moving = False
        old_group = self.leaf_member.group if self.leaf_member else None
        if old_group is not None:
            self.node.runtime.forget_group(old_group)
        # The new leaf is a sibling of the one it split from: same level,
        # same branch chain above.
        self.leaf_level = cmd.level
        self.leaf_path = tuple(cmd.parent_path)
        self._trace_reorg(
            "reorg-state-handoff",
            new_leaf_id=cmd.new_leaf_id,
            level=cmd.level,
        )
        member = self.node.runtime.create_group(cmd.new_group, list(cmd.movers))
        self._install_leaf(cmd.new_leaf_id, member)

    def _execute_merge(self, cmd: MergeCmd) -> None:
        self.reorganisations += 1
        old_member = self.leaf_member
        old_group = old_member.group
        old_member.mark_departing()
        self.node.runtime.forget_group(old_group)
        target_leaf_id = cmd.target_group.split("::", 1)[1]
        # We migrate into the absorbing leaf's place in the tree.
        self.leaf_level = cmd.level
        self.leaf_path = tuple(cmd.target_path)
        self._trace_reorg(
            "reorg-state-handoff",
            new_leaf_id=target_leaf_id,
            level=cmd.level,
        )
        contact = cmd.target_contacts[0] if cmd.target_contacts else None
        if contact is None:
            # No known target contact: fall back to a fresh assignment.
            self.leaf_member = None
            self.leaf_id = None
            self._joining = True
            self._request_assignment(0)
            return
        member = self.node.runtime.join_group(
            cmd.target_group, contact=contact, retry=self.assign_retry
        )
        self._joining = True
        self._install_leaf(target_leaf_id, member, pending=True)
        self.node.set_timer(
            6 * self.assign_retry, lambda: self._check_placement(cmd.target_group)
        )


def build_large_group(
    env,
    service: str,
    size: int,
    params: LargeGroupParams,
    leader_contacts: Tuple[Address, ...],
    prefix: Optional[str] = None,
    join_stagger: float = 0.05,
    **node_kwargs,
) -> List[LargeGroupMember]:
    """Create ``size`` worker nodes and have them join the service, with
    joins staggered to mimic processes starting up across a network."""
    prefix = prefix if prefix is not None else f"{service}-w"
    members = []
    for i in range(size):
        node = GroupNode(env, f"{prefix}-{i}", **node_kwargs)
        member = LargeGroupMember(node, service, leader_contacts, params=params)
        members.append(member)
        env.scheduler.at(env.now + join_stagger * (i + 1), member.join)
    return members
