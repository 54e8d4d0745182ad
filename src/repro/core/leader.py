"""The group leader: a resilient subgroup managing the hierarchy (§3).

    "Instead a new resilient group, called the group leader, is
    constructed, whose function is to manage the group view.  It is the
    leader which is informed of the total failure of one of the child
    subgroups, and which is responsible for splitting subgroups which have
    grown too large, and merging subgroups which are too small."

Each :class:`LeaderReplica` participates in the small group
``<service>/leader`` and replicates a :class:`~repro.core.views.
HierarchyState` by abcasting ops inside that group, so hierarchy state
survives ``resiliency - 1`` leader failures.  The replica that is the
leader group's acting coordinator is the *manager*: it answers joins and
leaf reports, issues split/merge directives, watches leaf coordinators,
and converts silence into total-failure handling.  Any replica answers a
router's ``GetHierarchyInfo`` from its copy of the leaves.  When the
manager dies, the leader group's own view change promotes the next
replica, which resumes from the replicated state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.params import LargeGroupParams
from repro.core.views import (
    AddLeaf,
    HierarchyError,
    HierarchyState,
    RemoveLeaf,
    UpdateLeaf,
)
from repro.membership.events import TOTAL, ViewEvent
from repro.membership.service import GroupNode
from repro.net.message import Address


# A leaf born for joiners that no joiner has been sent to for this long
# (logical s) has stopped growing: below leaf_min, the size rail merges it.
FILL_GRACE = 1.0


def leader_group_name(service: str) -> str:
    return f"{service}/leader"


# -- RPC bodies -------------------------------------------------------------------


@dataclass
class JoinLarge:
    """A process asks the manager for a leaf assignment."""

    service: str
    joiner: Address


@dataclass
class ReportLeafStatus:
    """A leaf coordinator reports its view after every leaf view change
    (and, in load-driven deployments, every report interval).

    A negative rate means "no load sample" — the size-only deployments
    always send -1 and the leader never touches the EWMA.
    """

    service: str
    leaf_id: str
    size: int
    contacts: Tuple[Address, ...]
    delivery_rate: float = -1.0


@dataclass
class GetHierarchyInfo:
    """Ask a leader replica for the service's directory
    (:func:`directory_reply`), from which a router packs the branch tree
    it places keys with."""

    service: str


@dataclass
class LeafProbe:
    """Manager -> leaf contact: are you alive, what is your status?"""

    service: str
    leaf_id: str


def directory_reply(state: HierarchyState, reorg_epoch: int) -> Dict[str, Any]:
    """The ``GetHierarchyInfo`` reply: every leaf's contacts by leaf id
    (sorted; a leaf with no contacts yet is listed too, as the packing
    counts it), the fanout that packs those ids into the leader's tree
    (:func:`~repro.core.views.pack_tree`), the tree's depth and its reorg
    epoch.  Sizes, loads and the branch lists stay at the leader: the ids
    and the fanout name the tree."""
    return {
        "leaves": {
            leaf_id: state.leaves[leaf_id].contacts
            for leaf_id in sorted(state.leaves)
        },
        "fanout": state.params.fanout,
        "depth": state.depth(),
        "reorg_epoch": reorg_epoch,
    }


# -- replicated op envelope ----------------------------------------------------------


@dataclass
class HOp:
    """A hierarchy op abcast within the leader group."""

    category = "hierarchy-op"
    group: str  # leader group name (GroupRuntime routing key)
    op: Any = None


class LeaderReplica:
    """One member of the resilient leader subgroup for one service."""

    def __init__(
        self,
        node: GroupNode,
        service: str,
        leader_members: Tuple[Address, ...],
        params: LargeGroupParams,
        probe_timeout: float = 0.5,
    ) -> None:
        self.node = node
        self.service = service
        self.params = params
        self.probe_timeout = probe_timeout
        self.state = HierarchyState(service, params)
        self.events: List[Tuple[str, Any]] = []
        self.is_manager = False
        # Structural version of the tree: bumps on every applied op that
        # adds or removes a leaf (split, merge, total failure).  Routers
        # hold the tree they place keys with as of one epoch (the
        # ``GetHierarchyInfo`` reply carries the leaves and the epoch).
        self.reorg_epoch = 0
        # Reorganisation telemetry (manager-side): directive times and
        # the routing-disruption window each reorg caused.  Kept apart
        # from ``events`` so the protocol log stays stable for tests.
        self.reorg_log: List[Dict[str, Any]] = []

        self._leaf_counter = 0
        # leaf_id -> the joiner that creates it, for a leaf not yet routable
        # (no reported contacts); None for a split-born leaf, which takes no
        # joiner until its AddLeaf carries contacts.
        self._creating: Dict[str, Optional[Address]] = {}
        self._inflight: Dict[str, int] = {}  # leaf_id -> joiners routed, unreported
        # Leaves born for joiners that have not yet reached leaf_min, with
        # the time a joiner was last routed to each: the size-merge rail
        # leaves them be while joiners keep arriving.
        self._filling: Dict[str, float] = {}
        self._fill_timer = False
        # leaf_id with a split or merge in flight -> the coordinator told to
        # split it, None for a merge.
        self._directed: Dict[str, Optional[Address]] = {}
        self._watched: Set[Address] = set()
        self._coordinator_of: Dict[Address, str] = {}
        # Load-driven reorg bookkeeping: when each leaf last reorganised
        # (cooldown), and when each in-flight split started (for the
        # disruption window).
        self._last_reorg: Dict[str, float] = {}
        self._split_started: Dict[str, float] = {}

        runtime = node.runtime
        self.member = runtime.create_group(
            leader_group_name(service), list(leader_members)
        )
        self.member.add_delivery_listener(self._on_delivery)
        self.member.add_view_listener(self._on_leader_view)
        runtime.rpc.serve(JoinLarge, self._serve_join)
        runtime.rpc.serve(ReportLeafStatus, self._serve_report)
        runtime.rpc.serve(
            GetHierarchyInfo,
            lambda body, sender: directory_reply(self.state, self.reorg_epoch),
        )
        runtime.detector.add_listener(self._on_suspect)
        self._refresh_role()

    # ------------------------------------------------------------------ role

    def _on_leader_view(self, event: ViewEvent) -> None:
        self._refresh_role()

    def _refresh_role(self) -> None:
        was_manager = self.is_manager
        self.is_manager = (
            self.member.is_member
            and self.member.acting_coordinator() == self.node.address
        )
        if self.is_manager and not was_manager:
            self.events.append(("manager", self.node.address))
            self._rewatch_coordinators()

    # ------------------------------------------------------------- replication

    def _propose(self, op: Any) -> None:
        """Replicate a hierarchy op through the leader group (abcast)."""
        self.member.multicast(HOp(group=self.member.group, op=op), TOTAL)

    def _on_delivery(self, event) -> None:
        payload = event.payload
        if not isinstance(payload, HOp):
            return
        op = payload.op
        before = self.state.leaves.get(op.leaf_id)
        try:
            self.state.apply(op)
        except HierarchyError:
            # Deterministic skip: every replica sees the same op sequence,
            # so every replica skips the same stale/duplicate ops.
            self.events.append(("op-skipped", op))
            return
        self.events.append(("op", op))
        leaf_id = op.leaf_id
        if isinstance(op, (AddLeaf, RemoveLeaf)):
            self.reorg_epoch += 1
        if isinstance(op, (AddLeaf, UpdateLeaf)):
            # A report covers as many routed joiners as the leaf grew by;
            # the ones routed after its view stay counted.
            joined = op.size - (before.size if before is not None else 0)
            if joined > 0 and leaf_id in self._inflight:
                self._inflight[leaf_id] = max(0, self._inflight[leaf_id] - joined)
            if op.contacts:
                self._creating.pop(leaf_id, None)
            if op.size >= self.params.leaf_min:
                self._filling.pop(leaf_id, None)
            # A split stays directed while the leaf reports itself still
            # oversized under the coordinator told to split it, so the views
            # a merge lands one mover at a time direct one split, not one
            # each.  A merged leaf stays directed until its RemoveLeaf.
            split_at = self._directed.get(leaf_id)
            leaf = self.state.leaves[leaf_id]
            if split_at is not None and (
                leaf.size <= self.params.leaf_split_threshold
                or leaf.coordinator != split_at
            ):
                del self._directed[leaf_id]
            self._note_routable(leaf_id)
        if isinstance(op, RemoveLeaf):
            self._inflight.pop(leaf_id, None)
            self._creating.pop(leaf_id, None)
            self._filling.pop(leaf_id, None)
            self._directed.pop(leaf_id, None)
        if self.is_manager:
            self._rewatch_coordinators()
            self._check_thresholds()

    def _note_routable(self, leaf_id: str) -> None:
        """A split's disruption window closes when the new leaf becomes
        routable: its summary now carries contacts, so joins, placements
        and directives can reach it again."""
        started = self._split_started.get(leaf_id)
        if started is None:
            return
        leaf = self.state.leaves.get(leaf_id)
        if leaf is None or not leaf.contacts:
            return
        del self._split_started[leaf_id]
        now = self.node.env.now
        self.reorg_log.append(
            {
                "t": now,
                "event": "routing-converged",
                "leaf": leaf_id,
                "window": now - started,
            }
        )
        self._trace_event(
            "reorg-routing-converged", leaf_id=leaf_id, window=now - started
        )

    def _trace_event(self, name: str, **attrs) -> None:
        """Record a manager decision as a local trace span (no-op when
        tracing is off; the guarded hook contract of repro.trace.api)."""
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                name, category="hierarchy", process=self.node.address,
                service=self.service, **attrs,
            )

    # ---------------------------------------------------------------- join path

    def _serve_join(self, body: JoinLarge, sender: Address):
        if not self.is_manager:
            return ("redirect", self.member.acting_coordinator())
        target = self._pick_leaf_for_join()
        if target is None:
            leaf_id = self._new_leaf_id()
            self._creating[leaf_id] = body.joiner
            self._inflight[leaf_id] = 1
            self._note_filling(leaf_id)
            self._propose(AddLeaf(leaf_id=leaf_id, size=0, contacts=()))
            self.events.append(("leaf-created", leaf_id))
            self._trace_event("leaf-created", leaf_id=leaf_id)
            return ("create", leaf_id)
        leaf_id, contacts = target
        self._inflight[leaf_id] = self._inflight.get(leaf_id, 0) + 1
        if leaf_id in self._filling:
            self._note_filling(leaf_id)
        return ("join", leaf_id, contacts)

    def _note_filling(self, leaf_id: str) -> None:
        """A joiner was routed to a leaf still filling: the size-merge rail
        leaves it be until no joiner has come for FILL_GRACE."""
        self._filling[leaf_id] = self.node.env.now
        if not self._fill_timer:
            self._fill_timer = True
            self.node.set_timer(FILL_GRACE / 2, self._fill_tick)

    def _fill_tick(self) -> None:
        """Every FILL_GRACE / 2 while leaves fill: one that has stopped
        growing loses its exemption, and below leaf_min it merges."""
        now = self.node.env.now
        stopped = [
            leaf_id
            for leaf_id, routed_at in self._filling.items()
            if now - routed_at >= FILL_GRACE
        ]
        for leaf_id in stopped:
            del self._filling[leaf_id]
        if stopped and self.is_manager:
            self._check_thresholds()
        self._fill_timer = bool(self._filling)
        if self._fill_timer:
            self.node.set_timer(FILL_GRACE / 2, self._fill_tick)

    def _pick_leaf_for_join(self) -> Optional[Tuple[str, Tuple[Address, ...]]]:
        """Least-loaded routable leaf, counting in-flight assignments, and
        only if it would not immediately exceed the split threshold when a
        fresh leaf would be better."""
        candidates: List[Tuple[str, int, Tuple[Address, ...]]] = []
        for leaf in self.state.leaves.values():
            contacts = leaf.contacts
            if not contacts:
                creator = self._creating.get(leaf.leaf_id)
                if creator is None:
                    continue
                contacts = (creator,)
            candidates.append((leaf.leaf_id, leaf.size, contacts))
        # Leaves whose AddLeaf op is still in flight are routable via their
        # designated creator (otherwise a burst of joiners would spawn one
        # singleton leaf each); a split-born one has none.
        for leaf_id, creator in self._creating.items():
            if creator is not None and leaf_id not in self.state.leaves:
                candidates.append((leaf_id, 0, (creator,)))
        best: Optional[Tuple[int, str, Tuple[Address, ...]]] = None
        for leaf_id, size, contacts in candidates:
            effective = size + self._inflight.get(leaf_id, 0)
            key = (effective, leaf_id)
            if best is None or key < (best[0], best[1]):
                best = (effective, leaf_id, contacts)
        if best is None:
            return None
        effective, leaf_id, contacts = best
        # When every leaf is already at the split threshold, open a new
        # leaf instead of piling on (keeps churn down as the group grows).
        if effective >= self.params.leaf_split_threshold:
            return None
        return leaf_id, contacts

    def _new_leaf_id(self) -> str:
        """``<manager address>/<n>``, which also names the leaf's group:
        unique across a manager failover (each manager numbers its own
        leaves), and sorted as ``leaf-<address>-<n>`` was.  Two ids of
        one manager compare on their counters under either separator;
        two replicas' addresses (:func:`build_leader_group`'s
        ``<prefix>-<i>``) differ first in a digit, or one stops where the
        other goes on with a digit, which sorts after ``-`` and ``/``
        alike."""
        self._leaf_counter += 1
        return f"{self.node.address}/{self._leaf_counter}"

    # ------------------------------------------------------------- leaf reports

    def _serve_report(self, body: ReportLeafStatus, sender: Address):
        if not self.is_manager:
            return ("redirect", self.member.acting_coordinator())
        if body.leaf_id not in self.state.leaves and body.leaf_id not in self._creating:
            # Late report for a leaf we already removed (e.g. merged away).
            return ("stale",)
        self._propose(
            UpdateLeaf(
                leaf_id=body.leaf_id,
                size=body.size,
                contacts=tuple(body.contacts),
                delivery_rate=body.delivery_rate,
            )
            if body.leaf_id in self.state.leaves
            else AddLeaf(
                leaf_id=body.leaf_id,
                size=body.size,
                contacts=tuple(body.contacts),
            )
        )
        return ("ok",)

    # ----------------------------------------------------- split / merge policy

    def _check_thresholds(self) -> None:
        policy = self.params.reorg
        # Size rails first (the frozen policy, byte-identical by default).
        for leaf in self.state.leaves_needing_split():
            if leaf.leaf_id in self._directed or not leaf.contacts:
                continue
            self._direct_split(leaf, "size")
        if policy.load_driven:
            now = self.node.env.now
            # A leaf whose smoothed load crossed a hot threshold splits
            # even while comfortably sized.
            for leaf in self.state.hot_leaves(policy):
                if leaf.leaf_id in self._directed or not leaf.contacts:
                    continue
                if leaf.size < 2 or not self._cooled(leaf.leaf_id, now):
                    continue
                self._direct_split(leaf, "hot")
            # Two cold *siblings* merge back together (load mode pairs
            # within a branch; the size rail below still catches
            # undersized leaves anywhere).
            for absorbed, target in self.state.cold_sibling_pairs(policy):
                if (
                    absorbed.leaf_id in self._directed
                    or target.leaf_id in self._directed
                ):
                    continue
                if not absorbed.contacts or not target.contacts:
                    continue
                if not (
                    self._cooled(absorbed.leaf_id, now)
                    and self._cooled(target.leaf_id, now)
                ):
                    continue
                self._direct_merge(absorbed, target, "cold")
        for leaf in self.state.leaves_needing_merge():
            # A leaf born for joiners is exempt while it fills.
            if (
                leaf.leaf_id in self._directed
                or leaf.leaf_id in self._filling
                or not leaf.contacts
            ):
                continue
            target = self.state.merge_target_for(leaf.leaf_id)
            if target is None or not target.contacts:
                continue
            self._direct_merge(leaf, target, "size")

    def _cooled(self, leaf_id: str, now: float) -> bool:
        last = self._last_reorg.get(leaf_id)
        return last is None or now - last >= self.params.reorg.cooldown

    def _direct_split(self, leaf, reason: str) -> None:
        self._directed[leaf.leaf_id] = leaf.coordinator
        new_leaf_id = self._new_leaf_id()
        self._creating[new_leaf_id] = None
        now = self.node.env.now
        if self.params.reorg.load_driven:
            self._last_reorg[leaf.leaf_id] = now
            self._last_reorg[new_leaf_id] = now
        self._split_started[new_leaf_id] = now
        self.reorg_log.append(
            {
                "t": now,
                "event": "split-directed",
                "leaf": leaf.leaf_id,
                "new": new_leaf_id,
                "reason": reason,
            }
        )
        self.events.append(("split-directed", leaf.leaf_id, new_leaf_id))
        self._trace_event(
            "split-directed",
            leaf_id=leaf.leaf_id,
            new_leaf_id=new_leaf_id,
            reason=reason,
        )
        self._send_directive(
            leaf.contacts,
            SplitDirective(
                service=self.service,
                leaf_id=leaf.leaf_id,
                new_leaf_id=new_leaf_id,
            ),
        )

    def _direct_merge(self, leaf, target, reason: str) -> None:
        self._directed[leaf.leaf_id] = None
        now = self.node.env.now
        if self.params.reorg.load_driven:
            self._last_reorg[leaf.leaf_id] = now
            self._last_reorg[target.leaf_id] = now
        self.reorg_log.append(
            {
                "t": now,
                "event": "merge-directed",
                "leaf": leaf.leaf_id,
                "target": target.leaf_id,
                "reason": reason,
            }
        )
        self.events.append(("merge-directed", leaf.leaf_id, target.leaf_id))
        self._trace_event(
            "merge-directed", leaf_id=leaf.leaf_id, target=target.leaf_id,
            reason=reason,
        )
        self._send_directive(
            leaf.contacts,
            MergeDirective(
                service=self.service,
                leaf_id=leaf.leaf_id,
                target_group=target.leaf_id,
                target_contacts=target.contacts,
            ),
        )
        self._propose(RemoveLeaf(leaf_id=leaf.leaf_id))

    def _send_directive(self, contacts: Tuple[Address, ...], body: Any) -> None:
        """RPC a directive to the first live leaf contact (failover)."""

        def attempt(index: int) -> None:
            if index >= len(contacts):
                return
            self.node.runtime.rpc.call(
                contacts[index],
                body,
                on_reply=lambda value, sender: None,
                timeout=self.probe_timeout,
                on_timeout=lambda: attempt(index + 1),
            )

        attempt(0)

    # ------------------------------------------------------- total-failure watch

    def _rewatch_coordinators(self) -> None:
        wanted: Dict[Address, str] = {}
        for leaf in self.state.leaves.values():
            if leaf.coordinator is not None:
                wanted[leaf.coordinator] = leaf.leaf_id
        for address in sorted(self._watched - set(wanted)):
            self.node.runtime.unwatch(address, f"{self.service}/leafwatch")
        for address in sorted(set(wanted) - self._watched):
            self.node.runtime.watch(address, f"{self.service}/leafwatch")
        self._watched = set(wanted)
        self._coordinator_of = wanted

    def _on_suspect(self, address: Address) -> None:
        if not self.is_manager:
            return
        leaf_id = self._coordinator_of.get(address)
        if leaf_id is None or leaf_id not in self.state.leaves:
            return
        self._probe_leaf(leaf_id, exclude={address})

    def _probe_leaf(self, leaf_id: str, exclude: Set[Address]) -> None:
        """The suspected coordinator may be just one casualty: ask the other
        recorded contacts.  If none answer, the whole leaf has failed and
        only the parent (the leader) needs to know — paper §3."""
        leaf = self.state.leaves.get(leaf_id)
        if leaf is None:
            return
        remaining = [c for c in leaf.contacts if c not in exclude]

        def attempt(index: int) -> None:
            current = self.state.leaves.get(leaf_id)
            if current is None or not self.is_manager:
                return
            if index >= len(remaining):
                # Total failure of the leaf subgroup.
                self.events.append(("leaf-lost", leaf_id))
                self._trace_event("leaf-lost", leaf_id=leaf_id)
                self._propose(RemoveLeaf(leaf_id=leaf_id))
                return
            self.node.runtime.rpc.call(
                remaining[index],
                LeafProbe(service=self.service, leaf_id=leaf_id),
                on_reply=lambda value, sender: self._probe_reply(
                    leaf_id, value, attempt, index
                ),
                timeout=self.probe_timeout,
                on_timeout=lambda: attempt(index + 1),
            )

        attempt(0)

    def _probe_reply(self, leaf_id, value, attempt, index) -> None:
        if value is None:
            attempt(index + 1)
            return
        size, contacts = value
        self._propose(
            UpdateLeaf(leaf_id=leaf_id, size=size, contacts=tuple(contacts))
        )


# -- directives (served by leaf members, defined here to avoid an import cycle) ----


@dataclass
class SplitDirective:
    service: str
    leaf_id: str
    new_leaf_id: str


@dataclass
class MergeDirective:
    service: str
    leaf_id: str
    target_group: str
    target_contacts: Tuple[Address, ...] = ()


def build_leader_group(
    env,
    service: str,
    params: LargeGroupParams,
    prefix: Optional[str] = None,
    **node_kwargs,
) -> List[LeaderReplica]:
    """Create the leader subgroup's nodes and replicas for a service."""
    prefix = prefix if prefix is not None else f"{service}-ldr"
    addresses = tuple(
        f"{prefix}-{i}" for i in range(params.leader_group_size)
    )
    replicas = []
    for address in addresses:
        node = GroupNode(env, address, **node_kwargs)
        replicas.append(LeaderReplica(node, service, addresses, params))
    return replicas
