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
leader group's acting coordinator is the *manager*: it answers join and
client-routing RPCs, issues split/merge directives, watches leaf
coordinators, and converts silence into total-failure handling.  When the
manager dies, the leader group's own view change promotes the next
replica, which resumes from the replicated state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.naming import RegisterName
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
from repro.proc.rpc import RpcError


def leader_group_name(service: str) -> str:
    return f"{service}/leader"


def leaf_group_name(service: str, leaf_id: str) -> str:
    return f"{service}::{leaf_id}"


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

    ``level``/``path`` echo the coordinator's placement as it learned it
    from directives (telemetry; the replicated state's tree remains the
    authority).  A negative rate means "no load sample" — the size-only
    deployments always send -1 and the leader never touches the EWMA.
    """

    service: str
    leaf_id: str
    size: int
    contacts: Tuple[Address, ...]
    level: int = 0
    path: Tuple[str, ...] = ()
    delivery_rate: float = -1.0


@dataclass
class GetLeafAssignment:
    """A client asks for a leaf to direct requests to."""

    service: str


@dataclass
class GetHierarchyInfo:
    """The tree as the leader holds it — for routers (which place keys
    with it), tests, benchmarks and operators; ``subtree`` restricts the
    reply to one branch's recursive summary ("" = root)."""

    service: str
    subtree: str = ""


@dataclass
class LeafProbe:
    """Manager -> leaf contact: are you alive, what is your status?"""

    service: str
    leaf_id: str


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
        name_servers: Tuple[Address, ...] = (),
        probe_timeout: float = 0.5,
    ) -> None:
        self.node = node
        self.service = service
        self.params = params
        self.name_servers = tuple(name_servers)
        self.probe_timeout = probe_timeout
        self.state = HierarchyState(service, params)
        self.events: List[Tuple[str, Any]] = []
        self.is_manager = False
        # Structural version of the tree: bumps on every applied op that
        # adds or removes a leaf (split, merge, total failure).  Routers
        # hold the tree they place keys with as of one epoch (the
        # ``GetHierarchyInfo`` reply carries both).
        self.reorg_epoch = 0
        # Reorganisation telemetry (manager-side): directive times and
        # the routing-disruption window each reorg caused.  Kept apart
        # from ``events`` so the protocol log stays stable for tests.
        self.reorg_log: List[Dict[str, Any]] = []

        self._leaf_counter = 0
        self._creating: Dict[str, Address] = {}  # leaf_id -> designated creator
        self._inflight: Dict[str, int] = {}  # leaf_id -> joiners routed, unreported
        self._directed: Set[str] = set()  # leaf_id with split/merge in flight
        self._watched: Set[Address] = set()
        self._coordinator_of: Dict[Address, str] = {}
        self._assign_cursor = 0
        # Load-driven reorg bookkeeping: where a split-born leaf should
        # attach, when each leaf last reorganised (cooldown), and when
        # each in-flight split started (for the disruption window).
        self._pending_parent: Dict[str, str] = {}
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
        runtime.rpc.serve(GetLeafAssignment, self._serve_assignment)
        runtime.rpc.serve(GetHierarchyInfo, self._serve_info)
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
            self._register_name()
            self._rewatch_coordinators()

    def _register_name(self) -> None:
        if not self.name_servers or not self.member.is_member:
            return
        contacts = self.member.view.members
        for server in self.name_servers:
            self.node.runtime.rpc.call(
                server,
                RegisterName(name=self.service, contacts=contacts),
                on_reply=lambda value, sender: None,
                timeout=1.0,
            )

    # ------------------------------------------------------------- replication

    def _propose(self, op: Any) -> None:
        """Replicate a hierarchy op through the leader group (abcast)."""
        self.member.multicast(HOp(group=self.member.group, op=op), TOTAL)

    def _on_delivery(self, event) -> None:
        payload = event.payload
        if not isinstance(payload, HOp):
            return
        try:
            self.state.apply(payload.op)
        except HierarchyError:
            # Deterministic skip: every replica sees the same op sequence,
            # so every replica skips the same stale/duplicate ops.
            self.events.append(("op-skipped", payload.op))
            return
        self.events.append(("op", payload.op))
        if isinstance(payload.op, (AddLeaf, RemoveLeaf)):
            self.reorg_epoch += 1
        if isinstance(payload.op, (AddLeaf, UpdateLeaf)):
            self._inflight[payload.op.leaf_id] = 0
            self._creating.pop(payload.op.leaf_id, None)
            self._directed.discard(payload.op.leaf_id)
            self._note_routable(payload.op.leaf_id)
        if isinstance(payload.op, RemoveLeaf):
            self._inflight.pop(payload.op.leaf_id, None)
            self._creating.pop(payload.op.leaf_id, None)
            self._directed.discard(payload.op.leaf_id)
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
            self._propose(AddLeaf(leaf_id=leaf_id, size=0, contacts=()))
            self.events.append(("leaf-created", leaf_id))
            self._trace_event("leaf-created", leaf_id=leaf_id)
            return ("create", leaf_id, leaf_group_name(self.service, leaf_id))
        leaf_id, contacts = target
        self._inflight[leaf_id] = self._inflight.get(leaf_id, 0) + 1
        return ("join", leaf_group_name(self.service, leaf_id), contacts)

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
        # singleton leaf each).
        for leaf_id, creator in self._creating.items():
            if leaf_id not in self.state.leaves:
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
        self._leaf_counter += 1
        return f"leaf-{self.node.address}-{self._leaf_counter}"

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
                # A split-born leaf attaches under its parent's branch so
                # the tree deepens where the load is; "" keeps the
                # canonical placement (size mode, or fresh leaves).
                under=self._pending_parent.pop(body.leaf_id, ""),
            )
        )
        return ("ok",)

    # ---------------------------------------------------------- client routing

    def _serve_assignment(self, body: GetLeafAssignment, sender: Address):
        if not self.is_manager:
            return ("redirect", self.member.acting_coordinator())
        routable = [
            leaf
            for leaf in sorted(self.state.leaves.values(), key=lambda l: l.leaf_id)
            if leaf.contacts
        ]
        if not routable:
            raise RpcError(f"service {self.service} has no members yet")
        leaf = routable[self._assign_cursor % len(routable)]
        self._assign_cursor += 1
        return (
            "leaf",
            leaf_group_name(self.service, leaf.leaf_id),
            leaf.contacts,
        )

    def _serve_info(self, body: GetHierarchyInfo, sender: Address):
        # True recursive shape: per-leaf level/path/load, per-level leaf
        # counts, depth of the whole tree (or of ``subtree``).
        info = self.state.summary(getattr(body, "subtree", ""))
        info["reorg_epoch"] = self.reorg_epoch
        return info

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
            # even while comfortably sized (soft-capped: splits pause
            # once overflow has already driven the tree to max_depth).
            if self.state.depth() < policy.max_depth:
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
            if leaf.leaf_id in self._directed or not leaf.contacts:
                continue
            target = self.state.merge_target_for(leaf.leaf_id)
            if target is None or not target.contacts:
                continue
            self._direct_merge(leaf, target, "size")

    def _cooled(self, leaf_id: str, now: float) -> bool:
        last = self._last_reorg.get(leaf_id)
        return last is None or now - last >= self.params.reorg.cooldown

    def _direct_split(self, leaf, reason: str) -> None:
        self._directed.add(leaf.leaf_id)
        new_leaf_id = self._new_leaf_id()
        self._creating[new_leaf_id] = leaf.contacts[0]
        now = self.node.env.now
        parent_path = self.state.path_to(leaf.leaf_id)
        if self.params.reorg.load_driven:
            if parent_path:
                self._pending_parent[new_leaf_id] = parent_path[-1]
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
                new_group=leaf_group_name(self.service, new_leaf_id),
                level=self.state.level_of(leaf.leaf_id),
                parent_path=parent_path,
            ),
        )

    def _direct_merge(self, leaf, target, reason: str) -> None:
        self._directed.add(leaf.leaf_id)
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
                target_group=leaf_group_name(self.service, target.leaf_id),
                target_contacts=target.contacts,
                level=self.state.level_of(target.leaf_id),
                target_path=self.state.path_to(target.leaf_id),
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
    new_group: str
    # Level-tagged placement (recursive trees): the splitting leaf's tree
    # level and the branch chain above it — the new leaf attaches beside
    # it, so movers learn their place without another round trip.
    level: int = 0
    parent_path: Tuple[str, ...] = ()


@dataclass
class MergeDirective:
    service: str
    leaf_id: str
    target_group: str
    target_contacts: Tuple[Address, ...] = ()
    # Placement of the absorbing leaf (level-tagged, like SplitDirective).
    level: int = 0
    target_path: Tuple[str, ...] = ()


def build_leader_group(
    env,
    service: str,
    params: LargeGroupParams,
    name_servers: Tuple[Address, ...] = (),
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
        replicas.append(
            LeaderReplica(
                node,
                service,
                addresses,
                params,
                name_servers=name_servers,
            )
        )
    return replicas
