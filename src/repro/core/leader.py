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
and converts silence into total-failure handling, each as its
:class:`~repro.core.policy.Policy` decides.  Any replica answers a
router's ``GetHierarchyInfo`` from its copy of the leaves.  When the
manager dies, the next replica manages from the moment it suspects it
(the role is read, never cached) and resumes from the replicated state;
the leader group's view change that follows removes the dead manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.params import LargeGroupParams
from repro.core.policy import Policy
from repro.core.views import HierarchyState, RemoveLeaf, UpdateLeaf
from repro.membership.events import TOTAL
from repro.membership.service import GroupNode
from repro.net.message import Address

PROBE_TIMEOUT = 0.5  # s the manager waits on a leaf contact, then asks the next


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
    """One member of the resilient leader subgroup for one service: the
    port of its :class:`~repro.core.policy.Policy`, which applies the
    replicated ops and makes every decision this replica carries out."""

    def __init__(
        self,
        node: GroupNode,
        service: str,
        leader_members: Tuple[Address, ...],
        params: LargeGroupParams,
    ) -> None:
        self.node = node
        self.service = service
        self.params = params
        self.state = HierarchyState(service, params)
        self.policy = Policy(node.address, self.state, self)
        # Manager-side reorganisation telemetry, kept apart from
        # ``events`` so the protocol log stays stable for tests.
        self.reorg_log = self.policy.reorg_log
        self.events: List[Tuple[str, Any]] = []
        self._watched: Set[Address] = set()

        runtime = node.runtime
        self.member = runtime.create_group(
            leader_group_name(service), list(leader_members)
        )
        self.member.add_delivery_listener(self._on_delivery)
        self.member.add_view_listener(lambda _event: self.policy.rewatch())
        runtime.rpc.serve(
            JoinLarge,
            lambda body, sender: self.policy.on_join(body.joiner, node.env.now),
        )
        runtime.rpc.serve(
            ReportLeafStatus, lambda body, sender: self.policy.on_report(body)
        )
        runtime.rpc.serve(
            GetHierarchyInfo,
            lambda body, sender: directory_reply(self.state, self.reorg_epoch),
        )
        runtime.detector.add_listener(self.policy.on_suspect)

    @property
    def is_manager(self) -> bool:
        return self.member.is_coordinator

    @property
    def reorg_epoch(self) -> int:
        return self.policy.reorg_epoch

    def _on_delivery(self, event) -> None:
        if isinstance(event.payload, HOp):
            self.policy.on_op(event.payload.op, self.node.env.now)

    # ---------------------------------------------------------- the port

    def _propose(self, op: Any) -> None:
        """Replicate a hierarchy op through the leader group (abcast)."""
        self.member.multicast(HOp(group=self.member.group, op=op), TOTAL)

    def _record(self, name: str, *logged: Any, **span: Any) -> None:
        """An applied or skipped op, or a manager decision: ``(name,
        *logged)`` joins the protocol log when anything is logged, and it
        is a local trace span (no-op when tracing is off; the guarded hook
        contract of repro.trace.api)."""
        if logged:
            self.events.append((name, *logged))
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                name, category="hierarchy", process=self.node.address,
                service=self.service, **span,
            )

    def _arm_fill_tick(self, delay: float) -> None:
        self.node.set_timer(
            delay, lambda: self.policy.on_fill_tick(self.node.env.now)
        )

    def _rewatch(self, coordinators: Dict[Address, str]) -> None:
        for address in sorted(self._watched - set(coordinators)):
            self.node.runtime.unwatch(address, f"{self.service}/leafwatch")
        for address in sorted(set(coordinators) - self._watched):
            self.node.runtime.watch(address, f"{self.service}/leafwatch")
        self._watched = set(coordinators)

    def _direct(self, contacts: Tuple[Address, ...], body: Any) -> None:
        """RPC a directive to the first live leaf contact."""
        self.node.runtime.rpc.walk(contacts, body, lambda *_: True, PROBE_TIMEOUT)

    def _probe(self, leaf_id: str, contacts: List[Address]) -> None:
        """Ask the leaf's other recorded contacts for its status.  If none
        answer, the whole leaf has failed and only the parent (the leader)
        needs to know — paper §3.  The walk ends once the leaf is gone or
        this replica no longer manages."""

        def answered(value, sender) -> bool:
            if value is not None:
                size, members = value
                self._propose(
                    UpdateLeaf(leaf_id=leaf_id, size=size, contacts=tuple(members))
                )
            return value is not None

        def lost() -> None:
            self._record("leaf-lost", leaf_id, leaf_id=leaf_id)
            self._propose(RemoveLeaf(leaf_id=leaf_id))

        self.node.runtime.rpc.walk(
            contacts, LeafProbe(service=self.service, leaf_id=leaf_id), answered,
            PROBE_TIMEOUT,
            stale=lambda: leaf_id not in self.state.leaves or not self.is_manager,
            exhausted=lost,
        )


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
