"""Tree-structured broadcast over the hierarchy (paper §5).

    "...there will remain situations in which it is necessary to
    communicate with all the members of a large group.  For this reason we
    have designed a tree-structured broadcast algorithm which maps the
    broadcast tree onto the hierarchical group organization."

The broadcast descends the leader's branch tree: the manager sends to at
most ``fanout`` children (relay processes for branch children, leaf
coordinators for leaf children); each relay forwards to at most ``fanout``
children of its own; each leaf coordinator multicasts within its leaf.  So
no process unicasts to more than ``fanout`` tree children (plus its own
bounded leaf), and the number of stages is the tree depth —
``O(log_fanout(#leaves))``.

The manager's root stage and every relay's stage run the same code: each
waits for one ack per child stage, then acks its parent (the root, which
has none, completes).  A leaf acks once ``min(resiliency, leaf size)``
members hold the message.  In *atomic* mode delivery is two-phase:
members buffer the payload; when the root has every child's ack it
passes a commit down the tree, and only then do members deliver —
all-or-nothing across the large group (crashes permitting), the
companion paper's "large scale atomic broadcast".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.hierarchy import LargeGroupMember
from repro.core.leader import LeaderReplica
from repro.core.views import HierarchyState, ROOT_BRANCH
from repro.membership.events import FIFO
from repro.net.message import Address
from repro.proc.process import Process
from repro.proc.rpc import RpcError


# -- tree spec ---------------------------------------------------------------------


@dataclass(frozen=True)
class LeafTarget:
    leaf_id: str
    coordinator: Address


@dataclass(frozen=True)
class RelaySpec:
    """One branch node's share of the broadcast tree; ``branch`` names
    the stage."""

    branch: str
    relay: Address
    leaf_targets: Tuple[LeafTarget, ...]
    children: Tuple["RelaySpec", ...]

    def stage_count(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.stage_count() for child in self.children)


def build_spec(state: HierarchyState) -> Optional[RelaySpec]:
    """Derive the broadcast tree for the current hierarchy (root spec is
    executed by the manager itself; ``relay`` is unused at the root)."""

    def spec_for(node_id: str) -> Optional[RelaySpec]:
        leaf_targets: List[LeafTarget] = []
        children: List[RelaySpec] = []
        for child in state.branch(node_id).children:
            if child in state.leaves:
                leaf = state.leaves[child]
                if leaf.coordinator is not None:
                    leaf_targets.append(LeafTarget(leaf.leaf_id, leaf.coordinator))
            else:
                sub = spec_for(child)
                if sub is not None:
                    children.append(sub)
        if not leaf_targets and not children:
            return None
        relay = (
            leaf_targets[0].coordinator
            if leaf_targets
            else children[0].relay
        )
        return RelaySpec(node_id, relay, tuple(leaf_targets), tuple(children))

    return spec_for(ROOT_BRANCH)


# -- wire messages ------------------------------------------------------------------


@dataclass
class TreeCastRelay:
    category = "treecast-relay"
    broadcast_id: str
    spec: RelaySpec = None  # type: ignore[assignment]
    payload: Any = None
    atomic: bool = False
    parent: Address = ""


@dataclass
class TreeCastLeaf:
    category = "treecast-leaf"
    broadcast_id: str
    leaf_id: str = ""
    payload: Any = None
    atomic: bool = False
    parent: Address = ""


@dataclass
class LeafCastPayload:
    """Carried inside the leaf's ordinary vsync multicast."""

    broadcast_id: str
    payload: Any = None
    atomic: bool = False
    origin: Address = ""


@dataclass
class LeafCastAck:
    category = "treecast-ack"
    size_bytes = 24
    broadcast_id: str


@dataclass
class TreeAck:
    category = "treecast-ack"
    size_bytes = 32
    broadcast_id: str
    stage: str  # the child stage (branch or leaf id) this ack closes


@dataclass
class TreeCommit:
    category = "treecast-commit"
    size_bytes = 24
    broadcast_id: str
    stage: str  # the child stage it is addressed to


@dataclass
class LeafCommitPayload:
    broadcast_id: str


@dataclass
class TreeBroadcastRequest:
    """RPC body: ask the manager to broadcast to the whole large group."""

    service: str
    payload: Any = None
    atomic: bool = False


# -- branch stages (the manager's root and every relay) -------------------------------


@dataclass
class _Stage:
    """One process's part in one broadcast at one branch."""

    spec: RelaySpec
    parent: Address  # "" at the root
    atomic: bool
    waiting: Set[str]  # child stages that have not acked


@dataclass
class _LeafStage:
    """A leaf coordinator's part in one broadcast."""

    leaf_id: str
    parent: Address
    atomic: bool
    needed: int
    holders: Set[Address] = field(default_factory=set)


class _StageHost:
    """Runs branch stages, one record per (broadcast, stage): a plain
    stage ends once it has acked its parent, an atomic one once the
    commit has passed through it."""

    def __init__(self, node: Process) -> None:
        self.node = node
        self._stages: Dict[Tuple[str, str], _Stage] = {}
        node.on(TreeAck, self._on_tree_ack)
        node.on(TreeCommit, self._on_commit)

    def _fan_out(
        self, bid: str, spec: RelaySpec, payload: Any, atomic: bool, parent: Address
    ) -> None:
        waiting = {t.leaf_id for t in spec.leaf_targets}
        waiting.update(child.branch for child in spec.children)
        self._stages[(bid, spec.branch)] = _Stage(spec, parent, atomic, waiting)
        me = self.node.address
        for target in spec.leaf_targets:
            self.node.send(
                target.coordinator,
                TreeCastLeaf(bid, target.leaf_id, payload, atomic, parent=me),
            )
        for child in spec.children:
            self.node.send(
                child.relay, TreeCastRelay(bid, child, payload, atomic, parent=me)
            )

    def _on_tree_ack(self, ack: TreeAck, sender: Address) -> None:
        for (bid, _branch), stage in self._stages.items():
            if bid == ack.broadcast_id and ack.stage in stage.waiting:
                break
        else:
            return  # a duplicate, or a stage that has ended
        stage.waiting.remove(ack.stage)
        if not stage.waiting:
            self._all_acked(bid, stage)

    def _all_acked(self, bid: str, stage: _Stage) -> None:
        self.node.send(stage.parent, TreeAck(bid, stage.spec.branch))
        if not stage.atomic:
            del self._stages[(bid, stage.spec.branch)]

    def _on_commit(self, commit: TreeCommit, sender: Address) -> None:
        stage = self._stages.pop((commit.broadcast_id, commit.stage), None)
        if stage is not None:
            self._commit(commit.broadcast_id, stage.spec)

    def _commit(self, bid: str, spec: RelaySpec) -> None:
        for target in spec.leaf_targets:
            self.node.send(target.coordinator, TreeCommit(bid, target.leaf_id))
        for child in spec.children:
            self.node.send(child.relay, TreeCommit(bid, child.branch))


# -- participant (runs at every worker) -----------------------------------------------


class TreecastParticipant(_StageHost):
    """Per-worker treecast agent: relay stages, leaf fan-out, delivery."""

    def __init__(self, member: LargeGroupMember) -> None:
        super().__init__(member.node)
        self.member = member
        self._delivered: List[Tuple[str, Any]] = []
        self._listeners: List[Callable[[Any, str], None]] = []
        self._buffered: Dict[str, Any] = {}
        self._leaves: Dict[str, _LeafStage] = {}
        self._seen: Set[str] = set()

        self.node.on(TreeCastRelay, self._on_relay)
        self.node.on(TreeCastLeaf, self._on_leaf_cast)
        self.node.on(LeafCastAck, self._on_leaf_ack)
        member.add_delivery_listener(self._on_group_delivery)

    # -- application surface ----------------------------------------------------

    def add_listener(self, fn: Callable[[Any, str], None]) -> None:
        """``fn(payload, broadcast_id)`` on every whole-group delivery."""
        self._listeners.append(fn)

    @property
    def delivered(self) -> List[Tuple[str, Any]]:
        return list(self._delivered)

    # -- relay stage ---------------------------------------------------------------

    def _on_relay(self, msg: TreeCastRelay, sender: Address) -> None:
        spec = msg.spec
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                "relay-fanout", category="treecast",
                process=self.node.address, broadcast_id=msg.broadcast_id,
                leaves=len(spec.leaf_targets), relays=len(spec.children),
            )
        self._fan_out(msg.broadcast_id, spec, msg.payload, msg.atomic, msg.parent)

    def _on_commit(self, commit: TreeCommit, sender: Address) -> None:
        bid = commit.broadcast_id
        leaf = self._leaves.get(bid)
        if leaf is None or leaf.leaf_id != commit.stage:
            super()._on_commit(commit, sender)
            return
        del self._leaves[bid]
        if self.member.is_member:
            self.member.leaf_multicast(LeafCommitPayload(broadcast_id=bid), FIFO)

    # -- leaf stage -------------------------------------------------------------------

    def _on_leaf_cast(self, msg: TreeCastLeaf, sender: Address) -> None:
        if not self.member.is_member:
            return
        self._leaves[msg.broadcast_id] = _LeafStage(
            msg.leaf_id,
            msg.parent,
            msg.atomic,
            min(self.member.params.resiliency, self.member.leaf_size),
        )
        self.member.leaf_multicast(
            LeafCastPayload(
                broadcast_id=msg.broadcast_id,
                payload=msg.payload,
                atomic=msg.atomic,
                origin=self.node.address,
            ),
            FIFO,
        )

    def _on_group_delivery(self, event) -> None:
        payload = event.payload
        if isinstance(payload, LeafCastPayload):
            bid = payload.broadcast_id
            if bid in self._seen:
                return
            self._seen.add(bid)
            if payload.atomic:
                self._buffered[bid] = payload.payload
            else:
                self._deliver(bid, payload.payload)
            if payload.origin != self.node.address:
                self.node.send(payload.origin, LeafCastAck(broadcast_id=bid))
            else:
                self._record_leaf_ack(bid, self.node.address)
        elif isinstance(payload, LeafCommitPayload):
            buffered = self._buffered.pop(payload.broadcast_id, None)
            if buffered is not None:
                self._deliver(payload.broadcast_id, buffered)

    def _on_leaf_ack(self, ack: LeafCastAck, sender: Address) -> None:
        self._record_leaf_ack(ack.broadcast_id, sender)

    def _record_leaf_ack(self, bid: str, who: Address) -> None:
        leaf = self._leaves.get(bid)
        if leaf is None or len(leaf.holders) >= leaf.needed:
            return  # no stage here, or it has acked already
        leaf.holders.add(who)
        if len(leaf.holders) < leaf.needed:
            return
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                "leaf-acked", category="treecast",
                process=self.node.address, broadcast_id=bid,
                acks=len(leaf.holders),
            )
        self.node.send(leaf.parent, TreeAck(bid, leaf.leaf_id))
        if not leaf.atomic:
            del self._leaves[bid]

    def _deliver(self, bid: str, payload: Any) -> None:
        self._delivered.append((bid, payload))
        for listener in list(self._listeners):
            listener(payload, bid)


# -- root (runs at the leader manager) ------------------------------------------------


class TreecastRoot(_StageHost):
    """Attach to a leader replica; executes broadcasts when manager.  The
    root is the stage with no parent: when every child has acked, the
    broadcast completes."""

    def __init__(self, replica: LeaderReplica, ack_timeout: float = 5.0) -> None:
        super().__init__(replica.node)
        self._ids = replica.node.env.ids["treecast"]
        self.replica = replica
        self.ack_timeout = ack_timeout
        self._pending: Dict[str, Dict[str, Any]] = {}
        self.completed: List[Dict[str, Any]] = []
        self.node.runtime.rpc.serve(TreeBroadcastRequest, self._serve_request)

    def broadcast(
        self,
        payload: Any,
        atomic: bool = False,
        on_complete: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Optional[str]:
        """Start a whole-group broadcast; returns its id (None if the
        hierarchy is empty)."""
        spec = build_spec(self.replica.state)
        if spec is None:
            return None
        bid = f"bc-{self.node.address}-{next(self._ids)}"
        stages = spec.stage_count() + 1  # tree stages + leaf stage
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                "treecast-start", category="treecast",
                process=self.node.address, broadcast_id=bid,
                stages=stages, atomic=atomic,
            )
        self._pending[bid] = {
            "id": bid,
            "atomic": atomic,
            "started_at": self.node.env.now,
            "stages": stages,
            "on_complete": on_complete,
            "committed": False,
        }
        self._fan_out(bid, spec, payload, atomic, parent="")
        self.node.set_timer(self.ack_timeout, lambda: self._timeout(bid))
        return bid

    def _serve_request(self, body: TreeBroadcastRequest, sender: Address):
        if not self.replica.is_manager:
            return self.replica.policy.redirect_to_manager()
        bid = self.broadcast(body.payload, atomic=body.atomic)
        if bid is None:
            raise RpcError("hierarchy is empty")
        return ("started", bid)

    def _all_acked(self, bid: str, stage: _Stage) -> None:
        self._complete(bid, timed_out=False)

    def _timeout(self, bid: str) -> None:
        if bid in self._pending:
            self._complete(bid, timed_out=True)

    def _complete(self, bid: str, timed_out: bool) -> None:
        info = self._pending.pop(bid)
        stage = self._stages.pop((bid, ROOT_BRANCH))
        info["timed_out"] = timed_out
        info["elapsed"] = self.node.env.now - info["started_at"]
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                "treecast-complete", category="treecast",
                process=self.node.address, broadcast_id=bid,
                stages=info["stages"], timed_out=timed_out,
            )
        if info["atomic"] and not timed_out:
            self._commit(bid, stage.spec)
            info["committed"] = True
        on_complete = info.pop("on_complete", None)
        self.completed.append(info)
        if on_complete is not None:
            on_complete(info)


def attach_treecast(members: List[LargeGroupMember]) -> List[TreecastParticipant]:
    """Create a treecast participant on every worker."""
    return [TreecastParticipant(m) for m in members]
