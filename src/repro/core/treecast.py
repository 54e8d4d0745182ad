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

Acknowledgements aggregate back up the same tree with per-leaf resiliency
(a leaf acks once ``min(resiliency, leaf size)`` members hold the
message).  In *atomic* mode delivery is two-phase: members buffer the
payload; when the root has every subtree's ack it floods a commit down the
tree, and only then do members deliver — all-or-nothing across the large
group (crashes permitting), the companion paper's "large scale atomic
broadcast".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.hierarchy import LargeGroupMember
from repro.core.leader import LeaderReplica
from repro.core.views import HierarchyState, ROOT_BRANCH
from repro.membership.events import FIFO
from repro.net.message import Address
from repro.proc.rpc import RpcError


# -- tree spec ---------------------------------------------------------------------


@dataclass(frozen=True)
class LeafTarget:
    leaf_id: str
    coordinator: Address
    size: int


@dataclass(frozen=True)
class RelaySpec:
    """One branch node's share of the broadcast tree."""

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
                    leaf_targets.append(
                        LeafTarget(leaf.leaf_id, leaf.coordinator, leaf.size)
                    )
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
        return RelaySpec(relay, tuple(leaf_targets), tuple(children))

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


@dataclass
class TreeCommit:
    category = "treecast-commit"
    size_bytes = 24
    broadcast_id: str


@dataclass
class LeafCommitPayload:
    broadcast_id: str


@dataclass
class TreeBroadcastRequest:
    """RPC body: ask the manager to broadcast to the whole large group."""

    service: str
    payload: Any = None
    atomic: bool = False


# -- participant (runs at every worker) -----------------------------------------------


class TreecastParticipant:
    """Per-worker treecast agent: relays, leaf fan-out, acks, commits."""

    def __init__(self, member: LargeGroupMember, resiliency: int = 3) -> None:
        self.member = member
        self.node = member.node
        self.resiliency = resiliency
        self._delivered: List[Tuple[str, Any]] = []
        self._listeners: List[Callable[[Any, str], None]] = []
        self._buffered: Dict[str, Any] = {}
        self._acks_needed: Dict[str, Tuple[int, Address]] = {}
        self._acks_got: Dict[str, Set[Address]] = {}
        self._relay_children: Dict[str, Tuple[RelaySpec, Tuple[LeafTarget, ...], Address]] = {}
        self._relay_acked: Dict[str, int] = {}
        self._relay_expect: Dict[str, int] = {}
        self._leaf_parent: Dict[str, Address] = {}
        self._seen: Set[str] = set()

        self.node.on(TreeCastRelay, self._on_relay)
        self.node.on(TreeCastLeaf, self._on_leaf_cast)
        self.node.on(LeafCastAck, self._on_leaf_ack)
        self.node.on(TreeAck, self._on_tree_ack)
        self.node.on(TreeCommit, self._on_commit)
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
        expected = len(spec.leaf_targets) + len(spec.children)
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                "relay-fanout", category="treecast",
                process=self.node.address, broadcast_id=msg.broadcast_id,
                leaves=len(spec.leaf_targets), relays=len(spec.children),
            )
        self._relay_children[msg.broadcast_id] = (
            spec,
            spec.leaf_targets,
            msg.parent,
        )
        self._relay_expect[msg.broadcast_id] = expected
        self._relay_acked[msg.broadcast_id] = 0
        for target in spec.leaf_targets:
            self.node.send(
                target.coordinator,
                TreeCastLeaf(
                    broadcast_id=msg.broadcast_id,
                    leaf_id=target.leaf_id,
                    payload=msg.payload,
                    atomic=msg.atomic,
                    parent=self.node.address,
                ),
            )
        for child in spec.children:
            self.node.send(
                child.relay,
                TreeCastRelay(
                    broadcast_id=msg.broadcast_id,
                    spec=child,
                    payload=msg.payload,
                    atomic=msg.atomic,
                    parent=self.node.address,
                ),
            )

    def _on_tree_ack(self, ack: TreeAck, sender: Address) -> None:
        bid = ack.broadcast_id
        if bid not in self._relay_expect:
            return
        self._relay_acked[bid] += 1
        if self._relay_acked[bid] >= self._relay_expect[bid]:
            _spec, _targets, parent = self._relay_children[bid]
            if parent:
                self.node.send(parent, TreeAck(broadcast_id=bid))

    def _on_commit(self, commit: TreeCommit, sender: Address) -> None:
        bid = commit.broadcast_id
        entry = self._relay_children.get(bid)
        if entry is not None:
            spec, targets, _parent = entry
            for target in targets:
                self.node.send(target.coordinator, TreeCommit(broadcast_id=bid))
            for child in spec.children:
                self.node.send(child.relay, TreeCommit(broadcast_id=bid))
        if bid in self._leaf_parent:
            # We are also this leaf's coordinator: commit within the leaf.
            if self.member.is_member:
                self.member.leaf_multicast(
                    LeafCommitPayload(broadcast_id=bid), FIFO
                )

    # -- leaf stage -------------------------------------------------------------------

    def _on_leaf_cast(self, msg: TreeCastLeaf, sender: Address) -> None:
        if not self.member.is_member:
            return
        self._leaf_parent[msg.broadcast_id] = msg.parent
        needed = min(self.resiliency, self.member.leaf_size)
        self._acks_needed[msg.broadcast_id] = (needed, msg.parent)
        self._acks_got.setdefault(msg.broadcast_id, set())
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
        if bid not in self._acks_needed:
            return
        got = self._acks_got.setdefault(bid, set())
        got.add(who)
        needed, parent = self._acks_needed[bid]
        if len(got) >= needed:
            del self._acks_needed[bid]
            trace = self.node.env.network.trace
            if trace is not None:
                trace.local(
                    "leaf-acked", category="treecast",
                    process=self.node.address, broadcast_id=bid,
                    acks=len(got),
                )
            self.node.send(parent, TreeAck(broadcast_id=bid))

    def _deliver(self, bid: str, payload: Any) -> None:
        self._delivered.append((bid, payload))
        for listener in list(self._listeners):
            listener(payload, bid)


# -- root (runs at the leader manager) ------------------------------------------------


class TreecastRoot:
    """Attach to a leader replica; executes broadcasts when manager."""

    _ids = itertools.count(1)

    def __init__(self, replica: LeaderReplica, ack_timeout: float = 5.0) -> None:
        self.replica = replica
        self.node = replica.node
        self.ack_timeout = ack_timeout
        self._pending: Dict[str, Dict[str, Any]] = {}
        self.completed: List[Dict[str, Any]] = []
        self.node.runtime.rpc.serve(TreeBroadcastRequest, self._serve_request)
        self.node.on(TreeAck, self._on_ack)

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
        expected = len(spec.leaf_targets) + len(spec.children)
        trace = self.node.env.network.trace
        if trace is not None:
            trace.local(
                "treecast-start", category="treecast",
                process=self.node.address, broadcast_id=bid,
                stages=spec.stage_count() + 1, atomic=atomic,
            )
        self._pending[bid] = {
            "id": bid,
            "atomic": atomic,
            "expected": expected,
            "acked": 0,
            "started_at": self.node.env.now,
            "stages": spec.stage_count() + 1,  # tree stages + leaf stage
            "spec": spec,
            "on_complete": on_complete,
            "committed": False,
        }
        for target in spec.leaf_targets:
            self.node.send(
                target.coordinator,
                TreeCastLeaf(
                    broadcast_id=bid,
                    leaf_id=target.leaf_id,
                    payload=payload,
                    atomic=atomic,
                    parent=self.node.address,
                ),
            )
        for child in spec.children:
            self.node.send(
                child.relay,
                TreeCastRelay(
                    broadcast_id=bid,
                    spec=child,
                    payload=payload,
                    atomic=atomic,
                    parent=self.node.address,
                ),
            )
        self.node.set_timer(self.ack_timeout, lambda: self._timeout(bid))
        return bid

    def _serve_request(self, body: TreeBroadcastRequest, sender: Address):
        if not self.replica.is_manager:
            return ("redirect", self.replica.member.acting_coordinator())
        bid = self.broadcast(body.payload, atomic=body.atomic)
        if bid is None:
            raise RpcError("hierarchy is empty")
        return ("started", bid)

    def _on_ack(self, ack: TreeAck, sender: Address) -> None:
        info = self._pending.get(ack.broadcast_id)
        if info is None:
            return
        info["acked"] += 1
        if info["acked"] >= info["expected"]:
            self._complete(ack.broadcast_id, timed_out=False)

    def _timeout(self, bid: str) -> None:
        if bid in self._pending:
            self._complete(bid, timed_out=True)

    def _complete(self, bid: str, timed_out: bool) -> None:
        info = self._pending.pop(bid)
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
            spec: RelaySpec = info["spec"]
            for target in spec.leaf_targets:
                self.node.send(target.coordinator, TreeCommit(broadcast_id=bid))
            for child in spec.children:
                self.node.send(child.relay, TreeCommit(broadcast_id=bid))
            info["committed"] = True
        info.pop("spec")
        on_complete = info.pop("on_complete", None)
        self.completed.append(info)
        if on_complete is not None:
            on_complete(info)


def attach_treecast(
    members: List[LargeGroupMember], resiliency: int = 3
) -> List[TreecastParticipant]:
    """Create a treecast participant on every worker."""
    return [TreecastParticipant(m, resiliency=resiliency) for m in members]
