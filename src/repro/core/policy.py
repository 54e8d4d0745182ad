"""The manager's policy as one sans-IO core.

The group leader "is responsible for splitting subgroups which have
grown too large, and merging subgroups which are too small" (§3).
:class:`Policy` makes every such decision for one leader replica: the
leaf a joiner goes to, when a leaf splits or merges and into what, and
which leaf to probe when a coordinator is suspected.  It applies the
replicated ops to a :class:`~repro.core.views.HierarchyState`, reads
seven marks only the manager holds, and performs nothing itself.  Its
port — :class:`~repro.core.leader.LeaderReplica` in a process, fakes in
``tests/`` — supplies ``is_manager`` (the role), ``member`` (the leader
group's :class:`~repro.membership.flush.ViewCore`), ``_propose`` (abcast
an op in the leader group), ``_direct`` (RPC a directive to a leaf's
contacts), ``_probe`` (ask a leaf's other contacts whether it lives),
``_rewatch`` (watch exactly these coordinators), ``_arm_fill_tick``
(call :meth:`Policy.on_fill_tick` after a delay) and ``_record`` (an
op or a decision for the protocol log, and a trace span).

Its inputs are a delivered op, a join, a leaf's report, the fill tick,
a suspicion and a leader view change.  Every replica takes every op, so
its marks follow the leaves it holds; only the manager, the leader
group's acting coordinator (``ViewCore.is_coordinator``, read where it
is used), routes, directs, probes and watches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.views import (
    AddLeaf,
    HierarchyError,
    HierarchyState,
    LeafInfo,
    RemoveLeaf,
    UpdateLeaf,
)
from repro.net.message import Address
from repro.proc.rpc import redirect

# A leaf born for joiners that no joiner has been sent to for this long
# (logical s) has stopped growing: below leaf_min, the size rail merges it.
FILL_GRACE = 1.0


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


def _by_id(leaf: LeafInfo) -> str:
    return leaf.leaf_id


class Policy:
    """One replica's split, merge, join and probe decisions."""

    MARKS = ("_creating", "_inflight", "_filling", "_directed", "_merging",
             "_last_reorg", "_split_started")

    def __init__(self, me: Address, state: HierarchyState, port: Any) -> None:
        self.me = me
        self.state = state
        self.params = state.params
        self.port = port
        # The tree's version: +1 per applied AddLeaf or RemoveLeaf.  A
        # router places keys on the tree of one epoch (directory_reply).
        self.reorg_epoch = 0
        # Reorganisation telemetry: directive times and the
        # routing-disruption window each split caused.
        self.reorg_log: List[Dict[str, Any]] = []
        self._leaf_counter = 0
        # The marks, each keyed by leaf id.  The joiner that creates a leaf
        # not yet routable (no reported contacts); None for a split-born
        # leaf, which takes no joiner until its AddLeaf carries contacts.
        self._creating: Dict[str, Optional[Address]] = {}
        self._inflight: Dict[str, int] = {}  # joiners routed, unreported
        # Leaves born for joiners that have not yet reached leaf_min, with
        # the time a joiner was last routed to each: the size-merge rail
        # leaves them be while joiners keep arriving.
        self._filling: Dict[str, float] = {}
        # A split or merge in flight: the coordinator told to split the
        # leaf, None for a merge.
        self._directed: Dict[str, Optional[Address]] = {}
        # A merge in flight: the absorbed leaf -> its target, which is held
        # like a directed leaf until the absorbed leaf's RemoveLeaf, so no
        # pass merges it away while members are sent to it.
        self._merging: Dict[str, str] = {}
        # Load mode: when each leaf last reorganised (its cooldown).
        self._last_reorg: Dict[str, float] = {}
        self._split_started: Dict[str, float] = {}  # split-born leaf -> when
        self._fill_armed = False
        self._coordinator_of: Dict[Address, str] = {}

    # -- inputs ---------------------------------------------------------------

    def on_op(self, op: Any, now: float) -> None:
        """The leader group delivered ``op``: apply it, or skip it as every
        replica does, since all see one op sequence."""
        leaf_id = op.leaf_id
        before = self.state.leaves.get(leaf_id)
        try:
            self.state.apply(op)
        except HierarchyError:
            self.port._record("op-skipped", op)
            return
        self.port._record("op", op)
        if isinstance(op, (AddLeaf, RemoveLeaf)):
            self.reorg_epoch += 1
        if isinstance(op, RemoveLeaf):
            # Leaf ids are never reused: a removed leaf's marks go with it.
            for name in self.MARKS:
                getattr(self, name).pop(leaf_id, None)
        else:
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
            started = self._split_started.get(leaf_id)
            if started is not None and leaf.contacts:
                # A split's disruption window closes when the new leaf is
                # routable: joins, placements and directives reach it again.
                del self._split_started[leaf_id]
                self.reorg_log.append({
                    "t": now, "event": "routing-converged", "leaf": leaf_id,
                    "window": now - started,
                })
                self.port._record(
                    "reorg-routing-converged", leaf_id=leaf_id, window=now - started
                )
        if self.port.is_manager:
            self.rewatch()
            self._check(now)

    def on_join(self, joiner: Address, now: float) -> Tuple:
        """The reply to a ``JoinLarge``: ``("join", leaf, contacts)``, or
        ``("create", leaf)`` when the joiner is to open a fresh leaf, or a
        redirect from a replica that does not manage."""
        if not self.port.is_manager:
            return self.redirect_to_manager()
        target = self._pick_leaf_for_join()
        if target is None:
            leaf_id = self._new_leaf_id()
            self._creating[leaf_id] = joiner
            self._inflight[leaf_id] = 1
            self._note_filling(leaf_id, now)
            self.port._propose(AddLeaf(leaf_id=leaf_id, size=0, contacts=()))
            self.port._record("leaf-created", leaf_id, leaf_id=leaf_id)
            return ("create", leaf_id)
        leaf_id, contacts = target
        self._inflight[leaf_id] = self._inflight.get(leaf_id, 0) + 1
        if leaf_id in self._filling:
            self._note_filling(leaf_id, now)
        return ("join", leaf_id, contacts)

    def on_report(self, body: Any) -> Tuple:
        """A leaf coordinator's ``ReportLeafStatus``: the op it becomes,
        or a redirect from a replica that does not manage."""
        if not self.port.is_manager:
            return self.redirect_to_manager()
        leaf_id = body.leaf_id
        contacts = tuple(body.contacts)
        if leaf_id in self.state.leaves:
            self.port._propose(UpdateLeaf(
                leaf_id=leaf_id, size=body.size, contacts=contacts,
                delivery_rate=body.delivery_rate,
            ))
        elif leaf_id in self._creating:
            self.port._propose(
                AddLeaf(leaf_id=leaf_id, size=body.size, contacts=contacts)
            )
        else:
            return ("stale",)  # late, for a leaf already removed
        return ("ok",)

    def on_fill_tick(self, now: float) -> None:
        """Every FILL_GRACE / 2 while leaves fill: one that has stopped
        growing loses its exemption, and below leaf_min it merges."""
        stopped = [
            leaf_id
            for leaf_id, routed_at in self._filling.items()
            if now - routed_at >= FILL_GRACE
        ]
        for leaf_id in stopped:
            del self._filling[leaf_id]
        if stopped and self.port.is_manager:
            self._check(now)
        self._fill_armed = bool(self._filling)
        if self._fill_armed:
            self.port._arm_fill_tick(FILL_GRACE / 2)

    def on_suspect(self, address: Address) -> None:
        """A suspicion.  If it was of the manager, this replica may manage
        now, so the watches follow the role.  If it was of a watched
        coordinator, that may be just one casualty: probe the leaf's other
        recorded contacts."""
        self.rewatch()
        leaf_id = self._coordinator_of.get(address)
        if leaf_id in self.state.leaves:
            contacts = self.state.leaves[leaf_id].contacts
            self.port._probe(leaf_id, [c for c in contacts if c != address])

    def rewatch(self) -> None:
        """Watch every leaf's coordinator while this replica manages (the
        manager's total-failure watch), and nothing otherwise.  Called
        after every op the manager applies, every suspicion and every
        leader view event: an excluded replica lets its watches go."""
        self._coordinator_of = {
            leaf.coordinator: leaf.leaf_id
            for leaf in self.state.leaves.values()
            if leaf.coordinator is not None
        } if self.port.is_manager else {}
        self.port._rewatch(self._coordinator_of)

    def redirect_to_manager(self) -> Tuple:
        """The answer of a replica that does not manage: ask the acting
        coordinator of its view, never itself; out of the leader group
        (excluded), it names no one."""
        member = self.port.member
        return redirect(member.acting_coordinator() if member.is_member else None)

    # -- join placement -------------------------------------------------------

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
            if best is None or (effective, leaf_id) < best[:2]:
                best = (effective, leaf_id, contacts)
        # When every leaf is already at the split threshold, open a new
        # leaf instead of piling on (keeps churn down as the group grows).
        if best is None or best[0] >= self.params.leaf_split_threshold:
            return None
        return best[1], best[2]

    def _new_leaf_id(self) -> str:
        """``<manager address>/<n>``, the leaf's group name: unique across
        a failover, since each manager numbers its own leaves."""
        self._leaf_counter += 1
        return f"{self.me}/{self._leaf_counter}"

    def _note_filling(self, leaf_id: str, now: float) -> None:
        """A joiner was routed to a leaf still filling: the size-merge rail
        leaves it be until no joiner has come for FILL_GRACE."""
        self._filling[leaf_id] = now
        if not self._fill_armed:
            self._fill_armed = True
            self.port._arm_fill_tick(FILL_GRACE / 2)

    # -- the rails ------------------------------------------------------------

    def _leaves(self, keep: Callable[[LeafInfo], bool]) -> List[LeafInfo]:
        return sorted(filter(keep, self.state.leaves.values()), key=_by_id)

    def oversized(self) -> List[LeafInfo]:
        threshold = self.params.leaf_split_threshold
        return self._leaves(lambda l: l.size > threshold)

    def undersized(self) -> List[LeafInfo]:
        """Leaves below leaf_min, when there is another leaf to absorb
        them."""
        if len(self.state.leaves) < 2:
            return []
        floor = self.params.leaf_min
        return self._leaves(lambda l: l.size < floor)

    def merge_target(self, leaf_id: str) -> Optional[LeafInfo]:
        """The smallest other leaf with no directive or merge into it in
        flight: it keeps sizes level and the merged leaf below the split
        threshold when it can, and no leaf is merged into one that is
        itself being merged away."""
        others = [l for l in self.state.leaves.values()
                  if l.leaf_id != leaf_id and not self._busy(l.leaf_id)]
        return min(others, key=lambda l: (l.size, l.leaf_id), default=None)

    def hot(self) -> List[LeafInfo]:
        rate = self.params.reorg.hot_delivery_rate
        return self._leaves(lambda l: l.delivery_rate >= rate)

    def cold_pairs(self) -> List[Tuple[LeafInfo, LeafInfo]]:
        """(absorbed, target) pairs: a cold leaf and its smallest cold
        sibling, where the combined size stays under the split threshold.
        Each leaf appears in at most one pair, so one pass never directs
        conflicting merges."""
        cold = self.params.reorg.cold_delivery_rate
        limit = self.params.leaf_split_threshold
        pairs: List[Tuple[LeafInfo, LeafInfo]] = []
        taken: set = set()
        for leaf_id in sorted(self.state.leaves):
            leaf = self.state.leaves[leaf_id]
            if leaf_id in taken or leaf.delivery_rate >= cold:
                continue
            candidates = [
                s
                for s in self.state.siblings_of(leaf_id)
                if s.leaf_id not in taken
                and s.delivery_rate < cold
                and leaf.size + s.size <= limit
            ]
            if candidates:
                target = min(candidates, key=lambda s: (s.size, s.leaf_id))
                pairs.append((leaf, target))
                taken.update((leaf_id, target.leaf_id))
        return pairs

    def _busy(self, leaf_id: str) -> bool:
        """A directive, or a merge into the leaf, is in flight."""
        return leaf_id in self._directed or leaf_id in self._merging.values()

    def _free(self, now: float, *leaves: LeafInfo, cool: bool = True) -> bool:
        """Nothing is in flight for any of ``leaves`` (:meth:`_busy`),
        each has contacts to direct, and (with ``cool``) each is past its
        cooldown."""
        return all(
            not self._busy(leaf.leaf_id)
            and leaf.contacts
            and (not cool or self._cooled(leaf.leaf_id, now))
            for leaf in leaves
        )

    def _cooled(self, leaf_id: str, now: float) -> bool:
        last = self._last_reorg.get(leaf_id)
        return last is None or now - last >= self.params.reorg.cooldown

    def _check(self, now: float) -> None:
        """One pass over the rails, in order: size splits; in load mode
        hot splits (a leaf whose smoothed load crossed the hot threshold,
        however sized) and cold sibling merges; then size merges, which
        spare a leaf born for joiners while it fills.  A leaf directed
        earlier in the pass is skipped later in it."""
        for leaf in self.oversized():
            if self._free(now, leaf, cool=False):
                self._split(leaf, "size", now)
        if self.params.reorg.load_driven:
            for leaf in self.hot():
                if leaf.size >= 2 and self._free(now, leaf):
                    self._split(leaf, "hot", now)
            for absorbed, target in self.cold_pairs():
                if self._free(now, absorbed, target):
                    self._merge(absorbed, target, "cold", now)
        for leaf in self.undersized():
            if leaf.leaf_id in self._filling or not self._free(now, leaf, cool=False):
                continue
            target = self.merge_target(leaf.leaf_id)
            if target is not None and target.contacts:
                self._merge(leaf, target, "size", now)

    def _split(self, leaf: LeafInfo, reason: str, now: float) -> None:
        self._directed[leaf.leaf_id] = leaf.coordinator
        new_leaf_id = self._new_leaf_id()
        self._creating[new_leaf_id] = None
        self._cool(now, leaf.leaf_id, new_leaf_id)
        self._split_started[new_leaf_id] = now
        self.reorg_log.append({
            "t": now, "event": "split-directed", "leaf": leaf.leaf_id,
            "new": new_leaf_id, "reason": reason,
        })
        self.port._record(
            "split-directed", leaf.leaf_id, new_leaf_id,
            leaf_id=leaf.leaf_id, new_leaf_id=new_leaf_id, reason=reason,
        )
        self.port._direct(leaf.contacts, SplitDirective(
            service=self.state.name, leaf_id=leaf.leaf_id, new_leaf_id=new_leaf_id,
        ))

    def _merge(self, leaf: LeafInfo, target: LeafInfo, reason: str, now: float) -> None:
        self._directed[leaf.leaf_id] = None
        self._merging[leaf.leaf_id] = target.leaf_id
        self._cool(now, leaf.leaf_id, target.leaf_id)
        self.reorg_log.append({
            "t": now, "event": "merge-directed", "leaf": leaf.leaf_id,
            "target": target.leaf_id, "reason": reason,
        })
        self.port._record(
            "merge-directed", leaf.leaf_id, target.leaf_id,
            leaf_id=leaf.leaf_id, target=target.leaf_id, reason=reason,
        )
        self.port._direct(leaf.contacts, MergeDirective(
            service=self.state.name, leaf_id=leaf.leaf_id,
            target_group=target.leaf_id, target_contacts=target.contacts,
        ))
        self.port._propose(RemoveLeaf(leaf_id=leaf.leaf_id))

    def _cool(self, now: float, *leaf_ids: str) -> None:
        """Load mode: these leaves just reorganised; their cooldown starts."""
        if self.params.reorg.load_driven:
            for leaf_id in leaf_ids:
                self._last_reorg[leaf_id] = now
