"""Hierarchical group views: the replicated data model of a large group.

The paper's central storage claim (§3, "Managing group views"):

* a **leaf group** view lists member processes and lives at the leaf's own
  members (that part is :class:`repro.membership.view.GroupView`);
* a **branch group** view lists its immediate *child groups*, not
  processes, so "a complete list of the processes in a large group is not
  explicitly stored anywhere";
* branch views are managed by the resilient **group leader**.

:class:`HierarchyState` is that leader-managed structure as a pure,
deterministic state machine: it stores, per leaf, only a bounded summary
(id, size, and up to ``resiliency`` contact addresses), and a branch tree
whose nodes have at most ``fanout`` children.  All mutation goes through
:meth:`HierarchyState.apply` with serialisable ops, so the leader subgroup
can replicate it with abcast and every replica stays identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.params import LargeGroupParams
from repro.net.message import Address

ROOT_BRANCH = "branch-root"


def walk_key(
    children_of: Callable[[str], Optional[Sequence[str]]], key: str
) -> Optional[str]:
    """The key -> leaf rule of hierarchical placement: hash the key once
    (the first 8 bytes of its sha1) and, from the root, let each branch
    take its child from the next digit of that draw in base
    ``len(children)``.  ``children_of(node)`` is the child list of a
    branch and ``None`` for a leaf.  A pure function of (key, tree shape),
    independent of the process hash seed — the manager
    (:meth:`HierarchyState.place_key`) and every router that holds the
    tree (``ServiceRouter.place``) resolve a key alike.  Each level reads
    fresh bits of one digest, so the levels' picks are independent and a
    full tree is filled evenly."""
    draw = int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")
    node = ROOT_BRANCH
    while True:
        children = children_of(node)
        if children is None:
            return node
        if not children:
            return None
        draw, index = divmod(draw, len(children))
        node = children[index]


@dataclass(frozen=True)
class LeafInfo:
    """The leader's bounded summary of one leaf subgroup."""

    leaf_id: str
    parent: str
    size: int
    contacts: Tuple[Address, ...]  # first <= resiliency members, rank order
    # Smoothed load (EWMA, leaf-wide events/sec) from the coordinator's
    # periodic reports; 0.0 until the first load report arrives (size-only
    # deployments never report load, so it stays 0.0 there).
    delivery_rate: float = 0.0

    @property
    def coordinator(self) -> Optional[Address]:
        return self.contacts[0] if self.contacts else None


class CohortSet(tuple):
    """A leaf's ``contacts`` as a reader of the leader's directory hands
    them on: the leaf's cohort set (first ≤ resiliency members, rank
    order) as of the directory's last report.  A coordinator-cohort client
    built from one starts with it as its cohort set, so its first request
    needs no ``GetMembers``; a plain tuple of contacts is only a list of
    members to ask.  Local to the process that read the directory: it is
    never sent."""

    __slots__ = ()


@dataclass(frozen=True)
class BranchInfo:
    """A branch group's view: its immediate children (groups, not
    processes)."""

    branch_id: str
    parent: Optional[str]  # None for the root
    children: Tuple[str, ...]  # branch ids or leaf ids


# -- operations (the replicated log entries) ---------------------------------------


@dataclass(frozen=True)
class AddLeaf:
    leaf_id: str
    size: int
    contacts: Tuple[Address, ...]
    # Explicit attach point for the load-adaptive tree: the branch the new
    # leaf goes under ("" = the canonical/derived placement).  Size-only
    # deployments always send "" and keep the frozen derived shape.
    under: str = ""


@dataclass(frozen=True)
class UpdateLeaf:
    leaf_id: str
    size: int
    contacts: Tuple[Address, ...]
    # Load-report piggyback: negative means "no load sample" (view-change
    # reports in size mode), so frozen deployments never touch the rate.
    delivery_rate: float = -1.0


@dataclass(frozen=True)
class RemoveLeaf:
    leaf_id: str


HierarchyOp = object  # AddLeaf | UpdateLeaf | RemoveLeaf


class HierarchyError(RuntimeError):
    """An op could not be applied (unknown leaf, duplicate id, ...)."""


class HierarchyState:
    """Deterministic branch/leaf bookkeeping for one large group.

    Branch restructuring is *derived*: after every op that adds or
    removes a leaf the tree is re-balanced so no branch exceeds
    ``fanout`` children.  Because the rebalancing is a deterministic
    function of the op sequence, replicas applying the same totally
    ordered ops hold identical trees.
    """

    def __init__(self, name: str, params: LargeGroupParams) -> None:
        self.name = name
        self.params = params
        self.leaves: Dict[str, LeafInfo] = {}
        self.branches: Dict[str, BranchInfo] = {
            ROOT_BRANCH: BranchInfo(ROOT_BRANCH, None, ())
        }
        self._branch_counter = 0
        self.applied_ops = 0
        # Load-driven deployments keep an *explicit* tree: leaves attach
        # under the branch named by the op and branches split/collapse
        # incrementally (B-tree style), so depth grows where load lives.
        # Size-only deployments re-derive the canonical packing whenever
        # the leaf set changes — byte-identical frozen behaviour.
        self._explicit = params.reorg.load_driven

    # -- queries --------------------------------------------------------------------

    @property
    def total_size(self) -> int:
        """Total member count (a *derived* sum of bounded summaries — the
        full process list is never materialised)."""
        return sum(leaf.size for leaf in self.leaves.values())

    def leaf(self, leaf_id: str) -> LeafInfo:
        try:
            return self.leaves[leaf_id]
        except KeyError:
            raise HierarchyError(f"unknown leaf {leaf_id!r}") from None

    def branch(self, branch_id: str) -> BranchInfo:
        try:
            return self.branches[branch_id]
        except KeyError:
            raise HierarchyError(f"unknown branch {branch_id!r}") from None

    def smallest_leaf(self) -> Optional[LeafInfo]:
        """Join target: the least-populated leaf (deterministic tie-break)."""
        if not self.leaves:
            return None
        return min(self.leaves.values(), key=lambda l: (l.size, l.leaf_id))

    def leaves_needing_split(self) -> List[LeafInfo]:
        threshold = self.params.leaf_split_threshold
        return sorted(
            (l for l in self.leaves.values() if l.size > threshold),
            key=lambda l: l.leaf_id,
        )

    def leaves_needing_merge(self) -> List[LeafInfo]:
        """Undersized leaves (only meaningful when a sibling can absorb
        them)."""
        if len(self.leaves) < 2:
            return []
        floor = self.params.leaf_min
        return sorted(
            (l for l in self.leaves.values() if l.size < floor),
            key=lambda l: l.leaf_id,
        )

    def merge_target_for(self, leaf_id: str) -> Optional[LeafInfo]:
        """Preferred absorber: the smallest *other* leaf (keeps sizes
        level and the post-merge size below the split threshold when
        possible)."""
        candidates = [l for l in self.leaves.values() if l.leaf_id != leaf_id]
        if not candidates:
            return None
        return min(candidates, key=lambda l: (l.size, l.leaf_id))

    def depth(self) -> int:
        """Longest branch chain from root to a leaf's parent, plus the
        leaf level itself."""
        if not self.leaves:
            return 0

        def branch_depth(branch_id: str) -> int:
            node = self.branches[branch_id]
            child_branches = [c for c in node.children if c in self.branches]
            if not child_branches:
                return 1
            return 1 + max(branch_depth(c) for c in child_branches)

        return branch_depth(ROOT_BRANCH) + 1

    def max_branch_children(self) -> int:
        if not self.branches:
            return 0
        return max(len(b.children) for b in self.branches.values())

    def storage_entries(self) -> int:
        """Entries a leader replica stores: bounded leaf summaries plus
        branch child lists — the E6 measurement."""
        leaf_entries = sum(2 + len(l.contacts) for l in self.leaves.values())
        branch_entries = sum(1 + len(b.children) for b in self.branches.values())
        return leaf_entries + branch_entries

    def leaf_ids_under(self, node_id: str) -> List[str]:
        """All leaf ids in the subtree rooted at ``node_id`` (sorted)."""
        if node_id in self.leaves:
            return [node_id]
        out: List[str] = []
        for child in self.branch(node_id).children:
            out.extend(self.leaf_ids_under(child))
        return sorted(out)

    def path_to(self, leaf_id: str) -> Tuple[str, ...]:
        """Branch chain from the root down to ``leaf_id``'s parent,
        inclusive — the leaf's *placement path* carried on level-tagged
        directives and cached by routers."""
        node = self.leaf(leaf_id).parent
        path: List[str] = []
        while node is not None:
            path.append(node)
            node = self.branches[node].parent
        return tuple(reversed(path))

    def level_of(self, node_id: str) -> int:
        """Tree level, root = 1 (a leaf directly under the root is 2)."""
        if node_id in self.leaves:
            return len(self.path_to(node_id)) + 1
        level = 1
        node = self.branch(node_id).parent
        while node is not None:
            level += 1
            node = self.branches[node].parent
        return level

    def leaves_per_level(self) -> Dict[int, int]:
        """How many leaves sit at each tree level (the true recursive
        shape — a load-adapted tree is ragged, unlike the canonical
        packing)."""
        counts: Dict[int, int] = {}
        for leaf_id in self.leaves:
            level = self.level_of(leaf_id)
            counts[level] = counts.get(level, 0) + 1
        return dict(sorted(counts.items()))

    def siblings_of(self, leaf_id: str) -> List[LeafInfo]:
        """Other leaves sharing ``leaf_id``'s parent branch (sorted)."""
        leaf = self.leaf(leaf_id)
        return [
            self.leaves[c]
            for c in sorted(self.branches[leaf.parent].children)
            if c != leaf_id and c in self.leaves
        ]

    def branch_children_under(self, node_id: str) -> Dict[str, List[str]]:
        """Branch id -> child ids, in placement order, for every branch in
        the subtree rooted at ``node_id``: what :func:`walk_key` needs."""
        out: Dict[str, List[str]] = {}
        stack = [node_id]
        while stack:
            node = self.branches.get(stack.pop())
            if node is not None:
                out[node.branch_id] = list(node.children)
                stack.extend(node.children)
        return out

    def summary(self, subtree: str = "") -> Dict:
        """Recursive introspection dict (the ``GetHierarchyInfo`` reply):
        true depth, per-level leaf counts, per-leaf level/path/load, and
        the branch tree a router walks to place keys by itself."""
        root = subtree or ROOT_BRANCH
        leaf_ids = (
            self.leaf_ids_under(root)
            if root in self.branches or root in self.leaves
            else []
        )
        leaves = {}
        for leaf_id in leaf_ids:
            leaf = self.leaves[leaf_id]
            leaves[leaf_id] = {
                "size": leaf.size,
                "contacts": list(leaf.contacts),
                "level": self.level_of(leaf_id),
                "path": list(self.path_to(leaf_id)),
                "delivery_rate": round(leaf.delivery_rate, 6),
            }
        return {
            "leaves": leaves,
            "tree": self.branch_children_under(root),
            "total_size": sum(self.leaves[l].size for l in leaf_ids),
            "depth": self.depth(),
            "levels": self.leaves_per_level(),
            "branches": len(self.branches),
            "max_branch_children": self.max_branch_children(),
            "storage_entries": self.storage_entries(),
        }

    def place_key(self, key: str) -> Optional[str]:
        """The leaf responsible for ``key`` (:func:`walk_key` over this
        replica's tree)."""
        branches = self.branches

        def children_of(node: str) -> Optional[Tuple[str, ...]]:
            branch = branches.get(node)
            return branch.children if branch is not None else None

        return walk_key(children_of, key)

    # -- load-policy queries ------------------------------------------------------

    def hot_leaves(self, policy) -> List[LeafInfo]:
        """Leaves whose smoothed load crosses the hot threshold (load-driven
        splits; size splits remain a separate safety rail)."""
        return sorted(
            (
                l
                for l in self.leaves.values()
                if l.delivery_rate >= policy.hot_delivery_rate
            ),
            key=lambda l: l.leaf_id,
        )

    def is_cold(self, leaf: LeafInfo, policy) -> bool:
        return leaf.delivery_rate < policy.cold_delivery_rate

    def cold_sibling_pairs(self, policy) -> List[Tuple[LeafInfo, LeafInfo]]:
        """(absorbed, target) pairs: a cold leaf and its smallest cold
        sibling, where the combined size stays under the split threshold.
        Each leaf appears in at most one pair, so one policy pass never
        directs conflicting merges."""
        pairs: List[Tuple[LeafInfo, LeafInfo]] = []
        taken: set = set()
        limit = self.params.leaf_split_threshold
        for leaf_id in sorted(self.leaves):
            leaf = self.leaves[leaf_id]
            if leaf_id in taken or not self.is_cold(leaf, policy):
                continue
            candidates = [
                s
                for s in self.siblings_of(leaf_id)
                if s.leaf_id not in taken
                and self.is_cold(s, policy)
                and leaf.size + s.size <= limit
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda s: (s.size, s.leaf_id))
            pairs.append((leaf, target))
            taken.add(leaf_id)
            taken.add(target.leaf_id)
        return pairs

    # -- mutation -------------------------------------------------------------------

    def apply(self, op: HierarchyOp) -> None:
        """Apply one replicated op.

        Size mode re-derives the canonical branch tree when the op changes
        the leaf-id set — the tree is a function of the sorted ids alone,
        so an ``UpdateLeaf`` (which keeps the leaf's parent) leaves it as
        it was; load mode mutates the explicit tree incrementally.
        Either way the post-state is a deterministic function of the op
        sequence, so replicas stay identical.
        """
        if isinstance(op, AddLeaf):
            if op.leaf_id in self.leaves:
                raise HierarchyError(f"duplicate leaf {op.leaf_id!r}")
            self.leaves[op.leaf_id] = LeafInfo(
                leaf_id=op.leaf_id,
                parent=ROOT_BRANCH,  # fixed up by _rebuild_tree / _attach
                size=op.size,
                contacts=tuple(op.contacts[: self.params.resiliency]),
            )
            if self._explicit:
                self._attach(op.leaf_id, op.under)
        elif isinstance(op, UpdateLeaf):
            leaf = self.leaf(op.leaf_id)
            updated = replace(
                leaf,
                size=op.size,
                contacts=tuple(op.contacts[: self.params.resiliency]),
            )
            if op.delivery_rate >= 0.0:
                alpha = self.params.reorg.ewma_alpha
                updated = replace(
                    updated,
                    delivery_rate=alpha * op.delivery_rate
                    + (1.0 - alpha) * leaf.delivery_rate,
                )
            self.leaves[op.leaf_id] = updated
        elif isinstance(op, RemoveLeaf):
            self.leaf(op.leaf_id)  # raises if unknown
            if self._explicit:
                self._detach(op.leaf_id)
            del self.leaves[op.leaf_id]
        else:
            raise HierarchyError(f"unknown op {op!r}")
        if not self._explicit and not isinstance(op, UpdateLeaf):
            self._rebuild_tree()
        self.applied_ops += 1

    # -- explicit (load-adaptive) tree maintenance --------------------------------

    def _set_children(self, branch_id: str, children: Tuple[str, ...]) -> None:
        node = self.branches[branch_id]
        self.branches[branch_id] = replace(
            node, children=tuple(sorted(children))
        )

    def _set_parent(self, node_id: str, parent: str) -> None:
        if node_id in self.leaves:
            self.leaves[node_id] = replace(self.leaves[node_id], parent=parent)
        else:
            self.branches[node_id] = replace(
                self.branches[node_id], parent=parent
            )

    def _new_branch_id(self) -> str:
        self._branch_counter += 1
        return f"{self.name}/b{self._branch_counter}"

    def _attach(self, node_id: str, under: str) -> None:
        """Attach a node under ``under`` (falling back to the root when
        the named branch is unknown — e.g. it collapsed while the op was
        in flight), then split any branch the attach overflowed."""
        branch_id = under if under in self.branches else ROOT_BRANCH
        self._set_children(
            branch_id, self.branches[branch_id].children + (node_id,)
        )
        self._set_parent(node_id, branch_id)
        self._split_overflowed(branch_id)

    def _split_overflowed(self, branch_id: str) -> None:
        """B-tree style overflow: a branch with more than ``fanout``
        children sheds its upper half into a new sibling (the *root*
        instead grows a new level), recursing upward.  Every decision is
        a function of sorted child ids — replicas agree."""
        fanout = self.params.fanout
        while True:
            node = self.branches[branch_id]
            if len(node.children) <= fanout:
                return
            children = tuple(sorted(node.children))
            half = len(children) // 2
            lower, upper = children[:half], children[half:]
            if node.parent is None:  # root: grow one level
                left, right = self._new_branch_id(), self._new_branch_id()
                self.branches[left] = BranchInfo(left, branch_id, lower)
                self.branches[right] = BranchInfo(right, branch_id, upper)
                for child in lower:
                    self._set_parent(child, left)
                for child in upper:
                    self._set_parent(child, right)
                self._set_children(branch_id, (left, right))
                return
            sibling = self._new_branch_id()
            self.branches[sibling] = BranchInfo(sibling, node.parent, upper)
            for child in upper:
                self._set_parent(child, sibling)
            self._set_children(branch_id, lower)
            parent_id = node.parent
            self._set_children(
                parent_id, self.branches[parent_id].children + (sibling,)
            )
            branch_id = parent_id  # the new sibling may overflow the parent

    def _detach(self, leaf_id: str) -> None:
        branch_id = self.leaves[leaf_id].parent
        self._set_children(
            branch_id,
            tuple(c for c in self.branches[branch_id].children if c != leaf_id),
        )
        self._collapse(branch_id)

    def _collapse(self, branch_id: str) -> None:
        """Prune empty branches and hoist single children so merges
        shrink the tree as deliberately as splits grow it."""
        while branch_id is not None:
            node = self.branches[branch_id]
            if node.parent is None:  # the root
                # A root with one *branch* child loses that level.
                while True:
                    children = self.branches[branch_id].children
                    if len(children) == 1 and children[0] in self.branches:
                        only = children[0]
                        grandchildren = self.branches[only].children
                        self._set_children(branch_id, grandchildren)
                        for child in grandchildren:
                            self._set_parent(child, branch_id)
                        del self.branches[only]
                    else:
                        return
            parent_id = node.parent
            if not node.children:
                self._set_children(
                    parent_id,
                    tuple(
                        c
                        for c in self.branches[parent_id].children
                        if c != branch_id
                    ),
                )
                del self.branches[branch_id]
            elif len(node.children) == 1:
                only = node.children[0]
                self._set_children(
                    parent_id,
                    tuple(
                        only if c == branch_id else c
                        for c in self.branches[parent_id].children
                    ),
                )
                self._set_parent(only, parent_id)
                del self.branches[branch_id]
            else:
                return
            branch_id = parent_id

    # -- branch-tree derivation ---------------------------------------------------

    def _rebuild_tree(self) -> None:
        """Re-derive the branch tree from the sorted leaf-id set.

        The tree is a *canonical function of the leaf set*: sorted leaf ids
        are packed bottom-up into branches of at most ``fanout`` children
        until one level fits under the root.  Replicas that agree on the
        leaf set therefore agree on the whole tree, and the depth is
        ceil(log_fanout(#leaves)) — the multistage-broadcast bound of §3.
        """
        fanout = self.params.fanout
        level: List[str] = sorted(self.leaves)
        branches: Dict[str, BranchInfo] = {}
        parent_of: Dict[str, str] = {}
        counter = 0
        while len(level) > fanout:
            next_level: List[str] = []
            for start in range(0, len(level), fanout):
                counter += 1
                branch_id = f"{self.name}/b{counter}"
                chunk = tuple(level[start : start + fanout])
                branches[branch_id] = BranchInfo(branch_id, None, chunk)
                for child in chunk:
                    parent_of[child] = branch_id
                next_level.append(branch_id)
            level = next_level
        branches[ROOT_BRANCH] = BranchInfo(ROOT_BRANCH, None, tuple(level))
        for child in level:
            parent_of[child] = ROOT_BRANCH
        for branch_id, node in list(branches.items()):
            if branch_id != ROOT_BRANCH:
                branches[branch_id] = replace(
                    node, parent=parent_of[branch_id]
                )
        self.branches = branches
        for leaf_id, leaf in list(self.leaves.items()):
            self.leaves[leaf_id] = replace(leaf, parent=parent_of[leaf_id])
