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
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


def pack_tree(
    name: str, leaf_ids: Iterable[str], fanout: int
) -> Tuple[Dict[str, Tuple[str, ...]], int]:
    """The canonical branch tree of a leaf-id set: branch id -> children
    in placement order, and the depth.

    The sorted ids are packed bottom-up into branches of at most
    ``fanout`` children (``{name}/b1``, ``/b2``, ... in creation order)
    until one level fits under the root.  The tree is a function of the
    id set alone, so leader replicas that agree on the leaves agree on
    the whole tree, and a router packs the leader's tree from the ids the
    directory lists.  Every leaf sits at depth 1 + max(1,
    ceil(log_fanout(#leaves))) — the multistage-broadcast bound of §3;
    the depth is 0 with no leaves.
    """
    level: List[str] = sorted(leaf_ids)
    tree: Dict[str, Tuple[str, ...]] = {}
    depth = 2 if level else 0  # the root and the leaf level
    while len(level) > fanout:
        depth += 1
        next_level: List[str] = []
        for start in range(0, len(level), fanout):
            branch_id = f"{name}/b{len(tree) + 1}"
            tree[branch_id] = tuple(level[start : start + fanout])
            next_level.append(branch_id)
        level = next_level
    tree[ROOT_BRANCH] = tuple(level)
    return tree, depth


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
    removes a leaf the tree is re-packed so no branch exceeds ``fanout``
    children, in both reorganisation modes (load mode differs only in
    *when* the leader splits and merges, not in the tree's shape).
    Because the packing is a function of the leaf-id set, replicas
    applying the same totally ordered ops hold identical trees.
    """

    def __init__(self, name: str, params: LargeGroupParams) -> None:
        self.name = name
        self.params = params
        self.leaves: Dict[str, LeafInfo] = {}
        self.branches: Dict[str, BranchInfo] = {
            ROOT_BRANCH: BranchInfo(ROOT_BRANCH, None, ())
        }
        self._depth = 0

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

    def depth(self) -> int:
        """Tree levels from the root to the leaves, the leaf level
        included (0 with no leaves): every leaf sits at this level."""
        return self._depth

    def max_branch_children(self) -> int:
        if not self.branches:
            return 0
        return max(len(b.children) for b in self.branches.values())

    def siblings_of(self, leaf_id: str) -> List[LeafInfo]:
        """Other leaves sharing ``leaf_id``'s parent branch (sorted): the
        canonical packing gives a leaf's parent a sorted run of leaf ids
        and nothing else."""
        leaf = self.leaf(leaf_id)
        return [
            self.leaves[c]
            for c in self.branches[leaf.parent].children
            if c != leaf_id
        ]

    def place_key(self, key: str) -> Optional[str]:
        """The leaf responsible for ``key`` (:func:`walk_key` over this
        replica's tree)."""
        branches = self.branches

        def children_of(node: str) -> Optional[Tuple[str, ...]]:
            branch = branches.get(node)
            return branch.children if branch is not None else None

        return walk_key(children_of, key)

    # -- mutation -------------------------------------------------------------------

    def apply(self, op: HierarchyOp) -> None:
        """Apply one replicated op.

        The canonical branch tree is re-derived when the op changes the
        leaf-id set — the tree is a function of the sorted ids alone, so
        an ``UpdateLeaf`` (which keeps the leaf's parent) leaves it as it
        was.  The post-state is a deterministic function of the op
        sequence, so replicas stay identical.
        """
        if isinstance(op, AddLeaf):
            if op.leaf_id in self.leaves:
                raise HierarchyError(f"duplicate leaf {op.leaf_id!r}")
            self.leaves[op.leaf_id] = LeafInfo(
                leaf_id=op.leaf_id,
                parent=ROOT_BRANCH,  # fixed up by _rebuild_tree
                size=op.size,
                contacts=tuple(op.contacts[: self.params.resiliency]),
            )
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
            del self.leaves[op.leaf_id]
        else:
            raise HierarchyError(f"unknown op {op!r}")
        if not isinstance(op, UpdateLeaf):
            self._rebuild_tree()

    # -- branch-tree derivation ---------------------------------------------------

    def _rebuild_tree(self) -> None:
        """Re-derive the branch tree from the leaf-id set
        (:func:`pack_tree`) and point every node at its parent."""
        tree, self._depth = pack_tree(self.name, self.leaves, self.params.fanout)
        parent_of = {
            child: branch for branch, children in tree.items() for child in children
        }
        self.branches = {
            branch: BranchInfo(branch, parent_of.get(branch), children)
            for branch, children in tree.items()
        }
        for leaf_id, leaf in list(self.leaves.items()):
            self.leaves[leaf_id] = replace(leaf, parent=parent_of[leaf_id])
