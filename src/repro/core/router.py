"""Client-side routing to a hierarchically organised service.

The paper's request path: "The large group is used for naming purposes to
identify the service, but requests are broadcast to individual subgroups."
A :class:`ServiceRouter` is given the service's leader contacts, fetches
the leaf directory from any leader replica, packs the branch tree from
its leaf ids with the leader's own function
(:func:`repro.core.views.pack_tree`), and places each key on a leaf by
walking that tree with the leader's own rule
(:func:`repro.core.views.walk_key`) — so a client only ever talks to one
bounded subgroup, never to all n members.  A client with no key of its
own places itself by its address.

A placement costs the leader one round trip per reorg epoch, not one per
key: the tree is fetched once, and dropped
(:meth:`ServiceRouter.invalidate`) when requests to a placement start
failing.  Nor does it cost a round trip to the leaf: every placement
names the leaf's contacts as a :class:`~repro.core.views.CohortSet`, the
leaf's cohort set, so a coordinator-cohort client built from it sends
its first request straight to the set, with no ``GetMembers``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.leader import GetHierarchyInfo
from repro.core.views import CohortSet, pack_tree, walk_key
from repro.net.message import Address
from repro.proc.process import Process
from repro.proc.rpc import Rpc

Placement = Tuple[str, CohortSet]  # (leaf group name, its cohort set)
PlacementFn = Callable[[Optional[Placement]], None]


class ServiceRouter:
    """Places keys on the leaves of one service's branch tree."""

    def __init__(
        self,
        process: Process,
        service: str,
        rpc: Optional[Rpc] = None,
        leader_contacts: Tuple[Address, ...] = (),
        rpc_timeout: float = 0.5,
    ) -> None:
        if not leader_contacts:
            raise ValueError("need leader contacts")
        self._process = process
        self.service = service
        self._rpc = rpc if rpc is not None else Rpc(process)
        self._leader_contacts = tuple(leader_contacts)
        self._timeout = rpc_timeout
        # The leader's tree (branch -> children) as of one reorg epoch,
        # packed from the directory and walked locally, and each routable
        # leaf's (group name, cohort set), built once per fetch.  A failure on a placement drops the
        # tree (``invalidate``); the next fetch shows whether a split or
        # merge had moved the epoch.
        self._tree: Optional[Dict[str, Tuple[str, ...]]] = None
        self._placements: Dict[str, Placement] = {}
        self._placement_epoch: Optional[int] = None
        self._tree_waiters: List[Tuple[str, PlacementFn]] = []
        self.placement_lookups = 0  # tree fetches asked of the leader
        self.placement_hits = 0  # keys placed without asking anybody
        self.placement_invalidations = 0  # fetches that found a new epoch

    @property
    def rpc(self) -> Rpc:
        return self._rpc

    def resolve_key(self, key: str, on_ready: PlacementFn) -> None:
        """Hierarchical placement: yield the (leaf group, contacts) the
        tree walk assigns to ``key`` — the leaf the manager's
        ``place_key`` names, worked out here from the tree this router
        holds.  The tree is fetched when there is none."""
        placement = self.placed(key)
        if placement is not None:
            on_ready(placement)
            return
        self._tree_waiters.append((key, on_ready))
        if len(self._tree_waiters) == 1:
            self.placement_lookups += 1
            self._rpc.walk(
                3 * self._leader_contacts,
                GetHierarchyInfo(service=self.service),
                self._answered,
                self._timeout,
                exhausted=self._tree_fetched,
            )

    def placed(self, key: str) -> Optional[Placement]:
        """The placement the tree this router holds gives ``key``, counted
        as a hit, in one call and with no message sent.  ``None`` when
        there is no tree to place it from, or its leaf is not routable;
        the tree is dropped then, so that :meth:`resolve_key` fetches
        it."""
        tree = self._tree
        if tree is None:
            return None
        placement = self._placements.get(walk_key(tree.get, key))
        if placement is None:
            self._tree = None  # empty, or the leaf is not routable yet
            return None
        self.placement_hits += 1
        return placement

    def place(self, key: str) -> Optional[str]:
        """The leaf id the tree this router holds names for ``key``, with
        no message sent; ``None`` while it holds no tree."""
        if self._tree is None:
            return None
        return walk_key(self._tree.get, key)

    def invalidate(self) -> None:
        """Requests to a placement are failing: the tree that placed it is
        out of date, so the next resolve fetches it again."""
        self._tree = None

    # -- internals ----------------------------------------------------------------

    def _answered(self, value: Any, sender: Address) -> bool:
        """A directory ends the fetch; anything else is refused."""
        if not isinstance(value, dict):
            return False
        self._hold(value)
        self._tree_fetched()
        return True

    def _hold(self, directory: Dict) -> None:
        """Take a ``GetHierarchyInfo`` reply
        (:func:`~repro.core.leader.directory_reply`): pack its leaf ids
        into the leader's tree with the leader's own function, and name
        each leaf that has contacts as a placement."""
        epoch = directory["reorg_epoch"]
        if self._placement_epoch not in (None, epoch):
            # The tree changed shape since the last one was fetched.
            self.placement_invalidations += 1
        self._placement_epoch = epoch
        leaves = directory["leaves"]
        self._tree, _ = pack_tree(self.service, leaves, directory["fanout"])
        self._placements = {
            leaf_id: (leaf_id, CohortSet(contacts))
            for leaf_id, contacts in leaves.items()
            if contacts
        }
        trace = self._process.env.network.trace
        if trace is not None:
            trace.local(
                "placement-tree-fetched", category="routing",
                process=self._process.address, service=self.service,
                leaves=len(leaves), epoch=epoch,
            )

    def _tree_fetched(self) -> None:
        """Answer every resolve that waited for the fetch (``None`` if the
        leader could not be reached or cannot place the key yet)."""
        waiters, self._tree_waiters = self._tree_waiters, []
        for key, on_ready in waiters:
            on_ready(self._placements.get(self.place(key)))
