"""Client-side routing to a hierarchically organised service.

The paper's request path: "The large group is used for naming purposes to
identify the service, but requests are broadcast to individual subgroups."
A :class:`ServiceRouter` resolves a service name to the leader (via the
name service or static contacts), obtains a leaf assignment from the
manager, caches it, and invalidates it when requests start failing — so a
client only ever talks to one bounded subgroup, never to all n members.

Per-key placement (:meth:`ServiceRouter.resolve_key`) costs the leader
one round trip per reorg epoch, not one per key: the router fetches the
branch tree once and walks it with the leader's own rule
(:func:`repro.core.views.walk_key`).  Nor does it cost a round trip to
the leaf: every placement or assignment names the leaf's contacts as a
:class:`~repro.core.views.CohortSet`, the leaf's cohort set, so a
coordinator-cohort client built from it sends its first request straight
to the set, with no ``GetMembers``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.leader import GetHierarchyInfo, GetLeafAssignment, leaf_group_name
from repro.core.naming import NameClient
from repro.core.views import CohortSet, walk_key
from repro.net.message import Address
from repro.proc.process import Process
from repro.proc.rpc import Rpc

Assignment = Tuple[str, CohortSet]  # (leaf group name, its cohort set)
AssignmentFn = Callable[[Optional[Assignment]], None]


class ServiceRouter:
    """Resolves and caches a leaf assignment for one service."""

    def __init__(
        self,
        process: Process,
        service: str,
        rpc: Optional[Rpc] = None,
        leader_contacts: Tuple[Address, ...] = (),
        name_client: Optional[NameClient] = None,
        rpc_timeout: float = 0.5,
    ) -> None:
        if not leader_contacts and name_client is None:
            raise ValueError("need leader contacts or a name client")
        self._process = process
        self.service = service
        self._rpc = rpc if rpc is not None else Rpc(process)
        self._static_contacts = tuple(leader_contacts)
        self._name_client = name_client
        self._timeout = rpc_timeout
        self._assignment: Optional[Assignment] = None
        self.lookups = 0
        # Hierarchical placement: the leader's tree (branch -> children)
        # as of one reorg epoch, walked locally, and each routable leaf's
        # (group name, cohort set), built once per fetch.  A failure on a
        # placement drops the tree (``invalidate_key``); the next fetch
        # shows whether a split or merge had moved the epoch.
        self._tree: Optional[Dict[str, List[str]]] = None
        self._placements: Dict[str, Assignment] = {}
        self._placement_epoch: Optional[int] = None
        self._tree_waiters: List[Tuple[str, AssignmentFn]] = []
        self.placement_lookups = 0  # tree fetches asked of the leader
        self.placement_hits = 0  # keys placed without asking anybody
        self.placement_invalidations = 0  # fetches that found a new epoch

    @property
    def rpc(self) -> Rpc:
        return self._rpc

    @property
    def cached_assignment(self) -> Optional[Assignment]:
        return self._assignment

    def invalidate(self) -> None:
        """Drop the cached leaf (call after repeated request failures)."""
        self._assignment = None
        self._tree = None
        self._placement_epoch = None
        if self._name_client is not None:
            self._name_client.invalidate(self.service)

    def assignment(self, on_ready: AssignmentFn) -> None:
        """Yield a (leaf group, contacts) assignment, from cache if warm."""
        if self._assignment is not None:
            on_ready(self._assignment)
            return
        self._resolve_leader(
            lambda contacts: self._ask_leader(contacts, 0, on_ready)
        )

    def resolve_key(self, key: str, on_ready: AssignmentFn) -> None:
        """Hierarchical placement: yield the (leaf group, contacts) the
        tree walk assigns to ``key`` — the leaf the manager's
        ``place_key`` names, worked out here from the tree this router
        holds.  The tree is fetched when there is none."""
        if self._tree is not None:
            placement = self._placements.get(self.place(key))
            if placement is not None:
                self.placement_hits += 1
                on_ready(placement)
                return
            self._tree = None  # empty, or the leaf is not routable yet
        self._tree_waiters.append((key, on_ready))
        if len(self._tree_waiters) == 1:
            self._resolve_leader(lambda contacts: self._ask_tree(contacts, 0))

    def place(self, key: str) -> Optional[str]:
        """The leaf id the tree this router holds names for ``key``, with
        no message sent; ``None`` while it holds no tree."""
        if self._tree is None:
            return None
        return walk_key(self._tree.get, key)

    def invalidate_key(self, key: str) -> None:
        """Requests to ``key``'s placement are failing: the tree that
        placed it is out of date, so the next resolve fetches it again."""
        self._tree = None

    # -- internals ----------------------------------------------------------------

    def _resolve_leader(self, then: Callable[[Tuple[Address, ...]], None]) -> None:
        if self._name_client is not None:
            def resolved(contacts: Optional[Tuple[Address, ...]]) -> None:
                then(contacts if contacts else self._static_contacts)

            self._name_client.resolve(self.service, resolved)
        else:
            then(self._static_contacts)

    def _ask_leader(
        self,
        contacts: Tuple[Address, ...],
        index: int,
        on_ready: AssignmentFn,
    ) -> None:
        if not contacts or index >= 3 * len(contacts):
            on_ready(None)
            return
        self.lookups += 1
        contact = contacts[index % len(contacts)]

        def reply(value, sender) -> None:
            if value is None:
                self._ask_leader(contacts, index + 1, on_ready)
            elif value[0] == "redirect":
                target = value[1]
                new_contacts = contacts if target in contacts else contacts + (target,)
                next_index = (
                    new_contacts.index(target)
                    if target in new_contacts
                    else index + 1
                )
                self._ask_leader(new_contacts, next_index, on_ready)
            elif value[0] == "leaf":
                self._assignment = (value[1], CohortSet(value[2]))
                trace = self._process.env.network.trace
                if trace is not None:
                    trace.local(
                        "leaf-assigned", category="routing",
                        process=self._process.address,
                        service=self.service, leaf_group=value[1],
                    )
                on_ready(self._assignment)
            else:
                self._ask_leader(contacts, index + 1, on_ready)

        self._rpc.call(
            contact,
            GetLeafAssignment(service=self.service),
            on_reply=reply,
            timeout=self._timeout,
            on_timeout=lambda: self._ask_leader(contacts, index + 1, on_ready),
        )

    def _ask_tree(self, contacts: Tuple[Address, ...], index: int) -> None:
        if not contacts or index >= 3 * len(contacts):
            self._tree_fetched()
            return
        self.placement_lookups += 1
        contact = contacts[index % len(contacts)]

        def reply(value, sender) -> None:
            if not isinstance(value, dict):
                self._ask_tree(contacts, index + 1)
                return
            epoch = value["reorg_epoch"]
            if self._placement_epoch not in (None, epoch):
                # The tree changed shape since the last one was fetched.
                self.placement_invalidations += 1
            self._placement_epoch = epoch
            self._tree = value["tree"]
            self._placements = {
                leaf_id: (leaf_group_name(self.service, leaf_id),
                          CohortSet(info["contacts"]))
                for leaf_id, info in value["leaves"].items()
                if info["contacts"]
            }
            trace = self._process.env.network.trace
            if trace is not None:
                trace.local(
                    "placement-tree-fetched", category="routing",
                    process=self._process.address, service=self.service,
                    leaves=len(value["leaves"]), epoch=epoch,
                )
            self._tree_fetched()

        self._rpc.call(
            contact,
            GetHierarchyInfo(service=self.service),
            on_reply=reply,
            timeout=self._timeout,
            on_timeout=lambda: self._ask_tree(contacts, index + 1),
        )

    def _tree_fetched(self) -> None:
        """Answer every resolve that waited for the fetch (``None`` if the
        leader could not be reached or cannot place the key yet)."""
        waiters, self._tree_waiters = self._tree_waiters, []
        for key, on_ready in waiters:
            on_ready(self._placements.get(self.place(key)))
