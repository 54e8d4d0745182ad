"""Partitioned replicated data over a hierarchical group.

Paper §3: "The leader may perform group-wide application-level functions
such as partitioning data or processing between subgroups."  This tool
realises that: the key space is partitioned across the leaf subgroups by
the hierarchy's one placement rule (:func:`repro.core.views.walk_key`,
which the manager and every ``ServiceRouter`` apply to the same tree),
each partition is *replicated within its leaf* (abcast, so it survives
leaf-member failures), and clients route each operation to the owning
leaf only — every read or write touches one bounded subgroup regardless
of total store size.

Rebalancing on leaf churn is deliberately simple (a client whose leaf
stops answering re-fetches the tree and re-routes once; a vanished leaf
loses its partition), matching the paper-era design point; production
systems would add key migration.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core.hierarchy import LargeGroupMember
from repro.core.router import ServiceRouter
from repro.membership.group import GroupMember
from repro.net.message import Address
from repro.proc.process import Process
from repro.toolkit.hierarchical_service import HierarchicalServer, KeyRoutedClient
from repro.toolkit.replication import ReplicatedDict


def _is_get(payload: Any) -> bool:
    """A get only reads the leaf's replica, which every cohort keeps in
    the same total order: the client sends it to the coordinator alone
    and any cohort it reaches may answer it.  Puts and deletes run on the
    coordinator only.  Server and client both declare this predicate."""
    return payload.get("op") == "get"


class PartitionedStoreServer:
    """Per-worker server: a leaf-replicated table + a request handler."""

    def __init__(self, member: LargeGroupMember, store: str = "pstore") -> None:
        self.member = member
        self.store = store
        self._table: Optional[ReplicatedDict] = None
        self._service = HierarchicalServer(member, self._handle, is_read=_is_get)
        member.add_leaf_change_listener(self._on_leaf_change)

    def _on_leaf_change(self, leaf_member: GroupMember) -> None:
        # fresh per-leaf replica; the leaf's membership protocol keeps it
        # identical at every leaf member and state-transfers to joiners
        self._table = ReplicatedDict(leaf_member, self.store)

    def _handle(self, payload: Any, client: Address) -> Any:
        op = payload.get("op")
        if op == "put":
            self._table.put(payload["key"], payload["value"])
            return ("ok",)
        if op == "get":
            return ("value", self._table.get(payload["key"]))
        if op == "delete":
            self._table.delete(payload["key"])
            return ("ok",)
        return ("error", f"unknown op {op!r}")

    @property
    def service(self) -> HierarchicalServer:
        """The hierarchical coordinator-cohort server behind this store."""
        return self._service

    def local_value(self, key: Any) -> Any:
        return self._table.get(key) if self._table is not None else None


class PartitionedStoreClient(KeyRoutedClient):
    """Routes each key's operations to the leaf that owns it: the leaf
    :func:`~repro.core.views.walk_key` names over the leader's tree, the
    one ``HierarchyState.place_key`` names at the manager."""

    def __init__(
        self,
        process: Process,
        rpc,
        leader_contacts: Tuple[Address, ...],
        service: str = "svc",
        timeout: float = 1.0,
    ) -> None:
        router = ServiceRouter(
            process, service, rpc=rpc, leader_contacts=leader_contacts,
            rpc_timeout=timeout,
        )
        super().__init__(process, router, timeout=timeout, max_retries=3, is_read=_is_get)

    def put(self, key: str, value: Any, on_done: Callable[[bool], None]) -> None:
        self.request(key, {"op": "put", "key": key, "value": value},
                     lambda result: on_done(bool(result and result[0] == "ok")))

    def get(self, key: str, on_value: Callable[[Any], None]) -> None:
        def unwrap(result) -> None:
            on_value(result[1] if result and result[0] == "value" else None)

        self.request(key, {"op": "get", "key": key}, unwrap)

    def delete(self, key: str, on_done: Callable[[bool], None]) -> None:
        self.request(key, {"op": "delete", "key": key},
                     lambda result: on_done(bool(result and result[0] == "ok")))
