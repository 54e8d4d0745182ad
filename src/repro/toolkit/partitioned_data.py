"""Partitioned replicated data over a hierarchical group.

Paper §3: "The leader may perform group-wide application-level functions
such as partitioning data or processing between subgroups."  This tool
realises that: the key space is partitioned across the leaf subgroups (by
stable hash over the sorted leaf list), each partition is *replicated
within its leaf* (abcast, so it survives leaf-member failures), and
clients route each operation to the owning leaf only — every read or
write touches one bounded subgroup regardless of total store size.

Rebalancing on leaf churn is deliberately simple (clients refresh their
leaf list and re-route; a vanished leaf loses its partition), matching
the paper-era design point; production systems would add key migration.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.hierarchy import LargeGroupMember
from repro.core.leader import GetHierarchyInfo, leaf_group_name
from repro.core.views import CohortSet
from repro.membership.group import GroupMember
from repro.net.message import Address
from repro.proc.process import Process
from repro.toolkit.coordinator_cohort import CoordinatorCohortClient
from repro.toolkit.hierarchical_service import HierarchicalServer
from repro.toolkit.replication import ReplicatedDict


def owner_of(key: Any, leaf_ids: List[str]) -> str:
    """Stable key -> leaf assignment over the sorted leaf list."""
    if not leaf_ids:
        raise ValueError("no leaves to own keys")
    ordered = sorted(leaf_ids)
    digest = hashlib.sha1(repr(key).encode()).digest()
    return ordered[int.from_bytes(digest[:4], "big") % len(ordered)]


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


class PartitionedStoreClient:
    """Routes each key's operations to the leaf that owns it."""

    def __init__(
        self,
        process: Process,
        rpc,
        leader_contacts: Tuple[Address, ...],
        service: str = "svc",
        timeout: float = 1.0,
    ) -> None:
        if not leader_contacts:
            raise ValueError("need leader contacts")
        self.process = process
        self.rpc = rpc
        self.service = service
        self.leader_contacts = tuple(leader_contacts)
        self.timeout = timeout
        # The leader's directory: leaf id -> the leaf's cohort set.
        self._leaves: Dict[str, CohortSet] = {}
        self._cc: Dict[str, CoordinatorCohortClient] = {}
        # Callbacks waiting for the directory fetch in flight: one fetch
        # answers every op issued before it returns.
        self._leaf_waiters: List[Callable[[bool], None]] = []

    # -- public ops ----------------------------------------------------------------

    def put(self, key: Any, value: Any, on_done: Callable[[bool], None]) -> None:
        self._op({"op": "put", "key": key, "value": value}, key,
                 lambda result: on_done(bool(result and result[0] == "ok")))

    def get(self, key: Any, on_value: Callable[[Any], None]) -> None:
        def unwrap(result) -> None:
            on_value(result[1] if result and result[0] == "value" else None)

        self._op({"op": "get", "key": key}, key, unwrap)

    def delete(self, key: Any, on_done: Callable[[bool], None]) -> None:
        self._op({"op": "delete", "key": key}, key,
                 lambda result: on_done(bool(result and result[0] == "ok")))

    def refresh(self, then: Callable[[bool], None]) -> None:
        """Re-fetch the leaf directory from the leader; a fetch already in
        flight answers ``then`` too."""
        self._leaf_waiters.append(then)
        if len(self._leaf_waiters) == 1:
            self._fetch_leaves(0)

    def owner_leaf(self, key: Any) -> Optional[str]:
        if not self._leaves:
            return None
        return owner_of(key, list(self._leaves))

    # -- internals ------------------------------------------------------------------

    def _op(self, payload, key, on_result) -> None:
        if not self._leaves:
            self.refresh(
                lambda ok: self._op(payload, key, on_result) if ok else on_result(None)
            )
            return
        leaf_id = owner_of(key, list(self._leaves))
        contacts = self._leaves[leaf_id]
        cc = self._cc.get(leaf_id)
        if cc is None:
            cc = CoordinatorCohortClient(
                self.process,
                leaf_group_name(self.service, leaf_id),
                contacts=contacts,
                rpc=self.rpc,
                timeout=self.timeout,
                max_retries=3,
                is_read=_is_get,
            )
            self._cc[leaf_id] = cc

        def failed() -> None:
            # owner leaf unreachable (dissolved/merged): refresh and retry
            self._cc.pop(leaf_id, None)
            self._leaves = {}
            self.refresh(
                lambda ok: self._op(payload, key, on_result) if ok else on_result(None)
            )

        cc.request(payload, on_result, on_failure=failed)

    def _fetch_leaves(self, index: int) -> None:
        if index >= 3 * len(self.leader_contacts):
            self._leaves_fetched(False)
            return
        contact = self.leader_contacts[index % len(self.leader_contacts)]

        def reply(value, sender) -> None:
            if isinstance(value, dict) and value.get("leaves"):
                self._leaves = {
                    leaf_id: CohortSet(info["contacts"])
                    for leaf_id, info in value["leaves"].items()
                    if info["contacts"]
                }
                self._leaves_fetched(bool(self._leaves))
            else:  # a redirect, or no leaves yet: ask the next contact
                self._fetch_leaves(index + 1)

        self.rpc.call(
            contact,
            GetHierarchyInfo(service=self.service),
            on_reply=reply,
            timeout=self.timeout,
            on_timeout=lambda: self._fetch_leaves(index + 1),
        )

    def _leaves_fetched(self, ok: bool) -> None:
        waiters, self._leaf_waiters = self._leaf_waiters, []
        for then in waiters:
            then(ok)
