"""Coordinator-cohort on hierarchical groups (paper §4).

The same reliable-service abstraction as :mod:`repro.toolkit.
coordinator_cohort`, but the serving group is a *large group*: a client's
request goes only to the cohort set of **one leaf subgroup** — the first
``resiliency`` members of the leaf's view, the contacts the group leader
already keeps for it — so a write costs ``2 * resiliency`` messages and
a declared read 2, no matter how large the leaf is or how many thousands of
processes implement the service.  This is the paper's scaling fix:
"requests are broadcast to individual subgroups."

Servers re-attach automatically when their process moves between leaves
(splits/merges), so the application code is identical to the flat case —
the compatibility story of §4.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.hierarchy import LargeGroupMember
from repro.core.router import ServiceRouter
from repro.membership.group import GroupMember
from repro.net.message import Address
from repro.proc.process import Process
from repro.toolkit.coordinator_cohort import (
    CoordinatorCohortClient,
    CoordinatorCohortServer,
    Handler,
)


class HierarchicalServer:
    """Per-worker server: follows its process across leaf reorganisations.
    ``is_read`` is handed to every per-leaf server (see
    :class:`CoordinatorCohortServer`)."""

    def __init__(
        self,
        member: LargeGroupMember,
        handler: Handler,
        is_read: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.member = member
        self.handler = handler
        self.is_read = is_read
        self._current: Optional[CoordinatorCohortServer] = None
        member.add_leaf_change_listener(self._on_leaf_change)

    def _on_leaf_change(self, leaf_member: GroupMember) -> None:
        # A fresh per-leaf server; the old one dies with the old leaf
        # group's listeners.  Results do not carry across leaves: a client
        # retry after a reorganisation re-executes (at-least-once, as in
        # classical ISIS).
        self._current = CoordinatorCohortServer(
            leaf_member,
            self.handler,
            resiliency=self.member.params.resiliency,
            is_read=self.is_read,
        )

    @property
    def current(self) -> Optional[CoordinatorCohortServer]:
        """The coordinator-cohort server of the leaf this worker is in now
        (a leaf change replaces it)."""
        return self._current

    @property
    def requests_executed(self) -> int:
        return self._current.requests_executed if self._current else 0


class HierarchicalClient:
    """Client stub: leaf assignment via the router, then leaf-local CC."""

    def __init__(
        self,
        process: Process,
        router: ServiceRouter,
        timeout: float = 1.0,
        max_retries: int = 4,
    ) -> None:
        self.process = process
        self.router = router
        self.timeout = timeout
        self.max_retries = max_retries
        self._cc: Optional[CoordinatorCohortClient] = None
        self.requests_sent = 0

    def request(
        self,
        payload: Any,
        on_reply: Callable[[Any], None],
        on_failure: Optional[Callable[[], None]] = None,
    ) -> None:
        self.requests_sent += 1
        if self._cc is not None:
            self._cc.request(
                payload,
                on_reply,
                on_failure=lambda: self._retry_fresh(payload, on_reply, on_failure),
            )
            return
        self.router.assignment(
            lambda assignment: self._with_assignment(
                assignment, payload, on_reply, on_failure
            )
        )

    def _with_assignment(self, assignment, payload, on_reply, on_failure) -> None:
        if assignment is None:
            if on_failure is not None:
                on_failure()
            return
        leaf_group, contacts = assignment
        self._cc = CoordinatorCohortClient(
            self.process,
            leaf_group,
            contacts=contacts,
            rpc=self.router.rpc,
            timeout=self.timeout,
            max_retries=self.max_retries,
        )
        self._cc.request(
            payload,
            on_reply,
            on_failure=lambda: self._retry_fresh(payload, on_reply, on_failure),
        )

    def _retry_fresh(self, payload, on_reply, on_failure) -> None:
        """The assigned leaf stopped answering (dissolved or partitioned):
        invalidate and get a fresh assignment once."""
        self._cc = None
        self.router.invalidate()
        self.router.assignment(
            lambda assignment: self._with_assignment(
                assignment, payload, on_reply, on_failure
            )
        )


class KeyRoutedClient:
    """Client stub for a partitioned service: each key's leaf through
    :meth:`ServiceRouter.resolve_key`, then one cached coordinator-cohort
    stub per leaf group.  A request whose leaf stops answering (dissolved,
    merged or partitioned away) re-routes once over a freshly fetched tree
    and is then answered ``None``, so every request is answered."""

    def __init__(
        self,
        process: Process,
        router: ServiceRouter,
        timeout: float = 1.0,
        max_retries: int = 4,
        is_read: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.process = process
        self.router = router
        self.timeout = timeout
        self.max_retries = max_retries
        self.is_read = is_read
        self._cc: Dict[str, CoordinatorCohortClient] = {}

    def request(self, key: str, payload: Any, on_reply: Callable[[Any], None]) -> None:
        self._route(key, payload, on_reply, rerouted=False)

    def owner_leaf(self, key: str) -> Optional[str]:
        """The leaf ``key`` is routed to now, or ``None`` before the
        router holds a tree; no message is sent."""
        return self.router.place(key)

    def _route(self, key, payload, on_reply, rerouted: bool) -> None:
        def placed(placement) -> None:
            if placement is None:
                on_reply(None)
                return
            group, contacts = placement
            cc = self._cc.get(group)
            if cc is None:
                cc = self._cc[group] = CoordinatorCohortClient(
                    self.process,
                    group,
                    contacts=contacts,
                    rpc=self.router.rpc,
                    timeout=self.timeout,
                    max_retries=self.max_retries,
                    is_read=self.is_read,
                )

            def failed() -> None:
                self._cc.pop(group, None)
                if rerouted:
                    on_reply(None)
                    return
                self.router.invalidate_key(key)
                self._route(key, payload, on_reply, rerouted=True)

            cc.request(payload, on_reply, on_failure=failed)

        self.router.resolve_key(key, placed)


def attach_hierarchical_service(
    members: List[LargeGroupMember], handler: Handler
) -> List[HierarchicalServer]:
    return [HierarchicalServer(m, handler) for m in members]
