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
    report_failure,
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
        # group's listeners.  Records do not carry across leaves, so a
        # write is at-least-once across a reorganisation, in the window
        # docs/protocols.md names ("The coordinator–cohort tool").
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


class KeyRoutedClient:
    """Client stub for a hierarchical service: each key's leaf from the
    tree its :class:`ServiceRouter` holds (fetched when it holds none),
    then one cached coordinator-cohort stub per leaf group.  A client with
    no key of its own passes its address, so that all its requests go to
    one leaf.  A request whose leaf stops answering (dissolved, merged or
    partitioned away) re-routes once over a freshly fetched tree; if that
    fails too, ``on_failure`` (see :meth:`CoordinatorCohortClient.request`
    for ``answer``).  A request placed from the held tree builds no
    closure: what a re-route needs rides on the stub's call."""

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

    def request(
        self,
        key: str,
        payload: Any,
        on_reply: Callable[[Any], None],
        on_failure: Optional[Callable[[], None]] = None,
        answer: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        placement = self.router.placed(key)
        if placement is None:
            self._fetch(key, payload, on_reply, on_failure, answer, key)
            return
        group, contacts = placement
        cc = self._cc.get(group) or self._stub(group, contacts)
        cc.request(payload, on_reply, on_failure, answer, key)

    def owner_leaf(self, key: str) -> Optional[str]:
        """The leaf ``key`` is routed to now, or ``None`` before the
        router holds a tree; no message is sent."""
        return self.router.place(key)

    def gave_up(self, cc: CoordinatorCohortClient, call) -> None:
        """``cc`` gave up on ``call``: drop the stub and, unless the call
        was re-routed already, place its key again over a freshly fetched
        tree."""
        self._cc.pop(cc.group, None)
        if call.key is None:
            report_failure(call.on_reply, call.on_failure, call.answer)
            return
        self.router.invalidate()
        self._fetch(call.key, call.payload, call.on_reply, call.on_failure, call.answer, None)

    # -- internals ------------------------------------------------------------------

    def _stub(self, group: str, contacts) -> CoordinatorCohortClient:
        cc = self._cc[group] = CoordinatorCohortClient(
            self.process,
            group,
            contacts=contacts,
            rpc=self.router.rpc,
            timeout=self.timeout,
            max_retries=self.max_retries,
            is_read=self.is_read,
        )
        cc.owner = self
        return cc

    def _fetch(self, key, payload, on_reply, on_failure, answer, reroute_key) -> None:
        """Place ``key`` through :meth:`ServiceRouter.resolve_key`, which
        fetches the tree; ``reroute_key`` is None for a re-routed request."""

        def placed(placement) -> None:
            if placement is None:
                report_failure(on_reply, on_failure, answer)
                return
            group, contacts = placement
            cc = self._cc.get(group) or self._stub(group, contacts)
            cc.request(payload, on_reply, on_failure, answer, reroute_key)

        self.router.resolve_key(key, placed)


def attach_hierarchical_service(
    members: List[LargeGroupMember], handler: Handler
) -> List[HierarchicalServer]:
    return [HierarchicalServer(m, handler) for m in members]
