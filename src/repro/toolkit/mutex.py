"""Distributed mutual exclusion within a process group.

The toolkit's mutual-exclusion entry, built on total order: every acquire
and release is an abcast, so all members maintain an identical waiter
queue; the process at the head holds the lock.  Virtual synchrony supplies
failure handling for free — when a view change removes a member, every
survivor prunes it from the queue at the same point in the delivery
stream, so a crashed holder's lock passes to the next waiter consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.membership.events import TOTAL, DeliveryEvent, ViewEvent
from repro.membership.group import GroupMember
from repro.net.message import Address


@dataclass
class MutexOp:
    category = "mutex-op"
    size_bytes = 48
    lock: str
    kind: str  # "acquire" | "release"
    who: Address = ""


class DistributedMutex:
    """One named lock shared by a group.  Attach one instance per member."""

    def __init__(self, member: GroupMember, lock: str = "lock") -> None:
        self.member = member
        self.lock = lock
        self._queue: List[Address] = []
        self._granted: Optional[Callable[[], None]] = None
        self._waiting = False
        member.add_delivery_listener(self._on_delivery)
        member.add_view_listener(self._on_view)

    # -- public --------------------------------------------------------------------

    @property
    def holder(self) -> Optional[Address]:
        return self._queue[0] if self._queue else None

    @property
    def held_by_me(self) -> bool:
        return self.holder == self.member.me

    @property
    def queue(self) -> List[Address]:
        return list(self._queue)

    def acquire(self, on_granted: Callable[[], None]) -> None:
        """Request the lock; ``on_granted`` fires when this process reaches
        the head of the replicated queue."""
        if self._waiting or self.held_by_me:
            raise RuntimeError(f"{self.member.me} already holds/awaits {self.lock}")
        self._waiting = True
        self._granted = on_granted
        self.member.multicast(
            MutexOp(lock=self.lock, kind="acquire", who=self.member.me), TOTAL
        )

    def release(self) -> None:
        if not self.held_by_me:
            raise RuntimeError(f"{self.member.me} does not hold {self.lock}")
        self.member.multicast(
            MutexOp(lock=self.lock, kind="release", who=self.member.me), TOTAL
        )

    # -- replicated queue ---------------------------------------------------------

    def _on_delivery(self, event: DeliveryEvent) -> None:
        payload = event.payload
        if not isinstance(payload, MutexOp) or payload.lock != self.lock:
            return
        if payload.kind == "acquire":
            if payload.who not in self._queue:
                self._queue.append(payload.who)
        elif payload.kind == "release":
            if self._queue and self._queue[0] == payload.who:
                self._queue.pop(0)
        self._maybe_grant()

    def _on_view(self, event: ViewEvent) -> None:
        """Prune departed members; every survivor does this at the same
        point in its delivery stream, so queues stay identical."""
        departed = set(event.departed)
        if departed:
            self._queue = [w for w in self._queue if w not in departed]
            self._maybe_grant()

    def _maybe_grant(self) -> None:
        if self.held_by_me and self._waiting:
            self._waiting = False
            granted, self._granted = self._granted, None
            if granted is not None:
                granted()
