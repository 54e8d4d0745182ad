"""Group views.

A *view* is the fundamental data structure representing a group (paper §3):
an ordered membership list plus a sequence number.  Order matters — a
member's *rank* is its index, rank 0 is the coordinator/sequencer, and
succession on failure walks down the ranks.  Views of a group form a single
totally ordered sequence (seq 1, 2, ...), which is what makes virtual
synchrony meaningful: "message m was delivered in view (g, 7)" is an
unambiguous statement every member agrees on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.net.message import Address


@dataclass(frozen=True)
class ViewId:
    """Identifies one view of one group."""

    group: str
    seq: int

    def next(self) -> "ViewId":
        return ViewId(self.group, self.seq + 1)


@dataclass(frozen=True)
class GroupView:
    """An immutable membership snapshot: (group, seq, ordered members)."""

    group: str
    seq: int
    members: Tuple[Address, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in view: {self.members}")
        if self.seq < 1:
            raise ValueError("view seq starts at 1")

    @property
    def view_id(self) -> ViewId:
        return ViewId(self.group, self.seq)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def coordinator(self) -> Address:
        if not self.members:
            raise ValueError("empty view has no coordinator")
        return self.members[0]

    def rank_of(self, address: Address) -> int:
        """Rank (0 = coordinator); raises ValueError if not a member."""
        return self.members.index(address)

    def contains(self, address: Address) -> bool:
        return address in self.members

    def others(self, address: Address) -> Tuple[Address, ...]:
        """Every member but ``address``, in rank order (no Python loop)."""
        members = self.members
        rank = members.index(address) if address in members else len(members)
        return members[:rank] + members[rank + 1:]

    def successor(
        self,
        add: Iterable[Address] = (),
        remove: Iterable[Address] = (),
    ) -> "GroupView":
        """The next view: survivors keep their relative order (so ranks only
        ever improve), joiners append at the end (lowest seniority)."""
        removed = set(remove)
        members = [m for m in self.members if m not in removed]
        for joiner in add:
            if joiner not in members:
                members.append(joiner)
        return GroupView(self.group, self.seq + 1, tuple(members))

    @classmethod
    def initial(cls, group: str, members: Iterable[Address]) -> "GroupView":
        return cls(group, 1, tuple(members))
