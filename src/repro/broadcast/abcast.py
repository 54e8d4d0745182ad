"""abcast: totally ordered group multicast via a ranked sequencer.

The rank-0 member of the current view is the *sequencer*, and a position
in the total order always travels on its data (``GroupData.global_seq``).
The sequencer stamps its own ``total`` multicasts at send.  Anyone else
sends its abcast unstamped to the sequencer alone, which stamps a copy
with the next number and sends it to every other member, the originator
included; the originator holds its own copy (for a flush) until the
stamped one returns.  Either way an abcast is one message per receiver
plus, when relayed, one to the sequencer: every member receives stamped
data over the sequencer's FIFO channel, in position order, and delivers
it on arrival.

On a view change the flush reconciles: order assignments known anywhere
survive; flushed-but-unordered data is assigned a deterministic order by
the view-change coordinator (sorted by message id), so survivors still
agree.  The next view's sequencer starts from the agreed next global seq.
Assignments at or below the position every member has delivered can never
be needed again and are forgotten as the stability plane announces that
position (:meth:`TotalEngine.forget_orders`), so what a view change ships
is bounded by recent traffic, not by the age of the view.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from repro.broadcast.base import OrderingEngine
from repro.membership.events import GroupData, MessageId
from repro.membership.view import GroupView
from repro.net.message import Address


class TotalEngine(OrderingEngine):
    """Receiver-side (and sequencer-side) abcast state for one view."""

    def __init__(self, view: GroupView, me: Address, next_global_seq: int = 1) -> None:
        super().__init__(view, me)
        self.is_sequencer = view.coordinator == me
        self._next_assign = next_global_seq  # sequencer only
        self._next_deliver = next_global_seq
        # Every assignment seen this view that some member may not have
        # delivered yet: flush must be able to report orders for messages
        # delivered *here*, otherwise a member that missed the assignment
        # could be given a conflicting order at the view change.
        self._history: Dict[int, MessageId] = {}
        # Total data this member cannot deliver in this view unless a
        # stamped copy in position arrives, kept for the flush: its own
        # relayed abcasts, what reached the sequencer while a flush blocked
        # it, and stamped data past a gap (only an abandoned channel from
        # the sequencer leaves one, and the view change that follows
        # removes this member).
        self._held: Dict[MessageId, GroupData] = {}

    # -- sequencer side ----------------------------------------------------------

    def _assign(self, data: GroupData) -> int:
        """Give ``data`` the next global sequence number."""
        global_seq = self._next_assign
        trace = self._trace()
        if trace is not None:
            trace.local(
                "order-assign", category="ordering", process=self.me,
                group=self.view.group, global_seq=global_seq,
                sender=data.sender, sender_seq=data.sender_seq,
            )
        self._history[global_seq] = data.message_id
        self._next_assign = global_seq + 1
        return global_seq

    def stamp_outgoing(self, data: GroupData) -> None:
        """The sequencer's own multicast carries its order; anyone else's
        goes to the sequencer unstamped."""
        if self.is_sequencer:
            data.global_seq = self._assign(data)

    def stamp(self, data: GroupData) -> GroupData:
        """Sequencer: a copy of another member's relayed abcast carrying
        the next position.  A copy, because on the sim engine the
        originator holds the very object the sequencer received."""
        stamped = copy.copy(data)
        stamped.global_seq = self._assign(data)
        return stamped

    # -- every member ----------------------------------------------------------

    def on_receive(self, data: GroupData) -> List[GroupData]:
        global_seq = data.global_seq
        if global_seq == self._next_deliver:
            self._held.pop(data.message_id, None)
            self._history[global_seq] = data.message_id
            self._next_deliver = global_seq + 1
            return [data]
        if global_seq is not None:
            if global_seq < self._next_deliver:
                return []  # a duplicate of data delivered past
            self._history.setdefault(global_seq, data.message_id)
        self._held.setdefault(data.message_id, data)
        trace = self._trace()
        if trace is not None:
            trace.local(
                "total-hold", category="ordering", process=self.me,
                group=self.view.group, sender=data.sender,
                sender_seq=data.sender_seq,
            )
        return []

    def held(self) -> List[GroupData]:
        return list(self._held.values())

    # -- flush support ----------------------------------------------------------

    def known_orders(self) -> List[Tuple[int, MessageId]]:
        """Every order assignment seen this view and not forgotten."""
        return sorted(self._history.items())

    @property
    def delivered_through(self) -> int:
        """Highest global sequence number delivered here (the frontier
        this member reports to the stability plane)."""
        return self._next_deliver - 1

    def forget_orders(self, through: int) -> None:
        """Drop assignments every member has delivered: no survivor of a
        view change can need them (``next_global_seq`` falls back to the
        delivery frontier, which is above ``through`` everywhere)."""
        history = self._history
        for global_seq in [s for s in history if s <= through]:
            del history[global_seq]

    @property
    def next_global_seq(self) -> int:
        """Highest frontier this member knows: orders seen or assigned."""
        frontier = self._next_deliver
        if self._history:
            frontier = max(frontier, max(self._history) + 1)
        if self.is_sequencer:
            frontier = max(frontier, self._next_assign)
        return frontier


def merge_flush_orders(
    reports: List[Tuple[List[Tuple[int, MessageId]], int]],
    unordered: List[GroupData],
) -> Tuple[List[Tuple[int, MessageId]], int]:
    """Coordinator-side reconciliation of abcast state at a view change.

    ``reports`` is [(known_orders, next_global_seq)] from each flushing
    member; ``unordered`` is flushed total-order data with no known order.
    Returns the final (orders, next_global_seq): surviving assignments are
    kept, unordered messages get deterministic positions after the highest
    known frontier (sorted by message id), so all survivors deliver the
    same total order.
    """
    merged: Dict[int, MessageId] = {}
    frontier = 1
    for known, next_seq in reports:
        frontier = max(frontier, next_seq)
        for global_seq, message_id in known:
            existing = merged.get(global_seq)
            if existing is not None and existing != message_id:
                raise AssertionError(
                    f"sequencer safety violated: seq {global_seq} -> "
                    f"{existing} and {message_id}"
                )
            merged[global_seq] = message_id
    assigned_ids = set(merged.values())
    for data in sorted(unordered, key=lambda d: d.message_id):
        if data.message_id in assigned_ids:
            continue
        merged[frontier] = data.message_id
        assigned_ids.add(data.message_id)
        frontier += 1
    if merged:
        frontier = max(frontier, max(merged) + 1)
    return sorted(merged.items()), frontier
