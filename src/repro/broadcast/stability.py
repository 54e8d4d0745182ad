"""Message stability tracking.

A multicast is *stable* once every member of the view has delivered it;
stable messages can never need retransmission at a view change, so members
may discard them.  Each member keeps, per view:

* ``delivered[s]`` — the highest (contiguous, thanks to FIFO channels)
  sender-sequence it has received from each sender ``s``;
* a log of the messages above the group-wide stable floor;
* its peers' reported watermarks, refreshed by
  :class:`~repro.membership.events.StabilityGossip` — sent to every
  member, but only when the sender's watermarks have moved since it last
  sent them (docs/comms.md), so the tracker must never assume a peer
  reports periodically.

The unstable suffix (everything above the floor) is exactly what the flush
protocol must reconcile — keeping it small is what makes view changes
cheap, and is why the paper worries about the cost of "ever larger
broadcasts" in big flat groups: a busy group's gossip is all-to-all.

The tracker sits on the per-message hot path (every delivery records, every
gossip updates watermarks), so the group-wide floors are cached and
maintained incrementally: watermarks only ever rise, and raising an entry
can move ``min`` over the peers only when the old entry sat *at* the
current floor.  Most updates therefore skip the O(members) rescan, and
truncation touches only senders whose floor actually moved.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.membership.events import GroupData
from repro.net.message import Address


class StabilityTracker:
    """Per-view unstable-message log and watermark bookkeeping."""

    def __init__(self, me: Address, members: Iterable[Address]) -> None:
        self._me = me
        self._members = tuple(members)
        self._delivered: Dict[Address, int] = {m: 0 for m in self._members}
        self._peer_view: Dict[Address, Dict[Address, int]] = {
            m: {s: 0 for s in self._members} for m in self._members
        }
        self._log: Dict[Address, Dict[int, GroupData]] = {
            m: {} for m in self._members
        }
        # Cached min-over-peers watermark per sender, plus the senders whose
        # log may hold entries at or below their floor (pending truncation).
        self._floor: Dict[Address, int] = {m: 0 for m in self._members}
        self._dirty: Set[Address] = set()
        # record() keeps our own peer-view row synced to ``_delivered`` one
        # key at a time; gossip naming *us* as the peer can push the row
        # ahead, after which the next record() falls back to a full resync.
        self._me_row_synced = True

    # -- recording -------------------------------------------------------------

    def record(self, data: GroupData) -> None:
        """Record a message this member has received (or sent: senders
        record their own multicasts so in-flight copies survive a flush)."""
        sender = data.sender
        if sender not in self._delivered:
            return  # departed sender; flush handles its fate
        if data.sender_seq > self._delivered[sender]:
            self._delivered[sender] = data.sender_seq
        self._log[sender][data.sender_seq] = data
        if self._me_row_synced:
            mine = self._peer_view[self._me]
            old = mine[sender]
            new = self._delivered[sender]
            if new > old:
                mine[sender] = new
                if old == self._floor[sender]:
                    self._refloor(sender)
        else:
            self._peer_view[self._me] = dict(self._delivered)
            self._me_row_synced = True
            for s in self._members:
                self._refloor(s)
        if data.sender_seq <= self._floor[sender]:
            self._dirty.add(sender)  # logged at/below floor; truncate later

    def watermarks(self) -> Dict[Address, int]:
        return dict(self._delivered)

    def on_gossip(self, peer: Address, delivered: Dict[Address, int]) -> None:
        if peer not in self._peer_view:
            return
        mine = self._peer_view[peer]
        mine_get = mine.get
        floor = self._floor
        for sender, seq in delivered.items():
            old = mine_get(sender)
            if old is not None and seq > old:
                mine[sender] = seq
                if old == floor[sender]:
                    self._refloor(sender)
        if peer == self._me:
            self._me_row_synced = False
        self._truncate()

    # -- queries ----------------------------------------------------------------

    def stable_floor(self, sender: Address) -> int:
        """Highest seq from ``sender`` known delivered by *every* member."""
        cached = self._floor.get(sender)
        if cached is not None:
            return cached
        return min(view.get(sender, 0) for view in self._peer_view.values())

    def unstable(self) -> List[GroupData]:
        """All logged messages above the stable floor (flush payload)."""
        out: List[GroupData] = []
        for sender, entries in self._log.items():
            floor = self._floor[sender]
            out.extend(
                data for seq, data in sorted(entries.items()) if seq > floor
            )
        return out

    def log_size(self) -> int:
        return sum(len(entries) for entries in self._log.values())

    def _refloor(self, sender: Address) -> None:
        """Recompute one sender's floor after a contributing entry rose."""
        new = min(view[sender] for view in self._peer_view.values())
        if new != self._floor[sender]:
            self._floor[sender] = new
            self._dirty.add(sender)

    def _truncate(self) -> None:
        if not self._dirty:
            return
        for sender in self._dirty:
            entries = self._log[sender]
            floor = self._floor[sender]
            for seq in [s for s in entries if s <= floor]:
                del entries[seq]
        self._dirty.clear()
