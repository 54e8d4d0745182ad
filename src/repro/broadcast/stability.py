"""Message stability tracking.

A multicast is *stable* once every member of the view has received it;
stable messages can never need retransmission at a view change, so members
may discard them.  Stability is agreed through the view's coordinator
(rank 0), not all-to-all (docs/comms.md): members *report* to it, it
announces *floors* back.  Each member keeps, per view:

* ``delivered[s]`` — its *watermark* for each sender ``s``: the highest
  sender-sequence up to which it has received everything ``s`` sent;
* a log of the messages above the group-wide stable floor;
* the floors themselves, and which of its watermarks the coordinator has
  not been told yet.

That is O(members).  Only the coordinator keeps the members × senders
table of reported watermarks; it takes the minimum per sender and, on its
own gossip tick, announces the floors that moved.  A report carries only
the entries that moved and is sent only when some did, and likewise an
announcement, so an idle group sends nothing in either direction and a
tracker must never assume a peer reports periodically.

The same two messages carry the abcast *delivery frontier* (the highest
global sequence number a member has delivered) and its minimum, which is
what lets :class:`~repro.broadcast.abcast.TotalEngine` forget order
assignments nobody can need again.

A watermark is a contiguous prefix, not the highest sequence received:
a sender's fbcast and cbcast reach a member directly, but its abcast is
relayed through the sequencer (:mod:`repro.broadcast.abcast`), so a later
fbcast can overtake an earlier abcast.  Were the watermark the highest
sequence, a floor could pass a relayed abcast that some member lacks; a
member that has it would truncate it, and if the sequencer and the sender
then died, no survivor's flush would carry the message that member has
delivered.

A floor is a minimum over watermarks that were true when reported, and
watermarks only rise, so a floor can lag the true minimum (by the report
and announcement in flight: about one gossip interval more than
all-to-all gossip did) but never lead it.  Lagging is safe — a member
merely keeps, and at a view change re-sends, a little more than it had
to; leading would discard a message some member still lacks.

The unstable suffix (everything above the floor) is exactly what the flush
protocol must reconcile — keeping it small is what makes view changes
cheap, and is why the paper worries about the cost of "ever larger
broadcasts" in big flat groups.

The tracker sits on the per-message hot path (every receipt records), so
the coordinator maintains its floors incrementally: watermarks only ever
rise, and raising an entry can move ``min`` over the members only when
the old entry sat *at* the current floor.  Most updates therefore skip
the O(members) rescan, and truncation touches only senders whose floor
actually moved.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.membership.events import GroupData
from repro.net.message import Address

Moved = Tuple[Dict[Address, int], int]
"""One hop of the stability plane: (per-sender entries that moved, abcast
delivery frontier) — a report towards the coordinator, floors from it."""


class StabilityTracker:
    """Per-view unstable-message log and watermark bookkeeping.

    ``members`` is the view in rank order: whoever is first keeps the
    table and announces floors, everyone else reports to it.  ``ordered``
    is the abcast delivery frontier the view starts from.
    """

    def __init__(
        self, me: Address, members: Iterable[Address], ordered: int = 0
    ) -> None:
        self._me = me
        members = tuple(members)
        self._delivered: Dict[Address, int] = {m: 0 for m in members}
        # Sender -> its logged messages by seq; only senders with
        # messages above their floor have one.
        self._log: Dict[Address, Dict[int, GroupData]] = {}
        # Stable floor per sender, plus the senders whose log may hold
        # entries at or below their floor (pending truncation).
        self._floor: Dict[Address, int] = {m: 0 for m in members}
        self._dirty: Set[Address] = set()
        self.ordered_floor = ordered
        # Senders whose watermark (coordinator: floor) moved since the
        # last report (announcement), and the frontier last sent.
        self._unsent: Set[Address] = set()
        self._ordered_sent = ordered
        # The frontier of the last take, None once anything moved since:
        # a take at this frontier would change and return nothing.
        self.idle_at: Optional[int] = ordered
        # Coordinator only: every member's reported watermarks (our own
        # row *is* ``_delivered``) and delivery frontier.
        self._peer_view: Optional[Dict[Address, Dict[Address, int]]] = None
        self._peer_ordered: Dict[Address, int] = {}
        if members and members[0] == me:
            self._peer_view = {
                m: {s: 0 for s in members} for m in members if m != me
            }
            self._peer_view[me] = self._delivered
            self._peer_ordered = {m: ordered for m in members}

    # -- recording -------------------------------------------------------------

    def record(self, data: GroupData) -> None:
        """Record a message this member has received (or sent: senders
        record their own multicasts so in-flight copies survive a flush)."""
        sender = data.sender
        old = self._delivered.get(sender)
        if old is None:
            return  # departed sender; flush handles its fate
        seq = data.sender_seq
        log = self._log.get(sender)
        if log is None:
            log = self._log[sender] = {}
        log[seq] = data
        if seq != old + 1:
            return  # a duplicate, or past a gap the watermark waits at
        # Entries above the watermark are never truncated (the floor
        # cannot pass it), so what arrived past the gap is still logged.
        while seq + 1 in log:
            seq += 1
        self._delivered[sender] = seq
        if self._peer_view is None:
            self._unsent.add(sender)
            self.idle_at = None
        elif old == self._floor[sender]:
            self._refloor(sender)

    def watermarks(self) -> Dict[Address, int]:
        return dict(self._delivered)

    # -- report side (every member but the coordinator) ----------------------------

    def take_report(self, ordered: int) -> Optional[Moved]:
        """What the coordinator has not been told yet — the watermarks
        that moved since the last report and this member's delivery
        frontier ``ordered`` — or None when nothing moved.  The caller
        must send it: it is not offered again."""
        self.idle_at = ordered
        return self._take(self._delivered, ordered)

    def _take(self, values: Dict[Address, int], ordered: int) -> Optional[Moved]:
        if not self._unsent and ordered == self._ordered_sent:
            return None
        moved = {s: values[s] for s in sorted(self._unsent)}
        self._unsent.clear()
        self._ordered_sent = ordered
        return moved, ordered

    def on_floors(self, floors: Dict[Address, int], ordered: int) -> None:
        """Adopt the coordinator's announcement and truncate."""
        floor = self._floor
        for sender, seq in floors.items():
            if seq > floor.get(sender, seq):
                floor[sender] = seq
                self._dirty.add(sender)
        if ordered > self.ordered_floor:
            self.ordered_floor = ordered
        self._truncate()

    # -- floor side (the coordinator) -------------------------------------------------

    def on_report(
        self, peer: Address, delivered: Dict[Address, int], ordered: int
    ) -> None:
        row = self._peer_view.get(peer)
        if row is None:
            return  # not a member of this view
        row_get = row.get
        floor = self._floor
        for sender, seq in delivered.items():
            old = row_get(sender)
            if old is not None and seq > old:
                row[sender] = seq
                if old == floor[sender]:
                    self._refloor(sender)
        if ordered > self._peer_ordered[peer]:
            self._peer_ordered[peer] = ordered
            self.idle_at = None
        self._truncate()

    def take_floors(self, ordered: int) -> Optional[Moved]:
        """The coordinator's tick: fold in its own delivery frontier
        ``ordered``, then return the floors that moved since the last
        announcement and the minimum frontier — or None when nothing
        moved.  The caller must send it: it is not offered again."""
        self._truncate()
        self._peer_ordered[self._me] = ordered
        self.ordered_floor = min(self._peer_ordered.values())
        self.idle_at = ordered
        return self._take(self._floor, self.ordered_floor)

    # -- queries ----------------------------------------------------------------

    def stable_floor(self, sender: Address) -> int:
        """Highest seq from ``sender`` known received by *every* member
        (0 for a stranger)."""
        return self._floor.get(sender, 0)

    def unstable(self) -> List[GroupData]:
        """All logged messages above the stable floor (flush payload)."""
        out: List[GroupData] = []
        log = self._log
        for sender, floor in self._floor.items():  # view rank order
            entries = log.get(sender)
            if entries:
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
            self._unsent.add(sender)
            self.idle_at = None

    def _truncate(self) -> None:
        if not self._dirty:
            return
        log = self._log
        for sender in self._dirty:
            entries = log.get(sender)
            if entries is None:
                continue
            floor = self._floor[sender]
            for seq in [s for s in entries if s <= floor]:
                del entries[seq]
            if not entries:
                del log[sender]  # a dict keeps its table once grown
        self._dirty.clear()
