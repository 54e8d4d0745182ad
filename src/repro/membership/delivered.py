"""The ids of the messages one member delivered in one view.

A sender numbers its multicasts 1, 2, 3, … afresh in every view, one
counter shared by all three orderings, and virtual synchrony has every
surviving member deliver all of a sender's view messages.  So the set of
delivered ids is, per sender, a contiguous prefix 1..w plus the few ids
delivered past a gap — an abcast still waiting for its order while a
later fbcast of the same sender went through.  :class:`DeliveredIds`
stores exactly that: one watermark per sender and the ids above it, so
its size is bounded by the view (one entry per sender once deliveries
catch up), not by the traffic the view has carried.

The per-delivery paths in :mod:`repro.membership.group` test membership
on ``floor`` and ``above`` directly — a dict lookup and a compare.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set

from repro.membership.events import MessageId
from repro.net.message import Address

_NONE_ABOVE: frozenset = frozenset()
"""``above`` until an id is first delivered past a gap: most views never
deliver one, and an empty set is 216 bytes."""


class DeliveredIds:
    """A set of :data:`MessageId` kept as per-sender watermarks.

    Invariant: ``(s, floor[s] + 1)`` is never in ``above`` — an id that
    extends the prefix is folded into the watermark, together with any
    ids above it that it makes contiguous.
    """

    __slots__ = ("floor", "above")

    def __init__(self) -> None:
        # sender -> w: every id (sender, 1..w) was delivered.
        self.floor: Dict[Address, int] = {}
        # Delivered ids past their sender's watermark.
        self.above: Set[MessageId] = _NONE_ABOVE

    def add(self, message_id: MessageId) -> bool:
        """Record ``message_id``; False if it was already there."""
        sender, seq = message_id
        floor = self.floor
        watermark = floor.get(sender, 0)
        if seq <= watermark:
            return False
        above = self.above
        if seq != watermark + 1:
            if message_id in above:
                return False
            if above.__class__ is frozenset:  # a copy holds its own empty one
                self.above = above = set()
            above.add(message_id)
            return True
        while above and (sender, seq + 1) in above:
            seq += 1
            above.remove((sender, seq))
        floor[sender] = seq
        return True

    def __iter__(self) -> Iterator[MessageId]:
        """Every id, sender by sender in first-delivery order, then the
        ids above the watermarks."""
        for sender, watermark in self.floor.items():
            for seq in range(1, watermark + 1):
                yield (sender, seq)
        yield from sorted(self.above)
