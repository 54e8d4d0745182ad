"""Coordinator-side flush protocol state.

A view change is driven by an *initiator* (the lowest-ranked member that
does not consider itself dead's suspects include it — normally rank 0).
The initiator:

1. multicasts ``Flush(target_seq, initiator)`` to every old-view member
   not suspected (members stop initiating multicasts and reply ``FlushOk``
   with their unstable messages and abcast order knowledge); the proposed
   view stays here, since no member needs it before the ``NewView``;
2. if a target is suspected mid-flush, drops it from the proposal and
   re-sends ``Flush`` (same ``target_seq``);
3. when every remaining target has replied, merges the reports and hands
   the result to the membership layer, which builds and sends ``NewView``:
   the merge to the old view's members, the state snapshot to the joiners.

The merge produces: the union of unstable messages (so every survivor can
deliver the same old-view message set — virtual synchrony) and the final
total-order assignments (see :func:`repro.broadcast.abcast.
merge_flush_orders`).

This module is pure protocol state; the causal tracer's flush-start /
flush-timeout / view-install spans are emitted by the driving
``GroupMember`` in ``membership/group.py`` (see docs/tracing.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.broadcast.abcast import merge_flush_orders
from repro.membership.events import FlushOk, GroupData, MessageId
from repro.net.message import Address


class FlushController:
    """Tracks one in-progress view change at its initiator."""

    def __init__(
        self,
        target_seq: int,
        proposed: List[Address],
        targets: List[Address],
        joiners: List[Address],
    ) -> None:
        self.target_seq = target_seq
        self.proposed = list(proposed)
        self.targets: Set[Address] = set(targets)
        self.joiners = list(joiners)
        self.responses: Dict[Address, FlushOk] = {}
        self.started_at: Optional[float] = None
        self.attempt = 1

    # -- protocol events ---------------------------------------------------------

    def record_response(self, sender: Address, ok: FlushOk) -> None:
        if sender in self.targets and ok.target_seq == self.target_seq:
            self.responses[sender] = ok

    def drop_member(self, address: Address) -> bool:
        """Remove a freshly suspected member; True if it changed anything
        (caller should re-send Flush and bump ``attempt``)."""
        changed = False
        if address in self.targets:
            self.targets.discard(address)
            self.responses.pop(address, None)
            changed = True
        if address in self.proposed:
            self.proposed.remove(address)
            changed = True
        if address in self.joiners:
            self.joiners.remove(address)
            changed = True
        return changed

    @property
    def complete(self) -> bool:
        return self.targets <= set(self.responses)

    def missing(self) -> Set[Address]:
        return self.targets - set(self.responses)

    # -- merge --------------------------------------------------------------------

    def merged_unstable(self) -> List[GroupData]:
        """Union of all reported unstable messages, deduplicated by id."""
        seen: Set[Tuple[int, MessageId]] = set()
        merged: List[GroupData] = []
        for ok in self.responses.values():
            for data in ok.unstable:
                key = (data.view_seq, data.message_id)
                if key not in seen:
                    seen.add(key)
                    merged.append(data)
        merged.sort(key=lambda d: (d.sender, d.sender_seq))
        return merged

    def merged_orders(self) -> Tuple[List[Tuple[int, MessageId]], int]:
        unstable_total = [
            d for d in self.merged_unstable() if d.ordering == "total"
        ]
        reports = [
            (ok.order_known, ok.next_global_seq) for ok in self.responses.values()
        ]
        return merge_flush_orders(reports, unstable_total)
