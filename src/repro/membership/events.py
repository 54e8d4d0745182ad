"""Wire messages and application-visible events for group membership.

All group-protocol payloads carry the group name so a single process can
belong to many groups (a per-process :class:`~repro.membership.group.
GroupRuntime` demultiplexes).  Data messages are small dataclasses sent over
the reliable FIFO transport; their ``category`` strings are what network
statistics bucket on, and what the benchmarks filter by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.clocks.vector import VectorClock
from repro.membership.view import GroupView
from repro.net.message import Address, DEFAULT_PAYLOAD_BYTES

# Orderings a multicast can request.  FIFO is the paper's fbcast, CAUSAL is
# cbcast, TOTAL is abcast.  Small ints: a GroupData's ordering is two
# bytes on the wire (tag and varint), where a name took up to eight.
FIFO = 0
CAUSAL = 1
TOTAL = 2
ORDERINGS = (FIFO, CAUSAL, TOTAL)

MessageId = Tuple[Address, int]
"""(original sender, per-sender-per-view sequence number)."""


@dataclass
class GroupData:
    """An application multicast within one view of one group, and what a
    delivery hands each of the group's listeners: they read ``group``,
    ``view_seq``, ``sender``, ``payload`` and ``ordering``, and must treat
    it as read-only (on the sim engine every member is handed this one
    object).

    ``message_id`` is built once, here: every member that logs, orders or
    de-duplicates the message keeps a reference to it, and on the sim
    engine all of them are handed this one object, so one tuple serves
    the whole group (it is not a field, so it never travels; a decoded
    copy rebuilds its own).
    """

    category = "group-data"
    size_bytes = DEFAULT_PAYLOAD_BYTES
    group: str
    view_seq: int
    sender: Address
    sender_seq: int
    ordering: int
    payload: Any
    stamp: Optional[VectorClock] = None  # set for CAUSAL
    # TOTAL data's position in the view's total order, stamped by the
    # sequencer: on its own multicasts at send, on anyone else's on the
    # copy it relays.  None on the way to the sequencer.
    global_seq: Optional[int] = None

    def __post_init__(self) -> None:
        self.message_id: MessageId = (self.sender, self.sender_seq)


@dataclass
class StabilityGossip:
    """One hop of the stability plane; which one follows from who receives
    it.  Sent *to* the view's coordinator it is a member's report: the
    per-sender delivered watermarks that moved since its last report, and
    ``ordered``, the highest abcast global sequence number it has
    delivered.  Sent *by* the coordinator it is the announcement: the
    per-sender stable floors that moved since the last one, and the
    minimum of the reported ``ordered``."""

    category = "group-stability"
    size_bytes = 48
    group: str
    view_seq: int
    delivered: Dict[Address, int] = field(default_factory=dict)
    ordered: int = 0


@dataclass
class Flush:
    """Coordinator's view-change announcement: stop sending, report
    unstable messages.  The proposed view stays at the initiator; a
    member learns it from the ``NewView``."""

    category = "group-flush"
    group: str
    target_seq: int
    initiator: Address


@dataclass
class FlushOk:
    """A member's reply: everything it has that might not be everywhere."""

    category = "group-flush-ok"
    group: str
    target_seq: int
    unstable: List[GroupData] = field(default_factory=list)
    order_known: List[Tuple[int, MessageId]] = field(default_factory=list)
    next_global_seq: int = 1


@dataclass
class FlushAbort:
    """The initiator abandoned the view change to ``target_seq`` (mid-flush
    drops left it without a quorum): whoever reported to it goes back to
    the view it is in."""

    category = "group-flush"
    group: str
    target_seq: int


@dataclass
class NewView:
    """Installs the next view.  A survivor's copy carries the reconciled
    unstable messages (delivered in the *old* view before the switch —
    virtual synchrony) and the final total-order assignments for them; a
    joiner's copy carries neither, since a joiner has no old view to
    finish, but holds the state snapshot instead."""

    category = "group-new-view"
    view: GroupView = None  # type: ignore[assignment]
    unstable: List[GroupData] = field(default_factory=list)
    orders: List[Tuple[int, MessageId]] = field(default_factory=list)
    next_global_seq: int = 1
    app_state: Any = None  # state-transfer snapshot, on a joiner's copy only

    @property
    def group(self) -> str:
        return self.view.group


@dataclass
class JoinRequest:
    """RPC body: ask a group member to add the caller (routed to the
    coordinator)."""

    group: str
    joiner: Address


@dataclass
class LeaveRequest:
    """RPC body: graceful departure."""

    group: str
    leaver: Address


@dataclass
class SuspectReport:
    """Tell the view-change initiator that a member looks dead."""

    category = "group-suspect"
    size_bytes = 32
    group: str
    suspect: Address


# -- application-visible events (not wire messages) --------------------------------


@dataclass(frozen=True)
class ViewEvent:
    """Delivered to the application when a new view is installed.

    ``joined``/``departed`` are relative to the previous view at this
    member (empty for the first view it sees).
    """

    view: GroupView
    joined: Tuple[Address, ...]
    departed: Tuple[Address, ...]
