"""View-synchronous flat process groups (the classical ISIS substrate)."""

from repro.membership.events import (
    CAUSAL,
    DeliveryEvent,
    FIFO,
    Flush,
    FlushAbort,
    FlushOk,
    GroupData,
    JoinRequest,
    LeaveRequest,
    NewView,
    ORDERINGS,
    StabilityGossip,
    SuspectReport,
    TOTAL,
    ViewEvent,
)
from repro.membership.flush import FlushRound, ViewCore, merge_reports
from repro.membership.group import GroupMember, GroupRuntime, NotMemberError
from repro.membership.service import GroupNode, build_group
from repro.membership.view import GroupView, ViewId

__all__ = [
    "CAUSAL",
    "DeliveryEvent",
    "FIFO",
    "Flush",
    "FlushAbort",
    "FlushOk",
    "FlushRound",
    "GroupData",
    "GroupMember",
    "GroupNode",
    "GroupRuntime",
    "GroupView",
    "JoinRequest",
    "LeaveRequest",
    "NewView",
    "NotMemberError",
    "ORDERINGS",
    "StabilityGossip",
    "SuspectReport",
    "TOTAL",
    "ViewEvent",
    "ViewCore",
    "ViewId",
    "build_group",
    "merge_reports",
]
