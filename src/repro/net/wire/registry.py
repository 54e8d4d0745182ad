"""Wire-id registry: every protocol payload kind, bound to a stable id.

This is the policy half of the codec — one place where wire ids are
assigned, append-only across PRs.  The kind list is the RL013 handler
census surface: every payload class that is constructed and sent through
a typed wire receiver anywhere in ``src/repro`` appears here, plus the
value-only structs they carry (views, vector clocks, relay specs).
``tests/test_wire_codec.py`` greps the tree for ``.on(Kind, ...)``
registrations and fails if a census kind is missing from this table.

Deploy-tracker control kinds (register / peer-list / shutdown) live in
the 64+ id range and are registered by :mod:`repro.deploy.messages` on
import, keeping ``net`` below ``deploy`` in the layering.
"""

from __future__ import annotations

from repro.clocks.vector import VectorClock
from repro.core.hierarchy import MergeCmd, SplitCmd
from repro.core.leader import (
    GetHierarchyInfo,
    HOp,
    JoinLarge,
    LeafProbe,
    ReportLeafStatus,
)
from repro.core.policy import MergeDirective, SplitDirective
from repro.core.treecast import (
    LeafCastAck,
    LeafCastPayload,
    LeafCommitPayload,
    LeafTarget,
    RelaySpec,
    TreeAck,
    TreeBroadcastRequest,
    TreeCastLeaf,
    TreeCastRelay,
    TreeCommit,
)
from repro.core.views import (
    AddLeaf,
    BranchInfo,
    LeafInfo,
    RemoveLeaf,
    UpdateLeaf,
)
from repro.failure.detector import Heartbeat, Probe, Subscribe, Unsubscribe
from repro.membership.events import (
    Flush,
    FlushAbort,
    FlushOk,
    GroupData,
    JoinRequest,
    LeaveRequest,
    NewView,
    StabilityGossip,
    SuspectReport,
)
from repro.membership.view import GroupView, ViewId
from repro.net.wire.codec import register_kind
from repro.proc.rpc import RpcReply, RpcRequest
from repro.toolkit.coordinator_cohort import (
    CCRead,
    CCReply,
    CCRequest,
    CCResultNote,
    GetMembers,
)
from repro.toolkit.replication import SMCommand
from repro.transport.channel import Segment, SegmentAck

_registered = False


def ensure_registered() -> None:
    """Idempotently bind every protocol kind to its wire id."""
    global _registered
    if _registered:
        return
    _registered = True

    # Transport (1-9).
    register_kind(1, Segment)
    register_kind(2, SegmentAck)

    # Membership / broadcast (10-29).  GroupData dropped its ``gossip``
    # field in WIRE_VERSION 3 and grew ``global_seq`` in 6, when
    # StabilityGossip grew ``ordered``; the ids stay put.  Id 11 carried
    # the sequencer's order for someone else's abcast until WIRE_VERSION
    # 12, when the sequencer began relaying a stamped copy of the data
    # instead; like 33 and 90 it stays retired.  FlushAbort (22) is new
    # in WIRE_VERSION 19.  GroupData's ordering is an int from v20.
    register_kind(10, GroupData)
    register_kind(12, StabilityGossip)
    register_kind(13, Flush)
    register_kind(14, FlushOk)
    register_kind(15, NewView)
    register_kind(16, JoinRequest)
    register_kind(17, LeaveRequest)
    register_kind(18, SuspectReport)
    register_kind(19, GroupView)
    register_kind(20, ViewId)
    register_kind(
        21,
        VectorClock,
        encode_fields=lambda clock: (dict(clock.items()),),
        build=lambda parts: VectorClock(parts[0]),
    )
    register_kind(22, FlushAbort)

    # Process plumbing (30-39).  Id 33 was HeartbeatAck until
    # WIRE_VERSION 7, when the heartbeat became a one-way push to
    # whoever subscribed; like 90 it stays retired.  Probe (36), a
    # one-shot liveness check answered by a Heartbeat, is new in v11.
    register_kind(30, RpcRequest)
    register_kind(31, RpcReply)
    register_kind(32, Heartbeat)
    register_kind(34, Subscribe)
    register_kind(35, Unsubscribe)
    register_kind(36, Probe)

    # Hierarchy: treecast, leader, hierarchy ops (40-59).  The stage
    # kinds (RelaySpec, TreeAck, TreeCommit) name their stage since
    # WIRE_VERSION 18, when LeafTarget lost its unread ``size``.
    register_kind(40, TreeCastRelay)
    register_kind(41, TreeCastLeaf)
    register_kind(42, LeafCastPayload)
    register_kind(43, LeafCastAck)
    register_kind(44, TreeAck)
    register_kind(45, TreeCommit)
    register_kind(46, LeafCommitPayload)
    register_kind(47, TreeBroadcastRequest)
    register_kind(48, RelaySpec)
    register_kind(49, LeafTarget)
    register_kind(50, JoinLarge)
    register_kind(51, ReportLeafStatus)
    # Id 52 was GetLeafAssignment, the manager's round-robin leaf pick,
    # until WIRE_VERSION 17 (every client places itself on the tree
    # now); like 33 and 90 it stays retired.
    register_kind(53, GetHierarchyInfo)
    register_kind(54, LeafProbe)
    register_kind(55, HOp)
    register_kind(56, SplitDirective)
    register_kind(57, MergeDirective)
    register_kind(58, SplitCmd)
    register_kind(59, MergeCmd)

    # Ids 60-63 were the name service's kinds (RegisterName,
    # UnregisterName, LookupName, ReplicateEntry) until WIRE_VERSION 13,
    # when the service was deleted; like 33 and 90 they stay retired.

    # Toolkit (70-79).  64-69 are the deploy control plane
    # (repro.deploy.messages).  CCRequest/CCReply grew the cohort-set
    # fields (view_seq, cohorts) in WIRE_VERSION 5; the ids stay put.
    # Id 77 was CCHedge in WIRE_VERSION 8 only; like 33 and 90 it stays
    # retired.  CCRead (78), a read sent to one member, is new in v9.
    # In v20 CCRequest's ``client`` moved last (written only on a copy
    # passed on) and CCResultNote named the client again; ids are ints.
    # In v22 CCRequest grew ``lag`` (the client's finished writes).
    # Ids 74 and 75 were the parallel executor's ScatterTask and
    # PartialResult until WIRE_VERSION 13; they stay retired too.
    register_kind(70, CCRequest)
    register_kind(71, CCReply)
    register_kind(72, CCResultNote)
    register_kind(73, GetMembers)
    register_kind(76, SMCommand)
    register_kind(78, CCRead)

    # Hierarchy state structs carried inside HOp / RPC replies (80-89).
    register_kind(80, AddLeaf)
    register_kind(81, UpdateLeaf)
    register_kind(82, RemoveLeaf)
    register_kind(83, LeafInfo)
    register_kind(84, BranchInfo)

    # The load-report fields (ReportLeafStatus and UpdateLeaf rate)
    # extend the field lists of already-registered kinds — ids stay put,
    # and WIRE_VERSION bumped to 2 per the codec's evolution contract (and
    # to 4 when the never-fed request-rate field left both kinds).  The
    # level-tagged placement fields that came with them (ReportLeafStatus
    # level/path, Split/MergeDirective and Split/MergeCmd levels and
    # paths, AddLeaf ``under``) left in WIRE_VERSION 15, when both
    # reorganisation modes came to share one canonical tree.  Id 90 was
    # ResolvePlacement until WIRE_VERSION 5 (routers walk the tree
    # themselves now); ids are append-only, so it stays retired.

    # Ids 91-95 were the parallel engine's barrier frames (hub <-> the
    # workers it spawned, over a pipe) until that engine was deleted;
    # like 33 and 90 they stay retired.
