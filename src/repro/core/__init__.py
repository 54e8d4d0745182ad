"""Hierarchical process groups: the paper's primary contribution.

Public surface:

* :class:`LargeGroupParams` — size/resiliency/fanout tuning (§3);
* :class:`HierarchyState` — the leader-replicated branch/leaf model;
* :class:`LeaderReplica` / :func:`build_leader_group` — the resilient
  group-leader subgroup;
* :class:`LargeGroupMember` / :func:`build_large_group` — worker-side
  membership in a large group;
* :class:`TreecastRoot` / :class:`TreecastParticipant` — bounded-fanout
  whole-group (atomic) broadcast (§5);
* :class:`ServiceRouter`, :class:`NameServer`, :class:`NameClient` —
  name-to-address mapping and client-side leaf routing.
"""

from repro.core.hierarchy import (
    LargeGroupMember,
    MergeCmd,
    SplitCmd,
    build_large_group,
)
from repro.core.leader import (
    GetHierarchyInfo,
    GetLeafAssignment,
    JoinLarge,
    LeaderReplica,
    LeafProbe,
    MergeDirective,
    ReportLeafStatus,
    SplitDirective,
    build_leader_group,
    leader_group_name,
    leaf_group_name,
)
from repro.core.naming import (
    LookupName,
    NameClient,
    NameServer,
    RegisterName,
    UnregisterName,
    build_name_service,
)
from repro.core.params import LargeGroupParams, ReorgPolicy
from repro.core.router import ServiceRouter
from repro.core.treecast import (
    TreeBroadcastRequest,
    TreecastParticipant,
    TreecastRoot,
    attach_treecast,
    build_spec,
)
from repro.core.views import (
    AddLeaf,
    BranchInfo,
    HierarchyError,
    HierarchyState,
    LeafInfo,
    ROOT_BRANCH,
    RemoveLeaf,
    UpdateLeaf,
)

__all__ = [
    "AddLeaf",
    "BranchInfo",
    "GetHierarchyInfo",
    "GetLeafAssignment",
    "HierarchyError",
    "HierarchyState",
    "JoinLarge",
    "LargeGroupMember",
    "LargeGroupParams",
    "LeaderReplica",
    "LeafInfo",
    "LeafProbe",
    "LookupName",
    "MergeCmd",
    "MergeDirective",
    "NameClient",
    "NameServer",
    "ROOT_BRANCH",
    "RegisterName",
    "RemoveLeaf",
    "ReorgPolicy",
    "ReportLeafStatus",
    "ServiceRouter",
    "SplitCmd",
    "SplitDirective",
    "TreeBroadcastRequest",
    "TreecastParticipant",
    "TreecastRoot",
    "UnregisterName",
    "UpdateLeaf",
    "attach_treecast",
    "build_large_group",
    "build_leader_group",
    "build_name_service",
    "build_spec",
    "leader_group_name",
    "leaf_group_name",
]
