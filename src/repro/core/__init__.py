"""Hierarchical process groups: the paper's primary contribution.

Public surface:

* :class:`LargeGroupParams` — size/resiliency/fanout tuning (§3);
* :class:`HierarchyState` — the leader-replicated branch/leaf model;
* :class:`LeaderReplica` / :func:`build_leader_group` — the resilient
  group-leader subgroup;
* :class:`Policy` — the manager's join, split, merge and probe
  decisions, as a sans-IO core;
* :class:`LargeGroupMember` / :func:`build_large_group` — worker-side
  membership in a large group;
* :class:`TreecastRoot` / :class:`TreecastParticipant` — bounded-fanout
  whole-group (atomic) broadcast (§5);
* :class:`ServiceRouter` — client-side leaf routing from the service's
  leader contacts.
"""

from repro.core.hierarchy import (
    LargeGroupMember,
    MergeCmd,
    SplitCmd,
    build_large_group,
)
from repro.core.leader import (
    GetHierarchyInfo,
    JoinLarge,
    LeaderReplica,
    LeafProbe,
    ReportLeafStatus,
    build_leader_group,
    leader_group_name,
)
from repro.core.params import LargeGroupParams, ReorgPolicy
from repro.core.policy import MergeDirective, Policy, SplitDirective
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
    "HierarchyError",
    "HierarchyState",
    "JoinLarge",
    "LargeGroupMember",
    "LargeGroupParams",
    "LeaderReplica",
    "LeafInfo",
    "LeafProbe",
    "MergeCmd",
    "MergeDirective",
    "Policy",
    "ROOT_BRANCH",
    "RemoveLeaf",
    "ReorgPolicy",
    "ReportLeafStatus",
    "ServiceRouter",
    "SplitCmd",
    "SplitDirective",
    "TreeBroadcastRequest",
    "TreecastParticipant",
    "TreecastRoot",
    "UpdateLeaf",
    "attach_treecast",
    "build_large_group",
    "build_leader_group",
    "build_spec",
    "leader_group_name",
]
