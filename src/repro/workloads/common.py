"""Shared plumbing for the motivating-application workloads (paper §1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.hierarchy import LargeGroupMember, build_large_group
from repro.core.leader import LeaderReplica, build_leader_group
from repro.core.params import LargeGroupParams
from repro.core.treecast import TreecastParticipant, TreecastRoot, attach_treecast
from repro.metrics.counters import LatencySample
from repro.net.latency import LanLatency
from repro.proc.env import Environment


@dataclass
class WorkloadResult:
    """What a workload run reports back to benchmarks and examples."""

    name: str
    duration: float
    events_published: int = 0
    events_delivered: int = 0
    requests_sent: int = 0
    requests_answered: int = 0
    latency: LatencySample = field(default_factory=LatencySample)
    request_latency: LatencySample = field(default_factory=LatencySample)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        if self.events_published == 0:
            return 1.0
        # Each published event fans out to every live member; the caller
        # stores expected deliveries in ``extra['expected_deliveries']``.
        expected = self.extra.get("expected_deliveries", self.events_published)
        return self.events_delivered / expected if expected else 1.0


@dataclass
class ServiceCluster:
    """A hierarchically organised service plus its treecast plumbing."""

    env: Environment
    params: LargeGroupParams
    leaders: List[LeaderReplica]
    members: List[LargeGroupMember]
    participants: List[TreecastParticipant]
    roots: List[TreecastRoot]

    @property
    def manager_root(self) -> TreecastRoot:
        for root in self.roots:
            if root.replica.is_manager and root.node.alive:
                return root
        raise RuntimeError("no live manager")

    @property
    def leader_contacts(self) -> Tuple[str, ...]:
        return tuple(r.node.address for r in self.leaders)

    def live_members(self) -> List[LargeGroupMember]:
        return [m for m in self.members if m.node.alive and m.is_member]


def build_service_cluster(
    service: str,
    size: int,
    resiliency: int = 3,
    fanout: int = 8,
    seed: int = 1,
    settle: float = None,
    env: Environment = None,
    **params_kw,
) -> ServiceCluster:
    """The standard experimental setup: leader group + workers + treecast,
    over a LAN-latency network, settled until every worker is placed."""
    env = env if env is not None else Environment(seed=seed, latency=LanLatency())
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout, **params_kw)
    leaders = build_leader_group(env, service, params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, service, size, params, contacts)
    participants = attach_treecast(members)
    roots = [TreecastRoot(r) for r in leaders]
    env.run_for(settle if settle is not None else 5.0 + 0.25 * size)
    return ServiceCluster(env, params, leaders, members, participants, roots)
