"""Shared builders for the benchmark harness.

Each ``bench_*.py`` reproduces one quantitative claim of the paper (see
DESIGN.md §3 for the experiment index).  Benchmarks are deterministic
discrete-event runs: pytest-benchmark times the run, and the experiment
prints the series the paper argues about (message counts, processes
touched, storage, latency) as a table recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import (
    LargeGroupParams,
    TreecastRoot,
    attach_treecast,
    build_large_group,
    build_leader_group,
)
from repro.core.router import ServiceRouter
from repro.membership import GroupNode, build_group
from repro.net import FixedLatency, LanLatency
from repro.proc import Environment
from repro.toolkit import (
    CoordinatorCohortClient,
    HierarchicalClient,
    attach_hierarchical_service,
    attach_service,
)

ECHO = lambda payload, client: ("ok", payload)  # noqa: E731 - trivial handler


def flat_service(
    n: int,
    seed: int = 1,
    resiliency: Optional[int] = None,
    gossip_interval: Optional[float] = None,
    latency=None,
):
    """A flat coordinator-cohort service of n members plus one client.
    With no ``resiliency`` it is the paper's small group (size ==
    resiliency): every member is in the cohort set."""
    env = Environment(
        seed=seed, latency=latency if latency is not None else FixedLatency(0.002)
    )
    nodes, members = build_group(
        env, "svc", n, gossip_interval=gossip_interval
    )
    servers = attach_service(members, ECHO, resiliency=resiliency)
    client_node = GroupNode(env, "client")
    client = CoordinatorCohortClient(
        client_node,
        "svc",
        contacts=tuple(f"svc-{i}" for i in range(n)),
        rpc=client_node.runtime.rpc,
    )
    return env, nodes, members, servers, client


def hierarchical_service(
    n: int,
    resiliency: int = 3,
    fanout: int = 8,
    seed: int = 1,
    settle: Optional[float] = None,
    with_treecast: bool = False,
    latency=None,
    gossip_interval: Optional[float] = None,
    **params_kw,
):
    """A hierarchically organised service of n workers, settled.

    Stability gossip defaults off so message-counting experiments see only
    the traffic caused by the event under study; pass an interval to
    include steady-state gossip.
    """
    env = Environment(
        seed=seed, latency=latency if latency is not None else FixedLatency(0.002)
    )
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout, **params_kw)
    leaders = build_leader_group(
        env, "svc", params, gossip_interval=gossip_interval
    )
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", n, params, contacts, gossip_interval=gossip_interval
    )
    participants = attach_treecast(members, resiliency=resiliency) if with_treecast else []
    roots = [TreecastRoot(r) for r in leaders] if with_treecast else []
    servers = attach_hierarchical_service(members, ECHO)
    env.run_for(settle if settle is not None else 5.0 + 0.25 * n)
    return env, params, leaders, members, servers, participants, roots


def hierarchical_client(env, contacts, name="client"):
    node = GroupNode(env, name)
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    return HierarchicalClient(node, router)


def manager_of(leaders):
    for replica in leaders:
        if replica.is_manager and replica.node.alive:
            return replica
    raise AssertionError("no live manager")


MEMBERSHIP_CATEGORIES = (
    "group-flush",
    "group-flush-ok",
    "group-new-view",
    "group-suspect",
)

CC_CATEGORIES = ("cc-request", "cc-reply", "cc-result")
