"""Cluster construction from the public ``repro`` API only: leader group,
n workers on hierarchical groups, the service on every worker, eight
client nodes.  The same builder serves the sim engine and the asyncio
probe (pass ``runtime``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.core import (
    LargeGroupMember,
    LargeGroupParams,
    ServiceRouter,
    build_large_group,
    build_leader_group,
)
from repro.failure.detector import HeartbeatDetector
from repro.membership import GroupNode
from repro.net import LanLatency
from repro.proc import Environment
from repro.toolkit import (
    CoordinatorCohortClient,
    PartitionedStoreClient,
    PartitionedStoreServer,
    attach_hierarchical_service,
)

from catalog import CLIENTS, GOSSIP_INTERVAL, HEARTBEAT_INTERVAL, KEYS, NETWORK_SEED, Workload
from loadgen import GET, Request, key_name, preload_value

SERVICE = "svc"
PLACE_STEP = 0.25  # logical seconds between "is everyone placed?" checks
PLACE_LIMIT = 600.0


class SetupError(RuntimeError):
    """The cluster never reached the state the window needs."""


def _node_kwargs() -> Dict[str, Any]:
    # Failure detection and stability gossip are never off in a real service.
    return dict(
        detector_factory=lambda node: HeartbeatDetector(
            node, interval=HEARTBEAT_INTERVAL, suspect_after=1.0
        ),
        gossip_interval=GOSSIP_INTERVAL,
    )


def echo_handler(payload: Any, client: str) -> Any:
    return ("ok", payload)


class EchoClient:
    """Key -> leaf through ``ServiceRouter.resolve_key``, then one cached
    coordinator-cohort stub per leaf group."""

    def __init__(self, node: GroupNode, contacts: Tuple[str, ...]) -> None:
        self.node = node
        self.router = ServiceRouter(
            node, SERVICE, rpc=node.runtime.rpc, leader_contacts=contacts
        )
        self._cc: Dict[str, CoordinatorCohortClient] = {}

    def request(self, key: str, payload: Any, on_result: Callable[[Any], None]) -> None:
        def placed(placement) -> None:
            if placement is None:
                on_result(None)
                return
            group, contacts = placement
            cc = self._cc.get(group)
            if cc is None:
                cc = CoordinatorCohortClient(
                    self.node, group, contacts=contacts, rpc=self.router.rpc,
                    timeout=1.0, max_retries=3,
                )
                self._cc[group] = cc
            cc.request(payload, on_result, on_failure=lambda: on_result(None))

        self.router.resolve_key(key, placed)


class Cluster:
    def __init__(self, workload: Workload, n: int, runtime=None) -> None:
        self.workload = workload
        self.n = n
        self.env = Environment(seed=NETWORK_SEED, latency=LanLatency(), runtime=runtime)
        self.params = LargeGroupParams(resiliency=3, fanout=8)
        self.leaders = build_leader_group(
            self.env, SERVICE, self.params, **_node_kwargs()
        )
        self.contacts = tuple(r.node.address for r in self.leaders)
        self.members: List[LargeGroupMember] = build_large_group(
            self.env, SERVICE, n, self.params, self.contacts,
            join_stagger=workload.join_stagger, **_node_kwargs(),
        )
        self.stores: List[PartitionedStoreServer] = []
        self.echo_servers: list = []
        if workload.service == "store":
            self.stores = [PartitionedStoreServer(m) for m in self.members]
        else:
            self.echo_servers = attach_hierarchical_service(self.members, echo_handler)
        self.client_nodes = [
            GroupNode(self.env, f"client-{i}", **_node_kwargs()) for i in range(CLIENTS)
        ]
        if workload.service == "store":
            self.clients = [
                PartitionedStoreClient(node, node.runtime.rpc, self.contacts, SERVICE)
                for node in self.client_nodes
            ]
        else:
            self.clients = [EchoClient(node, self.contacts) for node in self.client_nodes]
        self._replacements = 0

    # -- set-up ---------------------------------------------------------------------

    def wait_placed(self, tick: Callable[[], None] = lambda: None) -> None:
        """Step the clock until every worker is a member of a leaf (a fixed
        settle time leaves stragglers: 255/256 at 8.56 s in the prototype).
        ``tick()`` runs between steps (the caller's host-pace readings)."""
        env = self.env
        deadline = env.now + PLACE_LIMIT
        while not all(m.is_member for m in self.members):
            if env.now >= deadline:
                placed = sum(m.is_member for m in self.members)
                raise SetupError(f"only {placed}/{self.n} workers placed after {PLACE_LIMIT} s")
            env.run_for(PLACE_STEP)
            tick()

    def preload(self, tick: Callable[[], None] = lambda: None) -> None:
        """Put every key once through the client path, 64 per 0.05 logical s."""
        done: List[bool] = []
        for k in range(KEYS):
            self.clients[k % CLIENTS].put(key_name(k), preload_value(k), done.append)
            if k % 64 == 63:
                self.env.run_for(0.05)
                tick()
        self.env.run_for(3.0)
        if len(done) != KEYS or not all(done):
            raise SetupError(f"preload: {sum(done)}/{KEYS} puts acknowledged")

    # -- the request path --------------------------------------------------------------

    def issue(self, request: Request, value: Any, on_result: Callable[[Any], None]) -> None:
        """Send one request; ``on_result(reply)`` gets the value read (get),
        True/False (put) or the echoed tuple, and None when the client gave up."""
        client = self.clients[request.index % CLIENTS]
        if self.workload.service == "echo":
            client.request(request.key, value, on_result)
        elif request.op == GET:
            client.get(request.key, on_result)
        else:
            client.put(request.key, value, on_result)

    # -- faults ------------------------------------------------------------------------

    def leaves(self) -> Dict[str, List[LargeGroupMember]]:
        """Live, placed workers by leaf id."""
        by_leaf: Dict[str, List[LargeGroupMember]] = {}
        for m in self.members:
            if m.node.alive and m.is_member:
                by_leaf.setdefault(m.leaf_id, []).append(m)
        return by_leaf

    def start_replacement(self) -> LargeGroupMember:
        """A fresh worker (new address) that will ask the leader for a leaf."""
        self._replacements += 1
        node = GroupNode(self.env, f"{SERVICE}-r-{self._replacements}", **_node_kwargs())
        member = LargeGroupMember(node, SERVICE, self.contacts, params=self.params)
        self.members.append(member)
        self.stores.append(PartitionedStoreServer(member))
        member.join()
        return member
