"""The manufacturing-control workload (paper §1):

    "Hundreds of work cells distributed throughout a factory communicate
    with production monitoring and inventory control stations.
    Consistency and reliability are important here."

Model:

* *work cells* are members of one hierarchical large group; each cell
  periodically reports its status within its leaf (bounded fan-out);
* an *inventory control* station is a small resilient flat group running
  a replicated inventory table (consistency-critical: updates are totally
  ordered abcasts, so every replica holds identical stock levels);
* *production orders* are dispatched to cells through the hierarchical
  coordinator-cohort service; completing an order decrements inventory;
* factory-wide *reconfigurations* (e.g. a shift change) use the atomic
  tree broadcast so either every live cell switches recipe or none does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.membership.events import FIFO
from repro.membership.service import build_group
from repro.proc.env import Environment
from repro.toolkit.replication import ReplicatedDict
from repro.workloads.common import ServiceCluster, WorkloadResult, build_service_cluster

PARTS = ("bolt", "panel", "motor", "frame", "belt")


@dataclass
class CellStatus:
    category = "cell-status"
    size_bytes = 64
    cell: str
    state: str
    at: float


@dataclass
class Recipe:
    """A factory-wide reconfiguration, applied atomically everywhere."""

    recipe_id: int
    name: str


class ManufacturingWorkload:
    """Drives cell status traffic, order dispatch and inventory updates."""

    def __init__(
        self,
        cells: int = 100,
        inventory_replicas: int = 3,
        status_rate: float = 0.5,  # per cell per second, leaf-local
        order_rate: float = 4.0,  # orders per second factory-wide
        resiliency: int = 3,
        fanout: int = 8,
        seed: int = 2,
        cluster: Optional[ServiceCluster] = None,
    ) -> None:
        self.cluster = cluster if cluster is not None else build_service_cluster(
            "factory", cells, resiliency=resiliency, fanout=fanout, seed=seed
        )
        self.env: Environment = self.cluster.env
        self._order_ids = self.env.ids["order"]
        self.status_rate = status_rate
        self.order_rate = order_rate
        # Seed hygiene: all workload draws fork off the run's root RNG
        # (one seed governs the entire run, whichever engine hosts it).
        self.rng = self.env.rng.fork("workload/manufacturing")
        self.result = WorkloadResult(name="manufacturing", duration=0.0)
        self.recipes_applied: Dict[str, List[int]] = {}

        # Inventory control: a flat resilient group with a replicated table.
        _inv_nodes, inv_members = build_group(
            self.env, "inventory", inventory_replicas, prefix="inv"
        )
        self.inventory = [ReplicatedDict(m, "stock") for m in inv_members]
        for part in PARTS:
            self.inventory[0].put(part, 1000)

        # Cells consume recipes via atomic treecast.
        for participant in self.cluster.participants:
            participant.add_listener(self._make_recipe_listener(participant))

        from repro.toolkit.hierarchical_service import attach_hierarchical_service

        self.servers = attach_hierarchical_service(
            self.cluster.members, self._serve_order
        )

    # -- cell status (leaf-local chatter) ------------------------------------------

    def _cell_status_tick(self, member) -> None:
        if member.node.alive and member.is_member:
            member.leaf_multicast(
                CellStatus(
                    cell=member.me,
                    state=self.rng.choice(("idle", "busy", "fault")),
                    at=self.env.now,
                ),
                FIFO,
            )
            self.result.events_published += 1

    # -- order dispatch ---------------------------------------------------------------

    def _serve_order(self, payload, client):
        # A cell "performs" the order; the inventory decrement happens on
        # the dispatcher's reply path against the replicated table.
        part = payload["part"]
        return {"order": payload["order"], "part": part, "status": "done"}

    def _dispatch_order(self, client) -> None:
        order_id = next(self._order_ids)
        part = self.rng.choice(PARTS)
        sent_at = self.env.now
        self.result.requests_sent += 1

        def on_reply(result) -> None:
            self.result.requests_answered += 1
            self.result.request_latency.add(self.env.now - sent_at)
            current = self.inventory[0].get(part, 0)
            self.inventory[0].put(part, current - 1)

        client.request(client.process.address, {"order": order_id, "part": part}, on_reply)

    # -- factory-wide reconfiguration ------------------------------------------------

    def _make_recipe_listener(self, participant):
        def on_payload(payload, _bid) -> None:
            if isinstance(payload, Recipe):
                self.recipes_applied.setdefault(
                    participant.node.address, []
                ).append(payload.recipe_id)

        return on_payload

    def reconfigure(self, recipe_id: int, name: str) -> None:
        self.cluster.manager_root.broadcast(
            Recipe(recipe_id=recipe_id, name=name), atomic=True
        )

    # -- driver -----------------------------------------------------------------------

    def run(
        self,
        duration: float = 10.0,
        dispatch_clients: int = 2,
        reconfigure_at: Optional[float] = None,
    ) -> WorkloadResult:
        from repro.core.router import ServiceRouter
        from repro.membership.service import GroupNode
        from repro.toolkit.hierarchical_service import KeyRoutedClient

        start = self.env.now
        # per-cell status chatter
        for member in self.cluster.members:
            rng = self.rng.fork(f"status-{member.me}")
            t = 0.0
            while True:
                t += rng.expovariate(self.status_rate)
                if t > duration:
                    break
                self.env.scheduler.at(
                    start + t, lambda m=member: self._cell_status_tick(m)
                )

        # production-order dispatchers
        clients = []
        for i in range(dispatch_clients):
            node = GroupNode(self.env, f"dispatch-{i}")
            router = ServiceRouter(
                node,
                "factory",
                rpc=node.runtime.rpc,
                leader_contacts=self.cluster.leader_contacts,
            )
            clients.append(KeyRoutedClient(node, router))
        for i, client in enumerate(clients):
            rng = self.rng.fork(f"orders-{i}")
            t = 0.0
            while True:
                t += rng.expovariate(self.order_rate / max(1, dispatch_clients))
                if t > duration:
                    break
                self.env.scheduler.at(
                    start + t, lambda c=client: self._dispatch_order(c)
                )

        if reconfigure_at is not None:
            self.env.scheduler.at(
                start + reconfigure_at,
                lambda: self.reconfigure(1, "evening-shift"),
            )

        self.env.run_for(duration + 5.0)
        self.result.duration = self.env.now - start
        self.result.extra["cells"] = len(self.cluster.live_members())
        self.result.extra["inventory_consistent"] = float(
            len({tuple(sorted(d.snapshot().items())) for d in self.inventory}) == 1
        )
        return self.result
