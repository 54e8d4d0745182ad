"""The trading-room workload (paper §1):

    "A typical installation will comprise perhaps 100 to 500 trading
    analyst workstations which filter, process and analyze large volumes
    of information continuously supplied from numerous outside data feeds.
    Users of these systems demand surprisingly high performance, often
    requiring sub-second response to events detected over the data feeds."

Model:

* *analyst workstations* are members of one hierarchical large group;
* *data feeds* publish ticks; market-wide events are disseminated with the
  tree broadcast, so each feed event reaches all analysts within a bounded
  number of stages;
* analysts issue *position queries* against the analyst service itself
  (coordinator-cohort within their leaf) — the request path whose cost
  must stay bounded as the room grows.

The benchmark harness measures tick fan-out latency (feed timestamp to
analyst delivery) and per-analyst load, across room sizes of 100–500.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.counters import LatencySample
from repro.proc.env import Environment
from repro.workloads.common import ServiceCluster, WorkloadResult, build_service_cluster

SYMBOLS = ("IBM", "DEC", "SUN", "HP", "T", "GE", "XRX", "KO")


@dataclass
class Tick:
    """One market-data event from an outside feed."""

    symbol: str
    price: float
    feed_time: float
    serial: int


class TradingRoomWorkload:
    """Drives feeds and analyst queries against an analyst cluster."""

    _serials = itertools.count(1)

    def __init__(
        self,
        analysts: int = 100,
        feeds: int = 4,
        tick_rate: float = 2.0,  # market-wide events per second per feed
        query_rate: float = 0.2,  # position queries per analyst per second
        resiliency: int = 3,
        fanout: int = 8,
        seed: int = 1,
        cluster: Optional[ServiceCluster] = None,
    ) -> None:
        self.cluster = cluster if cluster is not None else build_service_cluster(
            "trading", analysts, resiliency=resiliency, fanout=fanout, seed=seed
        )
        self.env: Environment = self.cluster.env
        self.feeds = feeds
        self.tick_rate = tick_rate
        self.query_rate = query_rate
        # Seed hygiene: fork the run's root RNG instead of reseeding.
        self.rng = self.env.rng.fork("workload/trading")
        self.result = WorkloadResult(name="trading-room", duration=0.0)
        self._positions: Dict[str, int] = {s: 0 for s in SYMBOLS}

        # Analysts: deliver ticks, serve position queries.
        for participant in self.cluster.participants:
            participant.add_listener(self._make_tick_listener(participant))

        from repro.toolkit.hierarchical_service import attach_hierarchical_service

        self.servers = attach_hierarchical_service(
            self.cluster.members, self._serve_query
        )

    # -- feed side --------------------------------------------------------------

    def _publish_tick(self) -> None:
        root = self.cluster.manager_root
        tick = Tick(
            symbol=self.rng.choice(SYMBOLS),
            price=round(self.rng.uniform(10, 200), 2),
            feed_time=self.env.now,
            serial=next(self._serials),
        )
        self.result.events_published += 1
        root.broadcast(tick)

    def _make_tick_listener(self, participant):
        def on_tick(payload, _bid) -> None:
            if isinstance(payload, Tick):
                self.result.events_delivered += 1
                self.result.latency.add(self.env.now - payload.feed_time)

        return on_tick

    # -- analyst query side ---------------------------------------------------------

    def _serve_query(self, payload, client):
        symbol = payload.get("symbol") if isinstance(payload, dict) else None
        return {"symbol": symbol, "position": self._positions.get(symbol, 0)}

    def _issue_query(self, client) -> None:
        sent_at = self.env.now
        self.result.requests_sent += 1

        def on_reply(result) -> None:
            self.result.requests_answered += 1
            self.result.request_latency.add(self.env.now - sent_at)

        client.request(
            client.process.address, {"symbol": self.rng.choice(SYMBOLS)}, on_reply
        )

    # -- driver -------------------------------------------------------------------

    def run(self, duration: float = 10.0, query_clients: int = 4) -> WorkloadResult:
        """Publish ticks for ``duration`` sim-seconds while a handful of
        client stations issue position queries."""
        from repro.core.router import ServiceRouter
        from repro.membership.service import GroupNode
        from repro.toolkit.hierarchical_service import KeyRoutedClient

        start = self.env.now
        # feed schedules (poisson per feed)
        for feed in range(self.feeds):
            rng = self.rng.fork(f"feed-{feed}")
            t = 0.0
            while True:
                t += rng.expovariate(self.tick_rate)
                if t > duration:
                    break
                self.env.scheduler.at(start + t, self._publish_tick)

        clients = []
        for i in range(query_clients):
            node = GroupNode(self.env, f"trader-client-{i}")
            router = ServiceRouter(
                node,
                "trading",
                rpc=node.runtime.rpc,
                leader_contacts=self.cluster.leader_contacts,
            )
            clients.append(KeyRoutedClient(node, router))
        for i, client in enumerate(clients):
            rng = self.rng.fork(f"query-{i}")
            t = 0.0
            rate = self.query_rate * max(1, len(self.cluster.members)) / max(
                1, query_clients
            )
            while True:
                t += rng.expovariate(rate)
                if t > duration:
                    break
                self.env.scheduler.at(
                    start + t, lambda c=client: self._issue_query(c)
                )

        self.env.run_for(duration + 5.0)
        self.result.duration = self.env.now - start
        live = len(self.cluster.live_members())
        self.result.extra["expected_deliveries"] = (
            self.result.events_published * live
        )
        self.result.extra["analysts"] = live
        return self.result
