"""Symbol-partitioned market-data dissemination.

The trading-room analysts "filter, process and analyze large volumes of
information" (paper §1) — most of a feed's volume is per-symbol detail
that only the desks covering that symbol need.  This workload partitions
the symbol space across the leaf subgroups (the §3 "partitioning data or
processing between subgroups" duty of the leader): a feed routes each
symbol tick to the owning leaf's coordinator, which re-multicasts it
inside the leaf only.  Per-tick traffic is bounded by the leaf size no
matter how big the room grows — compare the market-wide tree broadcast
of :class:`~repro.workloads.trading.TradingRoomWorkload`, which is the
right tool for room-wide events but overkill for per-symbol detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.router import ServiceRouter
from repro.membership.events import FIFO
from repro.membership.service import GroupNode
from repro.proc.env import Environment
from repro.toolkit.hierarchical_service import HierarchicalServer, KeyRoutedClient
from repro.workloads.common import ServiceCluster, WorkloadResult, build_service_cluster
from repro.workloads.trading import SYMBOLS, Tick


@dataclass
class TickRelay:
    """A symbol tick re-multicast within the owning leaf."""

    category = "tick-relay"
    tick: Tick = None  # type: ignore[assignment]


class SymbolFeed(KeyRoutedClient):
    """A data feed that routes each tick to the symbol's owning leaf."""

    def __init__(
        self,
        env: Environment,
        name: str,
        leader_contacts,
        service: str = "trading",
        timeout: float = 1.0,
    ) -> None:
        self.env = env
        self.node = GroupNode(env, name)
        router = ServiceRouter(
            self.node, service, rpc=self.node.runtime.rpc,
            leader_contacts=leader_contacts, rpc_timeout=timeout,
        )
        super().__init__(self.node, router, timeout=timeout, max_retries=2)
        self.ticks_sent = 0
        self.ticks_acked = 0

    def publish(self, tick: Tick) -> None:
        self.ticks_sent += 1

        def acked(result) -> None:
            if result is not None:
                self.ticks_acked += 1

        self.request(tick.symbol, {"tick": tick}, acked)


class SymbolPartitionedTrading:
    """Analysts receive only their leaf's symbols; feeds route by symbol."""

    _serials = itertools.count(1)

    def __init__(
        self,
        analysts: int = 60,
        feeds: int = 2,
        tick_rate: float = 4.0,
        resiliency: int = 3,
        fanout: int = 8,
        seed: int = 5,
        cluster: Optional[ServiceCluster] = None,
    ) -> None:
        self.cluster = cluster if cluster is not None else build_service_cluster(
            "trading", analysts, resiliency=resiliency, fanout=fanout, seed=seed
        )
        self.env = self.cluster.env
        self.tick_rate = tick_rate
        # Seed hygiene: fork the run's root RNG instead of reseeding.
        self.rng = self.env.rng.fork("workload/trading_partitioned")
        self.result = WorkloadResult(name="trading-partitioned", duration=0.0)
        self.deliveries_by_analyst: Dict[str, int] = {}

        self.servers = [
            HierarchicalServer(m, self._make_handler(m))
            for m in self.cluster.members
        ]
        for member in self.cluster.members:
            member.add_delivery_listener(self._make_relay_listener(member))

        self.feeds = [
            SymbolFeed(
                self.env, f"feed-{i}", self.cluster.leader_contacts
            )
            for i in range(feeds)
        ]

    def _make_handler(self, member):
        def handle(payload, client):
            tick = payload.get("tick") if isinstance(payload, dict) else None
            if tick is None:
                return ("error",)
            # the leaf coordinator fans the tick out within its leaf only
            member.leaf_multicast(TickRelay(tick=tick), FIFO)
            return ("ok",)

        return handle

    def _make_relay_listener(self, member):
        def on_delivery(event) -> None:
            payload = event.payload
            if isinstance(payload, TickRelay):
                self.result.events_delivered += 1
                self.result.latency.add(self.env.now - payload.tick.feed_time)
                me = member.me
                self.deliveries_by_analyst[me] = (
                    self.deliveries_by_analyst.get(me, 0) + 1
                )

        return on_delivery

    def run(self, duration: float = 8.0) -> WorkloadResult:
        start = self.env.now
        for feed in self.feeds:  # fetch the tree before the first tick
            feed.router.resolve_key(SYMBOLS[0], lambda placement: None)
        self.env.run_for(1.0)
        for index, feed in enumerate(self.feeds):
            rng = self.rng.fork(f"feed-{index}")
            t = 0.0
            while True:
                t += rng.expovariate(self.tick_rate)
                if t > duration:
                    break

                def publish(f=feed):
                    tick = Tick(
                        symbol=self.rng.choice(SYMBOLS),
                        price=round(self.rng.uniform(10, 200), 2),
                        feed_time=self.env.now,
                        serial=next(self._serials),
                    )
                    self.result.events_published += 1
                    f.publish(tick)

                self.env.scheduler.at(self.env.now + t, publish)
        self.env.run_for(duration + 5.0)
        self.result.duration = self.env.now - start
        live = len(self.cluster.live_members())
        self.result.extra["analysts"] = live
        if self.result.events_published:
            self.result.extra["avg_deliveries_per_tick"] = (
                self.result.events_delivered / self.result.events_published
            )
        return self.result
