"""In-process loopback cluster: N socket runtimes, one event loop.

The middle rung of the deployment ladder (docs/deployment.md): every
node has its own :class:`~repro.runtime.socket_backend.SocketRuntime`,
its own Environment and its own UDP socket — all cross-node traffic is
real wire frames over loopback — but everything is multiplexed on one
asyncio loop in one Python process.  That makes it cheap enough for the
parity matrix in ``tests/test_runtime_parity.py`` and the ``--wire``
perf report, while exercising the identical codec/fabric path the
multi-process launcher uses.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.deploy.scenarios import DEFAULT_TIME_SCALE, merge_results
from repro.proc.env import Environment
from repro.runtime.socket_backend import SocketRuntime, run_cluster


class LoopbackCluster:
    """Run one scenario as ``nodes`` socket runtimes over loopback."""

    def __init__(
        self,
        scenario,
        nodes: int = 3,
        time_scale: float = DEFAULT_TIME_SCALE,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self.scenario = scenario
        self.nodes = nodes
        self.time_scale = time_scale

    def run(self) -> Tuple[Dict[str, Any], Dict[str, int]]:
        """Execute the scenario; returns (merged results, wire stats)."""
        scenario = self.scenario
        owners = scenario.owners(self.nodes)
        runtimes: List[SocketRuntime] = []
        try:
            for node in range(self.nodes):
                runtimes.append(
                    SocketRuntime(
                        seed=scenario.seed + node,
                        time_scale=self.time_scale,
                        # Node 0 owns the loop; the rest share it.
                        loop=runtimes[0].loop if runtimes else None,
                    )
                )
            endpoints = [runtime.open() for runtime in runtimes]
            for node, runtime in enumerate(runtimes):
                runtime.connect(
                    {
                        address: endpoints[owner]
                        for address, owner in owners.items()
                        if owner != node
                    }
                )
            environments = [
                Environment(latency=scenario.latency, runtime=runtime)
                for runtime in runtimes
            ]
            states = []
            for node, env in enumerate(environments):
                local = [a for a, owner in owners.items() if owner == node]
                # Align every node's t=0 to "all nodes wired", mirroring
                # the launcher's barrier release.
                runtimes[node].reset_clock()
                states.append(scenario.build(env, local))
            run_cluster(runtimes, scenario.duration)
            merged = merge_results(
                scenario.results(state) for state in states
            )
            wire: Dict[str, int] = {}
            for runtime in runtimes:
                for key, value in runtime.fabric.wire_stats().items():
                    wire[key] = wire.get(key, 0) + value
            return merged, wire
        finally:
            # Close the loop owner last: a dead loop cannot run the other
            # transports' close callbacks.
            for runtime in reversed(runtimes):
                runtime.close()
