"""Multi-process deployment launcher: real OS processes over loopback.

``run_deployment`` is what ``python -m repro deploy`` drives: spawn N
child processes (``multiprocessing`` spawn context — each child is a
fresh interpreter importing the library, exactly like a real host), run
the tracker bootstrap (register → barrier → results → shutdown), then
gate the whole run on parity: the merged per-node results must match a
fresh sim-engine run of the identical scenario plan — same views, same
leaf placement, same per-sender delivery sequences — with every node's
strict sanitizer silent.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.deploy.scenarios import (
    DEFAULT_TIME_SCALE,
    make_scenario,
    merge_results,
    run_reference,
)
from repro.deploy.tracker import NodeClient, Tracker, TrackerError

# Hard ceiling on waiting for children to exit after shutdown fan-out.
_JOIN_TIMEOUT = 20.0


@dataclass
class DeployOutcome:
    """What a deployment produced, parity verdict included."""

    ok: bool
    scenario: str
    nodes: int
    errors: List[str] = field(default_factory=list)
    reference: Dict[str, Any] = field(default_factory=dict)
    live: Dict[str, Any] = field(default_factory=dict)
    wire: Dict[str, int] = field(default_factory=dict)


def _node_main(
    scenario_name: str,
    size: Optional[int],
    nodes: int,
    time_scale: float,
    node: int,
    tracker_endpoint: Tuple[str, int],
) -> None:
    """Child entry point: one OS process = one deployment node."""
    from repro.proc.env import Environment
    from repro.runtime.socket_backend import SocketRuntime

    client = NodeClient(node, tracker_endpoint)
    runtime = None
    payload: Any
    try:
        scenario = make_scenario(scenario_name, size)
        owners = scenario.owners(nodes)
        runtime = SocketRuntime(
            seed=scenario.seed + node, time_scale=time_scale
        )
        data_endpoint = runtime.open()
        peers = client.register(data_endpoint)
        runtime.connect(
            {
                address: peers[owner]
                for address, owner in owners.items()
                if owner != node
            }
        )
        env = Environment(latency=scenario.latency, runtime=runtime)
        local = [a for a, owner in owners.items() if owner == node]
        # t=0 is the barrier release on every node, so the scenario's
        # absolute-time schedule lines up across the deployment.
        runtime.reset_clock()
        state = scenario.build(env, local)
        env.run_for(scenario.duration)
        payload = scenario.results(state)
        payload["wire"] = runtime.fabric.wire_stats()
    except Exception:
        payload = {"error": traceback.format_exc()}
    try:
        client.report(payload)
    finally:
        client.close()
        if runtime is not None:
            runtime.close()
    raise SystemExit(1 if isinstance(payload, dict) and "error" in payload else 0)


def run_deployment(
    scenario_name: str,
    nodes: int = 3,
    size: Optional[int] = None,
    time_scale: float = DEFAULT_TIME_SCALE,
) -> DeployOutcome:
    """Deploy a scenario as ``nodes`` real OS processes; check parity."""
    scenario = make_scenario(scenario_name, size)
    if scenario.name == "hier" and nodes < 2:
        raise ValueError("the hier scenario needs >= 2 nodes (leaders + workers)")
    tracker = Tracker(expected=nodes)
    context = multiprocessing.get_context("spawn")
    children = [
        context.Process(
            target=_node_main,
            args=(
                scenario_name,
                size,
                nodes,
                time_scale,
                node,
                tracker.endpoint,
            ),
            daemon=True,
            name=f"deploy-node-{node}",
        )
        for node in range(nodes)
    ]
    errors: List[str] = []
    node_results: Dict[int, Any] = {}
    try:
        for child in children:
            child.start()
        tracker.wait_registered()
        node_results = tracker.wait_results()
        tracker.shutdown()
    except TrackerError as exc:
        errors.append(str(exc))
    finally:
        for child in children:
            child.join(timeout=_JOIN_TIMEOUT / max(1, len(children)))
        for child in children:
            if child.is_alive():
                errors.append(f"{child.name} did not exit; terminated")
                child.terminate()
                child.join(timeout=2.0)
        tracker.close()

    wire: Dict[str, int] = {}
    slices = []
    for node in sorted(node_results):
        payload = node_results[node]
        if not isinstance(payload, dict):
            errors.append(f"node {node} reported malformed result {payload!r}")
            continue
        if "error" in payload:
            errors.append(f"node {node} failed:\n{payload['error']}")
            continue
        for key, value in payload.pop("wire", {}).items():
            wire[key] = wire.get(key, 0) + int(value)
        slices.append(payload)

    live = merge_results(slices)
    reference: Dict[str, Any] = {}
    if not errors:
        reference = run_reference(scenario)
        errors.extend(scenario.check(reference, live))
        if not live.get("counters", {}).get("deliveries_checked"):
            errors.append("live sanitizers checked no deliveries")
        if not reference.get("counters", {}).get("deliveries_checked"):
            errors.append("reference sanitizer checked no deliveries")
        if not wire.get("frames_received"):
            errors.append("no wire frames crossed the loopback")
        if wire.get("decode_errors"):
            errors.append(f"{wire['decode_errors']} wire decode errors")
    return DeployOutcome(
        ok=not errors,
        scenario=scenario_name,
        nodes=nodes,
        errors=errors,
        reference=reference,
        live=live,
        wire=wire,
    )
