"""Command-line entry point: quick demonstrations of the library.

Usage::

    python -m repro demo                  # vsync groups in 30 seconds
    python -m repro trading  --analysts 150 --duration 8
    python -m repro factory  --cells 120  --duration 8
    python -m repro scale    --workers 64 # hierarchy vs flat cost table
    python -m repro live     --workers 6  # same protocols on wall-clock asyncio
    python -m repro deploy   --nodes 3 --scenario flat   # real OS processes, UDP
"""

from __future__ import annotations

import argparse
import sys

from repro import Environment, FIFO, TOTAL, __version__, build_group
from repro.metrics import print_table


def cmd_demo(args: argparse.Namespace) -> int:
    env = Environment(seed=args.seed)
    nodes, members = build_group(env, "demo", 4)
    log = []
    for m in members:
        m.add_delivery_listener(
            lambda e, me=m.me: log.append((me, e.payload, e.ordering))
        )
    members[0].multicast("hello", FIFO)
    members[1].multicast("ordered", TOTAL)
    env.run_for(1.0)
    nodes[2].crash()
    env.run_for(3.0)
    print(f"deliveries: {len(log)}  (4 members x 2 multicasts)")
    print(f"view after one crash: {list(members[0].view.members)}")
    print("virtual synchrony, totally ordered multicast, automatic view changes.")
    return 0


def cmd_trading(args: argparse.Namespace) -> int:
    from repro.workloads import TradingRoomWorkload

    workload = TradingRoomWorkload(
        analysts=args.analysts, feeds=3, tick_rate=1.5, seed=args.seed
    )
    result = workload.run(duration=args.duration, query_clients=3)
    print_table(
        f"trading room, {int(result.extra['analysts'])} analysts",
        ["metric", "value"],
        [
            ("feed events", result.events_published),
            ("tick p99 (ms)", round(result.latency.p99 * 1000, 2)),
            ("queries answered", f"{result.requests_answered}/{result.requests_sent}"),
            ("query p99 (ms)", round(result.request_latency.p99 * 1000, 2)),
        ],
    )
    return 0


def cmd_factory(args: argparse.Namespace) -> int:
    from repro.workloads import ManufacturingWorkload

    workload = ManufacturingWorkload(cells=args.cells, seed=args.seed)
    result = workload.run(duration=args.duration, reconfigure_at=args.duration / 2)
    print_table(
        f"factory, {int(result.extra['cells'])} work cells",
        ["metric", "value"],
        [
            ("orders completed", f"{result.requests_answered}/{result.requests_sent}"),
            ("order p99 (ms)", round(result.request_latency.p99 * 1000, 2)),
            ("inventory consistent", bool(result.extra["inventory_consistent"])),
        ],
    )
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """The paper's pitch in one table: cost of one failure, flat vs hier."""
    from repro.core import LargeGroupParams, build_large_group, build_leader_group
    from repro.net import FixedLatency

    rows = []
    for n in (args.workers // 4, args.workers // 2, args.workers):
        env = Environment(seed=n, latency=FixedLatency(0.002))
        fnodes, fmembers = build_group(env, "flat", n, gossip_interval=None)
        env.run_for(1.0)
        before = env.stats_snapshot()
        fnodes[n // 2].crash()
        env.run_for(5.0)
        flat_touched = sum(
            1 for c in env.stats_since(before).received_by.values() if c
        )

        env2 = Environment(seed=n, latency=FixedLatency(0.002))
        params = LargeGroupParams(resiliency=2, fanout=4)
        leaders = build_leader_group(env2, "svc", params, gossip_interval=None)
        contacts = tuple(r.node.address for r in leaders)
        members = build_large_group(
            env2, "svc", n, params, contacts, gossip_interval=None
        )
        env2.run_for(5.0 + 0.3 * n)
        before2 = env2.stats_snapshot()
        members[n // 2].node.crash()
        env2.run_for(5.0)
        hier_touched = sum(
            1 for c in env2.stats_since(before2).received_by.values() if c
        )
        rows.append((n, flat_touched, hier_touched))
    print_table(
        "processes disturbed by one failure",
        ["members", "flat group", "hierarchical"],
        rows,
        note="the paper's point: hierarchy bounds the blast radius",
    )
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    """Hierarchical service on the wall-clock asyncio engine.

    The ``hier`` parity plan — leaders, staggered worker joins, FIFO
    leaf multicast, strict virtual-synchrony sanitizer — on real asyncio
    timers, checked against a sim-engine run of the same plan like
    ``repro deploy``.  Exits non-zero if any worker is left unplaced,
    placement or a per-sender delivery sequence diverges, or the
    sanitizer trips (a violation raises out of the run).
    """
    from repro.deploy.scenarios import HierScenario, run_reference
    from repro.runtime import AsyncioRuntime

    scenario = HierScenario(workers=args.workers)
    runtime = AsyncioRuntime(seed=args.seed, time_scale=args.time_scale)
    try:
        live = run_reference(scenario, runtime=runtime)
    finally:
        runtime.close()
    errors = scenario.check(run_reference(scenario), live)
    placed = sum(1 for slot in live["placement"].values() if slot is not None)
    print(f"scenario:  {scenario.name}  (asyncio, {scenario.duration:.2f} "
          f"logical s at time_scale={args.time_scale})")
    print(f"placed:    {placed}/{args.workers} workers")
    return _parity_verdict(
        live["counters"],
        errors,
        "wall-clock run",
        "parity with the sim reference held: sanitizer-clean on asyncio.",
    )


def _parity_verdict(counters, errors, what: str, held: str) -> int:
    """Shared tail of ``live`` and ``deploy``: sanitizer counts, then
    the parity errors against the sim reference or the all-clear."""
    if counters:
        print(
            f"sanitizer: {counters.get('deliveries_checked', 0)} deliveries "
            f"checked, {counters.get('violations', 0)} violations"
        )
    if errors:
        print(f"FAIL: {what} diverged from the sim reference")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(held)
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    """Run a parity scenario as real OS processes over loopback UDP.

    Every node is its own interpreter with its own socket; all group
    traffic crosses the kernel as wire frames.  The merged outcome is
    checked against a fresh sim-engine run of the same plan and the
    strict per-node sanitizers; exits non-zero on any divergence.
    """
    from repro.deploy import run_deployment

    outcome = run_deployment(
        args.scenario,
        nodes=args.nodes,
        size=args.size,
        time_scale=args.time_scale,
    )
    print(f"scenario:  {outcome.scenario}  ({outcome.nodes} OS processes)")
    wire = outcome.wire
    if wire:
        print(
            f"wire:      {wire.get('frames_sent', 0)} frames / "
            f"{wire.get('wire_bytes_sent', 0)} bytes sent, "
            f"{wire.get('envelopes_sent', 0)} envelopes, "
            f"{wire.get('decode_errors', 0)} decode errors"
        )
    return _parity_verdict(
        outcome.live.get("counters", {}),
        outcome.errors,
        "deployment",
        "deployment parity held: sanitizer-clean across real processes.",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical process groups (Cooper & Birman 1989) — demos",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_demo = sub.add_parser("demo", help="vsync groups in 30 seconds")
    p_demo.add_argument("--seed", type=int, default=1)
    p_demo.set_defaults(fn=cmd_demo)

    p_trading = sub.add_parser("trading", help="trading-room workload")
    p_trading.add_argument("--analysts", type=int, default=100)
    p_trading.add_argument("--duration", type=float, default=6.0)
    p_trading.add_argument("--seed", type=int, default=1)
    p_trading.set_defaults(fn=cmd_trading)

    p_factory = sub.add_parser("factory", help="manufacturing workload")
    p_factory.add_argument("--cells", type=int, default=100)
    p_factory.add_argument("--duration", type=float, default=6.0)
    p_factory.add_argument("--seed", type=int, default=1)
    p_factory.set_defaults(fn=cmd_factory)

    p_scale = sub.add_parser("scale", help="failure blast-radius table")
    p_scale.add_argument("--workers", type=int, default=64)
    p_scale.set_defaults(fn=cmd_scale)

    p_live = sub.add_parser("live", help="hierarchical demo on wall-clock asyncio")
    p_live.add_argument("--workers", type=int, default=6)
    p_live.add_argument("--seed", type=int, default=1)
    p_live.add_argument(
        "--time-scale",
        type=float,
        default=0.1,
        help="wall seconds per logical second (0.1 = 10x faster than real time)",
    )
    p_live.set_defaults(fn=cmd_live)

    p_deploy = sub.add_parser(
        "deploy", help="run a parity scenario as real OS processes over UDP"
    )
    p_deploy.add_argument("--nodes", type=int, default=3)
    p_deploy.add_argument(
        "--scenario", choices=("flat", "hier", "hier-reorg"), default="flat"
    )
    p_deploy.add_argument(
        "--size",
        type=int,
        default=None,
        help="group members (flat) or workers (hier); scenario default if unset",
    )
    p_deploy.add_argument(
        "--time-scale",
        type=float,
        default=0.25,
        help="wall seconds per logical second",
    )
    p_deploy.set_defaults(fn=cmd_deploy)

    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
