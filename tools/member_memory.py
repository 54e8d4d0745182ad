"""Per-member memory of a hierarchical group, by ``repro`` package.

    PYTHONPATH=src:. python -m tools.member_memory [N ...]

For each N (default: 256 and 1024) it builds the leader group and N
workers as ``tools.perf_report``'s hierarchical scenarios do (fanout 8,
heartbeat detectors, 0.5-s stability gossip, joins 20 ms apart), runs
until the joins settle, then has every worker abcast one message a
second in its leaf for ``TRAFFIC_S`` logical seconds and drains.  The
allocations still live at that point, traced since before the cluster
was built, are summed by the ``repro`` package of the frame that made
them (anything outside ``src/repro`` is ``other``) and divided by N.
The total is what one worker costs the host, leaders and the engine
included; it prints one line per package, largest first.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.membership import TOTAL
from tools.perf_report import _build_hier

TRAFFIC_S = 10


@dataclass
class Tick:
    category = "app"
    n: int = 0


def _package(filename: str) -> str:
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return "other"
    rest = filename.split(marker, 1)[1]
    return rest.split(os.sep, 1)[0] if os.sep in rest else "repro"


def measure(n: int) -> Dict[str, float]:
    """Bytes per worker by package, live after the traffic drains."""
    tracemalloc.start()
    env = _build_hier(n, seed=13, join_stagger=0.02)
    env.run_for(6.0 + 0.02 * n)
    workers = [p for p in env.processes if p.address.startswith("svc-w-")]

    def abcast(node, second: int) -> None:
        for member in node.runtime.groups:  # a worker's one leaf
            if member.is_member:
                member.multicast(Tick(second), TOTAL)

    for second in range(TRAFFIC_S):
        for i, node in enumerate(workers):
            env.scheduler.at(
                env.now + second + (i % 100) / 100,
                lambda node=node, second=second: abcast(node, second),
            )
    env.run_for(TRAFFIC_S + 5.0)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    by_package: Dict[str, float] = {}
    for stat in snapshot.statistics("filename"):
        package = _package(stat.traceback[0].filename)
        by_package[package] = by_package.get(package, 0.0) + stat.size / n
    return by_package


def main(argv: Optional[List[str]] = None) -> int:
    sizes = [int(a) for a in (argv if argv is not None else sys.argv[1:])] or [256, 1024]
    for n in sizes:
        by_package = measure(n)
        total = sum(by_package.values())
        print(f"n={n}: {total / 1024:.1f} KB per worker")
        for package, size in sorted(by_package.items(), key=lambda kv: -kv[1]):
            print(f"  {package:12s} {size / 1024:8.2f} KB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
