"""E8 — "A process may communicate directly with no more than fanout
group members.  If fanout < size then some multistage broadcast algorithm
must be used." (§3) + the tree-structured broadcast of §5.

A whole-group broadcast descends the branch tree: no process unicasts
tree-stage messages to more than ``fanout`` children, and the stage count
grows logarithmically.  A flat broadcast is one stage but forces the
sender to address all n destinations directly — exactly what fanout
forbids at scale.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import hierarchical_service, manager_of

from repro.core import build_spec
from repro.metrics import print_table

SIZES = (32, 64, 128, 256)
FANOUT = 4


def max_tree_out(spec) -> int:
    own = len(spec.leaf_targets) + len(spec.children)
    return max([own] + [max_tree_out(child) for child in spec.children])


def run_one(n: int):
    env, params, leaders, members, servers, participants, roots = (
        hierarchical_service(
            n,
            resiliency=2,
            fanout=FANOUT,
            seed=n,
            settle=5.0 + 0.3 * n,
            with_treecast=True,
        )
    )
    root = next(r for r in roots if r.replica.is_manager)
    spec = build_spec(root.replica.state)
    done = []
    root.broadcast({"tick": n}, on_complete=done.append)
    env.run_for(10.0)
    live = [p for p in participants if p.member.is_member]
    delivered = sum(1 for p in live if len(p.delivered) == 1)
    assert delivered == len(live), f"{delivered}/{len(live)} delivered"
    assert done and not done[0]["timed_out"]
    stages = spec.stage_count() + 1  # tree stages + the leaf fan-out stage
    elapsed = done[0]["elapsed"]
    return max_tree_out(spec), stages, elapsed, len(live)


def run_experiment():
    rows = []
    prev_stages = 0
    for n in SIZES:
        tree_out, stages, elapsed, live = run_one(n)
        flat_out = live  # a flat broadcast addresses every member directly
        rows.append((n, flat_out, tree_out, stages, round(elapsed * 1000, 1)))
        assert tree_out <= FANOUT, f"n={n}: fanout {tree_out} > {FANOUT}"
        assert stages >= prev_stages  # depth grows (logarithmically)
        prev_stages = stages
    # flat direct-destination count grows with n; tree stays <= fanout
    assert rows[-1][1] > rows[0][2] * 8
    return rows


def test_e8_tree_broadcast_bounded_fanout(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"E8: whole-group broadcast, branch fanout {FANOUT}",
        [
            "n",
            "flat direct dests",
            "tree max direct dests",
            "stages",
            "completion (ms, simulated)",
        ],
        rows,
        note="tree-stage unicasts per process stay <= fanout; stages grow "
        "~log_fanout(leaves); ack aggregation included in completion time",
    )
