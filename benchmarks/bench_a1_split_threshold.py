"""A1 (ablation) — leaf-size bound vs reorganisation churn.

DESIGN.md calls out the split/merge thresholds as a design choice: the
paper fixes the minimum leaf at max(resiliency, fanout) and we split at
``split_factor`` times that.  Smaller leaves bound failure disturbance
more tightly (E5) and cost less membership traffic per joined worker
(each join flushes a smaller leaf), but the leader tracks more of them.
Growth itself splits nothing at any bound: the leader fills each leaf to
the threshold and then opens a fresh one.  This ablation quantifies the
trade-off for a fixed 48-worker arrival sequence.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import MEMBERSHIP_CATEGORIES, hierarchical_service, manager_of

from repro.metrics import data_messages, print_table

WORKERS = 48
LEAF_MINS = (3, 6, 12, 24)


def run_one(leaf_min: int):
    env, params, leaders, members, servers, _p, _r = hierarchical_service(
        WORKERS,
        resiliency=2,
        fanout=4,
        min_leaf_size=leaf_min,
        seed=leaf_min,
        settle=10.0 + 0.4 * WORKERS,
    )
    placed = [m for m in members if m.is_member]
    assert len(placed) == WORKERS
    manager = manager_of(leaders)
    splits = sum(1 for e in manager.events if e[0] == "split-directed")
    membership_msgs = data_messages(
        env.stats_snapshot(), MEMBERSHIP_CATEGORIES
    )
    leaves = len(manager.state.leaves)
    max_leaf = max(l.size for l in manager.state.leaves.values())
    # E5-style disturbance bound for this configuration
    disturbance_bound = params.leaf_split_threshold + params.leader_group_size
    return leaves, max_leaf, splits, membership_msgs, disturbance_bound


def run_experiment():
    rows = []
    series = []
    for leaf_min in LEAF_MINS:
        leaves, max_leaf, splits, msgs, bound = run_one(leaf_min)
        series.append((splits, msgs, bound))
        rows.append((leaf_min, leaves, max_leaf, splits, msgs, bound))
        assert max_leaf <= leaf_min * 2  # split threshold respected
    # growth directs no split at any bound ...
    assert all(splits == 0 for splits, _, _ in series)
    # ... and smaller leaves cost less join traffic and bound failure
    # disturbance more tightly
    assert series[0][1] < series[-1][1]
    assert series[0][2] < series[-1][2]
    return rows


def test_a1_split_threshold_tradeoff(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"A1: leaf-size bound trade-off while growing to {WORKERS} workers",
        [
            "min leaf",
            "leaves",
            "max leaf",
            "splits",
            "membership msgs",
            "failure bound",
        ],
        rows,
        note="growth splits no leaf; tight leaves: smaller blast radius "
        "and less join traffic, more leaves to track — pick by failure budget",
    )
