"""A4 (ablation) — partitioned data over subgroups keeps per-op cost flat.

Paper §3: "The leader may perform group-wide application-level functions
such as partitioning data ... between subgroups."  The partitioned store
assigns each key to one leaf, replicates it inside that leaf, and routes
client operations to the owning leaf only — to its cohort set, the first
``resiliency`` members — so the request costs 2r messages and the
replication one leaf's worth, independent of how large the store's
serving group grows.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import CC_CATEGORIES, hierarchical_service

from repro.membership import GroupNode
from repro.metrics import data_messages, print_table
from repro.toolkit import PartitionedStoreClient, PartitionedStoreServer

SIZES = (8, 16, 32, 64)
OPS = 20


def run_one(n: int):
    env, params, leaders, members, _servers, _p, _r = hierarchical_service(
        n, resiliency=2, fanout=4, seed=n, settle=5.0 + 0.3 * n
    )
    stores = [PartitionedStoreServer(m) for m in members]
    contacts = tuple(r.node.address for r in leaders)
    node = GroupNode(env, "client")
    client = PartitionedStoreClient(node, node.runtime.rpc, contacts, "svc")
    # warm the leaf directory so measurement covers only the data path
    warmed = []
    client.refresh(warmed.append)
    env.run_for(2.0)
    assert warmed == [True]
    before = env.stats_snapshot()
    oks = []
    for i in range(OPS):
        client.put(f"key-{i}", i, oks.append)
    env.run_for(10.0)
    delta = env.stats_since(before)
    assert oks == [True] * OPS
    per_op = data_messages(delta, CC_CATEGORIES) / OPS
    # replication inside the owning leaf (abcast of the table update)
    repl = delta.by_category.get("group-data", 0) / OPS
    leaves = len(
        next(r for r in leaders if r.is_manager).state.leaves
    )
    return leaves, round(per_op, 1), round(repl, 1), 2 * params.resiliency


def run_experiment():
    rows = []
    per_op_series = []
    for n in SIZES:
        leaves, per_op, repl, bound = run_one(n)
        per_op_series.append(per_op)
        rows.append((n, leaves, per_op, repl, bound))
        assert per_op <= bound, f"n={n}: {per_op} msgs/op exceeds {bound}"
    # per-op cost does not grow with n
    assert max(per_op_series) <= min(per_op_series) * 1.8 + 2
    return rows


def test_a4_partitioned_store_flat_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"A4: partitioned store, {OPS} puts per run",
        ["workers", "leaves", "cc msgs/op", "replication msgs/op", "bound 2r"],
        rows,
        note="each operation touches one leaf: the request costs 2r, the "
        "replication one leaf's worth, flat as the store grows",
    )
