"""A4 (ablation) — partitioned data over subgroups keeps per-op cost flat.

Paper §3: "The leader may perform group-wide application-level functions
such as partitioning data ... between subgroups."  The partitioned store
assigns each key to one leaf, replicates it inside that leaf, and routes
client operations to the owning leaf only — to its cohort set, the first
``resiliency`` members — so a put costs 2r messages and the replication
one leaf's worth, independent of how large the store's serving group
grows.  A get goes to the leaf's coordinator alone and costs 2: one
request, one reply, nothing held or copied, since a read has nothing for
a cohort to take over.
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
    # fetch the tree first so measurement covers only the data path
    warmed = []
    client.router.resolve_key("key-0", warmed.append)
    env.run_for(2.0)
    assert warmed and warmed[0] is not None
    before = env.stats_snapshot()
    oks = []
    for i in range(OPS):
        client.put(f"key-{i}", i, oks.append)
    env.run_for(10.0)
    delta = env.stats_since(before)
    assert oks == [True] * OPS
    per_put = data_messages(delta, CC_CATEGORIES) / OPS
    # replication inside the owning leaf (abcast of the table update)
    repl = delta.by_category.get("group-data", 0) / OPS
    before = env.stats_snapshot()
    values = []
    for i in range(OPS):
        client.get(f"key-{i}", values.append)
    env.run_for(10.0)
    delta = env.stats_since(before)
    assert values == list(range(OPS))
    per_get = data_messages(delta, CC_CATEGORIES) / OPS
    leaves = len(
        next(r for r in leaders if r.is_manager).state.leaves
    )
    return leaves, round(per_put, 1), round(per_get, 1), round(repl, 1), 2 * params.resiliency


def run_experiment():
    rows = []
    per_put_series = []
    for n in SIZES:
        leaves, per_put, per_get, repl, bound = run_one(n)
        per_put_series.append(per_put)
        rows.append((n, leaves, per_put, per_get, repl, bound))
        assert per_put <= bound, f"n={n}: {per_put} msgs/put exceeds {bound}"
        assert per_get == 2, f"n={n}: {per_get} msgs/get, not 2"
    # per-op cost does not grow with n
    assert max(per_put_series) <= min(per_put_series) * 1.8 + 2
    return rows


def test_a4_partitioned_store_flat_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"A4: partitioned store, {OPS} puts then {OPS} gets per run",
        ["workers", "leaves", "cc msgs/put", "cc msgs/get",
         "replication msgs/put", "bound 2r"],
        rows,
        note="each operation touches one leaf: a put costs 2r plus the "
        "replication, one leaf's worth; a get costs 2 (coordinator only); "
        "flat as the store grows",
    )
