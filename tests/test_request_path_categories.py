"""The request path speaks a closed set of envelope categories.

The end-to-end benchmark attributes every message to a layer through a
category -> layer table and dies on a category it does not know
(``benchmarks/e2e/layers.py::CATEGORY_LAYER``) — but tier-1 never runs
that harness.  This test drives what the harness drives (requests, a
coordinator crash with its takeover, a request addressed to a stale
cohort set) through a small hierarchical store, with failure detection
and gossip on as in a real service and the strict sanitizer attached,
and holds ``NetworkStats.by_category`` to the same twenty names.  The
table is copied here, not imported: the harness is not on tier-1's path,
and a name added there must be added here by hand, on purpose.
"""

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.failure.detector import HeartbeatDetector
from repro.membership import GroupNode
from repro.metrics.sanitizer import VirtualSynchronySanitizer
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import PartitionedStoreClient, PartitionedStoreServer

KNOWN_CATEGORIES = {
    "heartbeat",
    "transport-ack",
    "group-data",
    "group-setorder",
    "group-stability",
    "group-flush",
    "group-flush-ok",
    "group-new-view",
    "group-suspect",
    "cc-request",
    "cc-reply",
    "cc-result",
    "rpc-request",
    "rpc-reply",
    "hierarchy-op",
    "name-replicate",
    "treecast-relay",
    "treecast-leaf",
    "treecast-ack",
    "treecast-commit",
}

WORKERS = 24
PARAMS = LargeGroupParams(resiliency=3, fanout=4)  # leaves of 4..8


def node_kwargs():
    return dict(
        detector_factory=lambda node: HeartbeatDetector(
            node, interval=0.2, suspect_after=1.0
        ),
        gossip_interval=0.5,
    )


def test_requests_takeover_and_stale_set_stay_in_the_known_categories():
    env = Environment(seed=5, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", PARAMS, **node_kwargs())
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", WORKERS, PARAMS, contacts, **node_kwargs()
    )
    stores = [PartitionedStoreServer(m) for m in members]
    sanitizer = VirtualSynchronySanitizer(strict=True)
    for member in members:
        member.add_leaf_change_listener(sanitizer.attach)
    env.run_for(5.0 + 0.3 * WORKERS)
    assert all(m.is_member for m in members)
    node = GroupNode(env, "store-client", **node_kwargs())
    client = PartitionedStoreClient(node, node.runtime.rpc, contacts, "svc")

    # -- requests ----------------------------------------------------------------
    keys = [f"k{i}" for i in range(40)]
    done = []
    for i, key in enumerate(keys):
        client.put(key, i, done.append)
    env.run_for(3.0)
    assert done == [True] * len(keys)

    # The public accessors reach the per-leaf coordinator-cohort server.
    executed = sum(s.service.current.requests_executed for s in stores)
    assert executed == len(keys)

    # -- a takeover ---------------------------------------------------------------
    by_leaf = {}
    for member, store in zip(members, stores):
        by_leaf.setdefault(member.leaf_id, []).append((member, store))
    leaf_id = client.owner_leaf("k0")
    victim = by_leaf[leaf_id][0][0].leaf_member.acting_coordinator()
    leaf_keys = [k for k in keys if client.owner_leaf(k) == leaf_id]
    got = []
    client.get(leaf_keys[0], got.append)  # in flight when the coordinator dies
    env.crash(victim)
    for key in leaf_keys[1:]:
        client.get(key, got.append)
    env.run_for(5.0)
    assert sorted(got) == sorted(keys.index(k) for k in leaf_keys)
    survivors = [(m, s) for m, s in by_leaf[leaf_id] if m.me != victim]
    assert sum(s.service.current.takeovers for _, s in survivors) >= 1

    # -- a request addressed to a stale cohort set --------------------------------
    cc = client._cc[leaf_id]
    view = survivors[0][0].leaf_member.view
    assert cc._members == view.members[:3]
    cc._members = view.members[3:]  # nobody in the set hears it first-hand
    cc._view_seq -= 1
    client.get(leaf_keys[0], got.append)
    env.run_for(0.5)  # no 1 s retry timer involved
    assert got[-1] == keys.index(leaf_keys[0])
    assert cc._members == view.members[:3]  # the reply corrected the client

    # -- the closed set --------------------------------------------------------------
    by_category = env.network.stats.by_category
    assert set(by_category) <= KNOWN_CATEGORIES, (
        sorted(set(by_category) - KNOWN_CATEGORIES)
    )
    for category in ("cc-request", "cc-reply", "cc-result", "group-data",
                     "heartbeat", "group-new-view", "rpc-request"):
        assert by_category[category] > 0, category
    env.run_for(3.0)
    sanitizer.check(at_quiescence=True)
    assert sanitizer.deliveries_checked > 0 and not sanitizer.violations
