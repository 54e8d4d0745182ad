"""The request path speaks a closed set of envelope categories.

The end-to-end benchmark attributes every message to a layer through a
category -> layer table and dies on a category it does not know
(``benchmarks/e2e/layers.py::CATEGORY_LAYER``) — but tier-1 never runs
that harness.  This test drives what the harness drives (requests, a
coordinator crash with its takeover, a request addressed to a stale
cohort set) through a small hierarchical store, with failure detection
and gossip on as in a real service and the strict sanitizer attached,
and holds ``NetworkStats.by_category`` to the same nineteen names (the
harness's table still lists ``group-setorder``, a category no message has
carried since the sequencer began relaying stamped copies).  The
table is copied here, not imported: the harness is not on tier-1's path,
and a name added there must be added here by hand, on purpose.

The harness is also the only place a per-request message budget is
visible, so the second test pins it on the benchmark's leaf shape (one
full leaf of 16): a put is the request path's 3 + 1 + 2 ``cc-*``
messages (the set, the reply, the result copies) plus one ``group-data``
per other member — the coordinator is the sequencer, so its abcast
carries its own order and goes straight to every member — and a get is
1 + 1: one request to the coordinator, one reply, nothing else.  No
failure-free window sends a ``Probe``.  A put whose coordinator has
crashed is 3 ``cc-request`` plus the client's one hedge to rank 1, then
``PROBES`` probes from rank 1, one more as rank 1's watch walks past the
coordinator to the last rank, and one view change, after which the
takeover answers it.  The third test holds a steady put stream to
the failure-free budget with no ``transport-ack`` at all: the acks ride
the stability round.

The harness's echo client is likewise the only thing that saw what a
tree-routed client's *first* request to a leaf costs.  It resolves the
key with ``ServiceRouter.resolve_key`` and builds a
``CoordinatorCohortClient`` from the placement; the placement's contacts
are the leader's directory entry, the leaf's cohort set, so that first
request goes straight to the set: 3 + 1 + 2 ``cc-*`` messages and no RPC
but the one tree fetch the router makes for every leaf.

Nor has the harness a per-member metric for the background budget yet
(ROADMAP item 1(b)); the fourth test is its tier-1 stand-in: an idle
hierarchy with the benchmark's parameters sends one heartbeat per worker
per tick plus the leader tier's own watches, one renewal per watch per
``RENEW_TICKS``, and nothing else — the same per worker at n = 64 and
n = 256.
"""

from collections import Counter

import pytest

from repro.core import (
    LargeGroupMember,
    LargeGroupParams,
    ServiceRouter,
    build_large_group,
    build_leader_group,
)
from repro.failure.detector import PROBES, RENEW_TICKS, HeartbeatDetector
from repro.membership import GroupNode
from repro.metrics.sanitizer import VirtualSynchronySanitizer
from repro.net import FixedLatency
from repro.proc import Environment
from repro.proc.rpc import RpcRequest
from repro.toolkit import (
    CoordinatorCohortClient,
    PartitionedStoreClient,
    PartitionedStoreServer,
    attach_hierarchical_service,
)
from repro.toolkit.coordinator_cohort import _CCDispatch

KNOWN_CATEGORIES = {
    "heartbeat",
    "transport-ack",
    "group-data",
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
    got, rewritten = [], []
    # A put in flight when the coordinator dies is the takeover's to run;
    # the gets behind it are answered by the next rank.
    client.put(leaf_keys[0], keys.index(leaf_keys[0]), rewritten.append)
    env.crash(victim)
    for key in leaf_keys:
        client.get(key, got.append)
    env.run_for(5.0)
    assert rewritten == [True]
    assert sorted(got) == sorted(keys.index(k) for k in leaf_keys)
    survivors = [(m, s) for m, s in by_leaf[leaf_id] if m.me != victim]
    assert sum(s.service.current.takeovers for _, s in survivors) >= 1

    # -- a request addressed to a stale cohort set --------------------------------
    placement = []
    client.router.resolve_key(leaf_keys[0], placement.append)
    cc = client._cc[placement[0][0]]
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


def sixteen_member_leaf():
    """The benchmark's leaf shape: one full leaf of 16 with a store, a
    client that has already found it, and the strict sanitizer."""
    params = LargeGroupParams(resiliency=3, fanout=8)  # the e2e cluster's
    env = Environment(seed=5, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", params, **node_kwargs())
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", 16, params, contacts, **node_kwargs())
    stores = [PartitionedStoreServer(m) for m in members]
    sanitizer = VirtualSynchronySanitizer(strict=True)
    for member in members:
        member.add_leaf_change_listener(sanitizer.attach)
    env.run_for(5.0 + 0.3 * 16)
    assert {m.leaf_size for m in members} == {16}
    node = GroupNode(env, "store-client", **node_kwargs())
    client = PartitionedStoreClient(node, node.runtime.rpc, contacts, "svc")
    done = []
    client.put("warm-up", 0, done.append)  # the leaf directory, the set with it
    env.run_for(2.0)
    return env, params, contacts, members, stores, sanitizer, client, done


def kinds_sent(env):
    """A Counter that fills with the payload type of every datagram sent."""
    kinds = Counter()
    env.network.add_tap(
        lambda _event, e: kinds.update((type(e.payload).__name__,)),
        events=("send",),
    )
    return kinds


def test_a_put_into_a_sixteen_member_leaf_is_15_data_and_6_cc():
    env, params, contacts, members, stores, sanitizer, client, done = (
        sixteen_member_leaf()
    )

    kinds = kinds_sent(env)

    def window(count, op):
        """``count`` calls of ``op(i)`` 50 ms apart; the window's
        per-category counts.  Failure-free: no probe."""
        before = env.network.stats.snapshot()
        probes = kinds["Probe"]
        for i in range(count):
            env.scheduler.after(0.05 * i, lambda i=i: op(i))
        env.run_for(0.05 * count + 2.0)
        delta = env.network.stats.since(before).by_category
        assert set(delta) <= KNOWN_CATEGORIES, sorted(set(delta) - KNOWN_CATEGORIES)
        assert kinds["Probe"] == probes
        return delta

    def puts(count, start):
        return window(count, lambda i: client.put(f"k{start + i}", i, done.append))

    got = []

    def gets(count, start):
        """Gets only read: no abcast, no stability, no result copies."""
        delta = window(count, lambda i: client.get(f"k{start + i}", got.append))
        assert (delta["cc-request"], delta["cc-reply"], delta.get("cc-result", 0)) == (
            count, count, 0,
        )
        assert delta.get("group-data", 0) == 0
        assert got[-count:] == list(range(count))

    # -- puts ----------------------------------------------------------------------
    delta = puts(20, start=0)
    assert done == [True] * 21
    assert delta["group-data"] == 20 * 15
    assert (delta["cc-request"], delta["cc-reply"], delta["cc-result"]) == (60, 20, 40)
    # 15 reports and 15 floors per busy gossip round, whatever the put
    # count; the puts span three ticks and the last floors follow a tick
    # later.
    assert 0 < delta["group-stability"] <= 4 * 2 * 15
    assert delta["transport-ack"] <= 20 * 15 + delta["group-stability"]
    gets(20, start=0)

    gets(20, start=0)
    gets(20, start=0)
    assert _CCDispatch.for_process(client.process).hedge_delay is not None
    assert kinds["Probe"] == 0

    # -- a takeover: the next rank both coordinates and sequences -----------------------
    # The put reaches the set, its hedge reaches rank 1, rank 1's probes go
    # unanswered, its watch walks on to the last rank with one probe more,
    # and one view change later the takeover answers it.
    coordinator = members[0].leaf_member.view.coordinator
    view_seq = members[0].leaf_member.view.seq
    before = env.network.stats.snapshot()
    client.put("in-flight", 1, done.append)
    env.crash(coordinator)
    env.run_for(5.0)
    assert done == [True] * 22
    survivors = [(m, s) for m, s in zip(members, stores) if m.me != coordinator]
    assert sum(s.service.current.takeovers for _, s in survivors) == 1
    delta = env.network.stats.since(before).by_category
    assert set(delta) <= KNOWN_CATEGORIES
    assert (delta["cc-request"], delta["cc-reply"], delta["cc-result"]) == (3 + 1, 1, 2)
    assert kinds["Probe"] == PROBES + 1
    assert {m.leaf_member.view.seq for m, _ in survivors} == {view_seq + 1}
    delta = puts(20, start=100)
    assert delta["group-data"] == 20 * 14
    assert (delta["cc-request"], delta["cc-reply"], delta["cc-result"]) == (60, 20, 40)
    gets(20, start=100)

    # -- a join ---------------------------------------------------------------------
    before = env.network.stats.snapshot()
    joiner_node = GroupNode(env, "svc-r-1", **node_kwargs())
    joiner = LargeGroupMember(joiner_node, "svc", contacts, params=params)
    joiner.add_leaf_change_listener(sanitizer.attach)
    joined_store = PartitionedStoreServer(joiner)
    joiner.join()
    env.run_for(5.0)
    assert joiner.is_member and joiner.leaf_size == 16
    assert set(env.network.stats.since(before).by_category) <= KNOWN_CATEGORIES
    delta = puts(20, start=200)
    assert delta["group-data"] == 20 * 15
    assert len(done) == 62 and all(done)
    assert joined_store.local_value("k219") == 19  # state transfer + live puts
    assert joined_store.local_value("k19") == 19

    env.run_for(3.0)
    sanitizer.check(at_quiescence=True)
    assert sanitizer.deliveries_checked > 0 and not sanitizer.violations


def test_a_steady_put_stream_draws_no_transport_ack():
    """kv_write's shape in tier-1: puts keep flowing into the leaf, so every
    member reports each gossip round and the coordinator announces floors
    each round.  The acks for the data ride on the reports and those for
    reports and floors on the next floors and reports — over a 2 s window
    a put is its 3 + 1 + 2 ``cc-*`` messages, 15 ``group-data`` and no
    ``transport-ack`` at all (1 per receiver per put without the
    stability plane: ``tests/test_comms.py``)."""
    env, _params, _contacts, _members, _stores, sanitizer, client, done = (
        sixteen_member_leaf()
    )
    gap, puts = 0.05, 100
    for i in range(puts):
        env.scheduler.after(gap * i, lambda i=i: client.put(f"s{i}", i, done.append))
    # Window edges fall midway between puts: 40 whole puts, 2 s, starting
    # once the stream has run for a gossip round.
    env.run_for(gap * 20 - gap / 2)
    before = env.network.stats.snapshot()
    env.run_for(gap * 40)
    delta = env.network.stats.since(before).by_category
    per_put = {
        category: delta.get(category, 0) / 40
        for category in ("cc-request", "cc-reply", "cc-result", "group-data",
                         "transport-ack")
    }
    assert per_put == {
        "cc-request": 3, "cc-reply": 1, "cc-result": 2, "group-data": 15,
        "transport-ack": 0,
    }
    env.run_for(gap * puts)
    assert len(done) == 1 + puts and all(done)
    sanitizer.check(at_quiescence=True)
    assert sanitizer.deliveries_checked > 0 and not sanitizer.violations


def test_a_tree_routed_first_touch_sends_no_get_members():
    """Built exactly as the benchmark's echo client builds its stubs: the
    first write to each of two leaves is 3 + 1 + 2 ``cc-*`` messages, and
    the client's only RPC is the router's one tree fetch."""
    env = Environment(seed=5, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", PARAMS, **node_kwargs())
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", WORKERS, PARAMS, contacts, **node_kwargs()
    )
    attach_hierarchical_service(members, lambda payload, client: ("echo", payload))
    env.run_for(5.0 + 0.3 * WORKERS)
    assert all(m.is_member for m in members)
    manager = next(r for r in leaders if r.is_manager)
    by_leaf = {}
    for i in range(100):
        by_leaf.setdefault(manager.state.place_key(f"k{i}"), f"k{i}")
    assert len(by_leaf) >= 2
    keys = list(by_leaf.values())[:2]

    node = GroupNode(env, "echo-client", **node_kwargs())
    router = ServiceRouter(node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts)
    stubs = {}
    rpc_bodies = []
    env.network.add_tap(
        lambda _event, e: rpc_bodies.append(type(e.payload.body).__name__)
        if e.src == node.address and isinstance(e.payload, RpcRequest) else None,
        events=("send",),
    )

    def request(key, on_result):
        def placed(placement):
            group, leaf_contacts = placement
            cc = stubs.get(group)
            if cc is None:
                cc = CoordinatorCohortClient(
                    node, group, contacts=leaf_contacts, rpc=router.rpc,
                    timeout=1.0, max_retries=3,
                )
                stubs[group] = cc
            cc.request(key, on_result, on_failure=lambda: on_result(None))

        router.resolve_key(key, placed)

    got = []
    for key in keys:
        before = env.network.stats.snapshot()
        request(key, got.append)
        env.run_for(0.5)
        delta = env.network.stats.since(before).by_category
        assert got[-1] == ("echo", key)
        assert {c: n for c, n in delta.items() if c.startswith("cc-")} == {
            "cc-request": 3, "cc-reply": 1, "cc-result": 2,
        }
    assert len(stubs) == 2
    assert rpc_bodies == ["GetHierarchyInfo"]


@pytest.mark.parametrize("workers", [64, 256])
def test_idle_hierarchy_costs_one_heartbeat_per_worker_per_tick(workers):
    params = LargeGroupParams(resiliency=3, fanout=8)  # the e2e cluster's
    interval = 0.2
    env = Environment(seed=5, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", params, **node_kwargs())
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", workers, params, contacts, **node_kwargs()
    )
    env.run_for(5.0 + 0.3 * workers)
    assert all(m.is_member for m in members)
    leaves = {m.leaf_id for m in members}
    assert len(leaves) == workers // 16

    kinds = Counter()

    def tap(_event, envelope):
        kinds[type(envelope.payload).__name__] += 1

    env.network.add_tap(tap, events=("send",))
    before = env.network.stats.snapshot()
    ticks = 2 * RENEW_TICKS  # every watch renews exactly twice
    env.run_for(ticks * interval)
    assert set(env.network.stats.since(before).by_category) == {"heartbeat"}
    # Who is watched: every worker by its ring successor, every leader by
    # its successor in the leader group, each leaf's coordinator by the
    # manager.
    leader_tier = len(leaders) + len(leaves)
    watches = workers + leader_tier
    assert kinds == {
        "Heartbeat": watches * ticks,
        "Subscribe": watches * ticks // RENEW_TICKS,
    }
    per_worker_per_tick = (kinds["Heartbeat"] / ticks - leader_tier) / workers
    assert per_worker_per_tick == 1
