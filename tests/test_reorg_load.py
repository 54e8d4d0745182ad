"""Load-driven reorganisation under churn (the PR 9 tentpole).

One deterministic scenario exercises the whole recursive-hierarchy arc:
a service grows to four full leaves (they overflow the fanout-3 root,
so the canonical tree is 3 levels deep without any load), one leaf is driven
*hot* and splits on rate rather than size, traffic stops, the cooled
split halves are detected as a cold sibling pair and merge back — all
sanitizer-clean (VS001–VS006, strict), on both the sim and asyncio
engines, and byte-for-byte repeatable on the sim engine.
"""

import pytest

from repro.core import (
    LargeGroupParams,
    ReorgPolicy,
    ServiceRouter,
    build_large_group,
    build_leader_group,
)
from repro.membership import GroupNode
from repro.metrics.sanitizer import VirtualSynchronySanitizer
from repro.net import FixedLatency
from repro.proc import Environment
from repro.runtime import AsyncioRuntime

POLICY = ReorgPolicy(
    mode="load",
    report_interval=0.5,
    cooldown=6.0,
    ewma_alpha=0.6,
    hot_delivery_rate=8.0,
    cold_delivery_rate=0.5,
)
PARAMS = LargeGroupParams(resiliency=2, fanout=3, reorg=POLICY)
WORKERS = 24  # four full leaves of six (leaf_min=3, split threshold 6)


def run_scenario(seed=11, runtime=None):
    """Grow, heat one leaf, cool down; return everything worth asserting."""
    env = Environment(seed=seed, latency=FixedLatency(0.002), runtime=runtime)
    leaders = build_leader_group(env, "svc", PARAMS)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", WORKERS, PARAMS, contacts)
    env.run_for(10.0)

    manager = next(r for r in leaders if r.is_manager)
    # The sim engine settles within 10s; the asyncio engine's wall-clock
    # jitter can stretch joins, so extend the grow phase until everyone
    # is placed (no-op under sim, keeping its timeline byte-identical).
    for _ in range(20):
        if sum(1 for m in members if m.is_member) == WORKERS:
            break
        env.run_for(5.0)
    placed = [m for m in members if m.is_member]
    assert len(placed) == WORKERS, "every worker must be placed before churn"
    depth_grown = manager.state.depth()

    sanitizer = VirtualSynchronySanitizer(strict=True)
    for member in placed:
        # Re-attach across splits/merges: the listener fires immediately
        # for the current leaf and again for every later leaf change.
        member.add_leaf_change_listener(sanitizer.attach)

    # Heat exactly one leaf: 20 deliveries/sec against hot thresholds of
    # 8/sec, for 2.5s — long enough for the EWMA to cross and the leader
    # to direct a hot split; the 6s cooldown outlasts the heat so the
    # still-hot halves cannot split again before their rates decay.
    # Heat the highest-sorted leaf: its offspring's id (the next
    # single-digit counter) sorts right after it, so the canonical
    # packing puts origin and offspring in one branch — siblings —
    # which is what the cold-merge rail later pairs up.
    target_leaf = sorted(manager.state.leaves)[-1]
    sender = next(m for m in placed if m.leaf_id == target_leaf)
    start = env.now
    def tick(i):
        # The sender may transiently be mid-move (split in progress, not
        # yet placed in the new leaf); skip rather than raise.
        if sender.is_member:
            sender.leaf_multicast(("tick", i))

    for i in range(50):
        env.scheduler.at(start + (i + 1) * 0.05, lambda i=i: tick(i))
    env.run_for(5.0)
    depth_hot = manager.state.depth()

    # Quiet phase: rates decay below the cold floor, the cooldown
    # expires, and the split halves (sizes 3+3 <= threshold 6 — the only
    # mergeable sibling pair) merge back.
    env.run_for(12.0)

    live = [m for m in members if m.node.alive]
    return {
        "leaves": dict(manager.state.leaves),
        "depth": manager.state.depth(),
        "depth_grown": depth_grown,
        "depth_hot": depth_hot,
        "reorgs": [
            (e["event"], e.get("reason"), e["leaf"])
            for e in manager.reorg_log
        ],
        "windows": [
            round(e["window"], 6)
            for e in manager.reorg_log
            if e["event"] == "routing-converged"
        ],
        "epoch": manager.reorg_epoch,
        "deliveries_checked": sanitizer.deliveries_checked,
        "violations": len(sanitizer.violations),
        "members_settled": all(m.is_member for m in live),
        "env": env,
        "manager": manager,
        "contacts": contacts,
    }


def _assert_full_arc(result):
    events = result["reorgs"]
    assert any(
        e == "split-directed" and r == "hot" for e, r, _ in events
    ), f"no hot split in {events}"
    assert any(
        e == "merge-directed" and r == "cold" for e, r, _ in events
    ), f"no cold merge in {events}"
    # Four or five leaves at fanout 3: one branch level between the root
    # and the leaves, before, during and after the heat.
    assert result["depth_grown"] == 3, "four leaves must overflow the root"
    assert result["depth_hot"] == 3
    assert result["depth"] == 3
    assert result["violations"] == 0
    assert result["deliveries_checked"] > 0, "sanitizer must have been live"
    assert result["members_settled"]
    # Every hot split's routing disruption was measured and closed.
    splits = sum(1 for e, _, _ in events if e == "split-directed")
    assert len(result["windows"]) == splits
    assert all(w > 0.0 for w in result["windows"])


def test_load_driven_reorg_full_arc_sim():
    result = run_scenario()
    _assert_full_arc(result)


def test_load_driven_reorg_deterministic():
    first = run_scenario()
    second = run_scenario()
    assert first["leaves"] == second["leaves"]
    assert first["depth"] == second["depth"]
    assert first["reorgs"] == second["reorgs"]
    assert first["windows"] == second["windows"]
    assert first["epoch"] == second["epoch"]
    assert first["deliveries_checked"] == second["deliveries_checked"]


def test_router_placement_cache_invalidated_by_reorg():
    """resolve_key walks the tree the router fetched for one reorg epoch;
    a reorg moves the epoch, a failure on the stale placement drops the
    tree and the next resolve fetches the new one."""
    result = run_scenario()
    env, manager = result["env"], result["manager"]
    node = GroupNode(env, "placement-client")
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=result["contacts"]
    )
    got = []
    router.resolve_key("orders/17", got.append)
    env.run_for(1.0)
    assert got and got[0] is not None
    group, leaf_contacts = got[0]
    assert group in manager.state.leaves and leaf_contacts
    assert (router.placement_lookups, router.placement_hits) == (1, 0)
    # The tree is held: every further key is placed without a message.
    router.resolve_key("orders/17", got.append)
    router.resolve_key("a-different-key", got.append)
    assert (router.placement_lookups, router.placement_hits) == (1, 2)
    assert got[1] == got[0]

    # Force a structural change directly through the replicated op
    # stream (the protocol-driven path is exercised by the full-arc
    # test); any applied AddLeaf/RemoveLeaf moves the reorg epoch.
    from repro.core import RemoveLeaf

    epoch_before = manager.reorg_epoch
    manager._propose(RemoveLeaf(leaf_id=group))
    env.run_for(1.0)
    assert manager.reorg_epoch > epoch_before

    # Requests to the removed leaf fail; the client says so, and the next
    # resolve fetches the tree of the new epoch and re-places the key.
    router.invalidate()
    router.resolve_key("orders/17", got.append)
    env.run_for(1.0)
    assert router.placement_invalidations == 1
    assert router.placement_lookups == 2
    assert got[-1] is not None and got[-1][0] != group
    assert got[-1][0] == manager.state.place_key("orders/17")


@pytest.mark.asyncio_smoke
def test_load_driven_reorg_asyncio_engine():
    """The identical scenario live on the asyncio engine: wall-clock
    jitter may reorder unrelated deliveries, but the reorg arc and the
    sanitizer guarantees must hold."""
    # A generous time scale: the heat phase spaces ticks 0.05 sim-seconds
    # apart, and at 0.05x that is 2.5ms wall — within scheduler/GC jitter,
    # which flattens the measured rates below the hot threshold. 0.2x
    # gives every timer 4x the headroom and keeps the run under ~10s.
    runtime = AsyncioRuntime(seed=11, time_scale=0.2)
    try:
        result = run_scenario(runtime=runtime)
        assert result["violations"] == 0
        assert result["deliveries_checked"] > 0
        assert result["members_settled"]
        assert result["depth"] >= 3
        assert any(
            e == "split-directed" and r == "hot"
            for e, r, _ in result["reorgs"]
        )
    finally:
        runtime.close()
