"""ServiceRouter.resolve_key places keys by itself: it fetches the
leader's tree once per reorg epoch and walks it with the leader's own
rule, so for every key it names the leaf ``HierarchyState.place_key``
names — on the canonical size-mode tree and on the ragged load-mode tree
alike — at one leader round trip per client per epoch."""

import functools

from hypothesis import given, settings, strategies as st

from repro.core import (
    AddLeaf,
    HierarchyState,
    LargeGroupMember,
    LargeGroupParams,
    ServiceRouter,
    build_large_group,
    build_leader_group,
)
from repro.core.views import walk_key
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.proc import Environment
from tests.test_reorg_load import run_scenario

# Leaves of 2..4 under fanout 3: a dozen-odd leaves, a canonical tree
# three branch levels deep.
SIZE_PARAMS = LargeGroupParams(resiliency=2, fanout=3, min_leaf_size=2)
SIZE_WORKERS = 48


def build_size_mode(seed=3):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", SIZE_PARAMS)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", SIZE_WORKERS, SIZE_PARAMS, contacts)
    env.run_for(5.0 + 0.25 * SIZE_WORKERS)
    assert all(m.is_member for m in members)
    manager = next(r for r in leaders if r.is_manager)
    return env, manager, contacts


def warm_router(env, contacts, name):
    node = GroupNode(env, name)
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    got = []
    router.resolve_key("warm-up", got.append)
    env.run_for(1.0)
    assert got and got[0] is not None
    return router


@functools.lru_cache(maxsize=None)
def size_mode_router():
    env, manager, contacts = build_size_mode()
    assert manager.state.depth() >= 4
    return manager, warm_router(env, contacts, "walk-client")


@functools.lru_cache(maxsize=None)
def load_mode_router():
    result = run_scenario()
    manager = result["manager"]
    levels = manager.state.leaves_per_level()
    assert len(levels) > 1, f"the load-mode tree should be ragged: {levels}"
    return manager, warm_router(result["env"], result["contacts"], "walk-client")


def assert_walk_agrees(manager, router, key, env=None):
    """With the tree held the answer comes at once; pass ``env`` where a
    fetch may have to happen first."""
    got = []
    router.resolve_key(key, got.append)
    if not got and env is not None:
        env.run_for(1.0)
    leaf_id = manager.state.place_key(key)
    assert got == [(f"svc::{leaf_id}", manager.state.leaves[leaf_id].contacts)]


@settings(max_examples=2000, deadline=None)
@given(key=st.text(max_size=40))
def test_local_walk_equals_place_key_on_size_mode_tree(key):
    manager, router = size_mode_router()
    assert_walk_agrees(manager, router, key)
    assert router.placement_lookups == 1


@settings(max_examples=2000, deadline=None)
@given(key=st.text(max_size=40))
def test_local_walk_equals_place_key_on_ragged_load_mode_tree(key):
    manager, router = load_mode_router()
    assert_walk_agrees(manager, router, key)
    assert router.placement_lookups == 1


def test_info_reply_tree_keeps_placement_order_past_b9():
    """Size mode lists a branch's children in creation order, which stops
    being sorted order at b10: the walk over the info reply must follow
    the list as the leader holds it, not re-derive it from leaf paths."""
    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=5))
    for i in range(40):
        state.apply(AddLeaf(f"leaf-{i:02d}", 4, (f"w-{i}",)))
    tree = state.summary()["tree"]
    assert any(list(c) != sorted(c) for c in tree.values())
    assert set(tree) == set(state.branches)
    keys = [f"key/{i}" for i in range(2000)]
    assert [walk_key(tree.get, k) for k in keys] == [
        state.place_key(k) for k in keys
    ]
    assert len({state.place_key(k) for k in keys}) > 20  # it does spread


def test_concurrent_first_resolves_share_one_fetch():
    env, manager, contacts = build_size_mode()
    node = GroupNode(env, "burst-client")
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    got = []
    for i in range(20):
        router.resolve_key(f"key-{i}", got.append)
    env.run_for(1.0)
    assert (router.placement_lookups, router.placement_hits) == (1, 0)
    assert [g[0] for g in got] == [
        f"svc::{manager.state.place_key(f'key-{i}')}" for i in range(20)
    ]


def test_split_moves_the_epoch_and_the_router_fetches_again():
    env, manager, contacts = build_size_mode()
    router = warm_router(env, contacts, "split-client")
    keys = [f"order/{i}" for i in range(200)]
    before = {}
    for key in keys:
        router.resolve_key(key, lambda p, key=key: before.__setitem__(key, p[0]))
    epoch = manager.reorg_epoch

    # Grow the group until the leader directs a size split.
    joiners = 0
    while manager.reorg_epoch == epoch:
        joiners += 1
        assert joiners <= 2 * SIZE_WORKERS, "no split was directed"
        node = GroupNode(env, f"svc-extra-{joiners}")
        LargeGroupMember(node, "svc", contacts, params=SIZE_PARAMS).join()
        env.run_for(2.0)
    env.run_for(5.0)
    assert any(e[0] == "split-directed" for e in manager.events)

    moved = [
        k for k in keys if before[k] != f"svc::{manager.state.place_key(k)}"
    ]
    assert moved, "a new leaf re-homes some keys"
    # The router still holds the old epoch's tree until a request on one
    # of its placements fails; then it asks the leader once more.
    router.invalidate_key(moved[0])
    for key in keys:
        assert_walk_agrees(manager, router, key, env=env)
    assert router.placement_invalidations == 1
    assert router.placement_lookups == 2
