"""ServiceRouter.resolve_key places keys by itself: it fetches the
leader's tree once per reorg epoch and walks it with the leader's own
rule, so for every key it names the leaf ``HierarchyState.place_key``
names — on a size-mode tree and on a load-mode tree after a hot split
and a cold merge alike — at one leader round trip per client per
epoch.  The router packs that tree from the reply's leaf ids with the
leader's own function, for any id set and fanout.  The last two tests
cover dropping the tree and clients that place themselves by their own
address."""

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
from repro.core.leader import directory_reply
from repro.core.views import pack_tree, walk_key
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.net.message import Envelope
from repro.net.wire import decode_frame, encode_data_frames
from repro.net.wire.registry import ensure_registered
from repro.proc import Environment
from repro.proc.rpc import RpcReply
from tests.test_reorg_load import PARAMS as LOAD_PARAMS, run_scenario

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
    env, contacts = result["env"], result["contacts"]
    # After the hot split and its cold merge, leaf_min late joiners open
    # one more leaf, and the tree is re-packed around it.
    for i in range(LOAD_PARAMS.leaf_min):
        node = GroupNode(env, f"svc-late-{i}")
        LargeGroupMember(node, "svc", contacts, params=LOAD_PARAMS).join()
    env.run_for(5.0)
    manager = result["manager"]
    assert manager.state.depth() == 3
    return manager, warm_router(result["env"], result["contacts"], "walk-client")


def assert_walk_agrees(manager, router, key, env=None):
    """With the tree held the answer comes at once; pass ``env`` where a
    fetch may have to happen first."""
    got = []
    router.resolve_key(key, got.append)
    if not got and env is not None:
        env.run_for(1.0)
    leaf_id = manager.state.place_key(key)
    assert got == [(leaf_id, manager.state.leaves[leaf_id].contacts)]


@settings(max_examples=2000, deadline=None)
@given(key=st.text(max_size=40))
def test_local_walk_equals_place_key_on_size_mode_tree(key):
    manager, router = size_mode_router()
    assert_walk_agrees(manager, router, key)
    assert router.placement_lookups == 1


@settings(max_examples=2000, deadline=None)
@given(key=st.text(max_size=40))
def test_local_walk_equals_place_key_on_load_mode_tree(key):
    manager, router = load_mode_router()
    assert_walk_agrees(manager, router, key)
    assert router.placement_lookups == 1


@functools.lru_cache(maxsize=None)
def offline_router():
    """A router that is handed directory replies and never sends."""
    node = GroupNode(Environment(seed=0), "offline-client")
    return ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=("svc-ldr-0",)
    )


def router_holding(state):
    """The offline router after it took ``state``'s directory reply, as
    the codec delivers it."""
    ensure_registered()
    router = offline_router()
    (frame,), rejects = encode_data_frames([Envelope(
        "svc-ldr-0", "offline-client",
        RpcReply(request_id=1, value=directory_reply(state, 0)),
    )])
    assert not rejects
    (envelope,) = decode_frame(frame)[1]
    router._hold(envelope.payload.value)
    return router


@settings(max_examples=300, deadline=None)
@given(
    leaves=st.dictionaries(
        st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12),
        st.lists(st.sampled_from(["w-1", "w-2", "w-3", "w-4"]), max_size=3),
        max_size=200,
    ),
    fanout=st.integers(min_value=2, max_value=8),
)
def test_router_packs_the_leaders_tree_from_the_reply(leaves, fanout):
    """Any leaf-id set, with some leaves not yet reporting contacts: the
    tree the router packs from the directory reply is the leader's tree,
    child order included, and every key lands on ``place_key``'s leaf."""
    state = HierarchyState("svc", LargeGroupParams(resiliency=3, fanout=fanout))
    for leaf_id, contacts in leaves.items():
        state.apply(AddLeaf(leaf_id, len(contacts), tuple(contacts)))
    router = router_holding(state)
    assert router._tree == {b: n.children for b, n in state.branches.items()}
    for i in range(50):
        assert router.place(f"key/{i}") == state.place_key(f"key/{i}")
    assert set(router._placements) == {l for l, c in leaves.items() if c}


@settings(max_examples=100, deadline=None)
@given(
    prefix=st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True),
    leaves=st.sets(
        st.tuples(st.integers(0, 11), st.integers(1, 300)),
        min_size=1, max_size=120,
    ),
    fanout=st.integers(min_value=2, max_value=8),
)
def test_leaf_ids_named_by_manager_and_number_sort_pack_and_place_as_before(
    prefix, leaves, fanout
):
    """A leaf id ``<manager address>/<n>`` for what was
    ``leaf-<manager address>-<n>``, over any set of (replica, counter)
    pairs a leader group of ``<prefix>-<i>`` replicas can hand out: the
    two id sets sort alike, pack into the same tree with each leaf in
    its old place, and place every key on the corresponding leaf."""
    renamed = {
        f"leaf-{prefix}-{i}-{n}": f"{prefix}-{i}/{n}" for i, n in leaves
    }
    assert [renamed[old] for old in sorted(renamed)] == sorted(renamed.values())
    old_tree, old_depth = pack_tree("svc", renamed, fanout)
    new_tree, new_depth = pack_tree("svc", renamed.values(), fanout)
    assert new_depth == old_depth
    assert new_tree == {
        branch: tuple(renamed.get(child, child) for child in children)
        for branch, children in old_tree.items()
    }
    for k in range(2000):
        key = f"key/{k}"
        old_leaf = walk_key(old_tree.get, key)
        assert walk_key(new_tree.get, key) == renamed[old_leaf]


def test_info_reply_tree_keeps_placement_order_past_b9():
    """A branch lists its children in creation order, which stops being
    sorted order at b10: the tree a router packs from the info reply
    must keep that order, as the leader's does."""
    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=5))
    for i in range(40):
        state.apply(AddLeaf(f"leaf-{i:02d}", 4, (f"w-{i}",)))
    tree = router_holding(state)._tree
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
        manager.state.place_key(f"key-{i}") for i in range(20)
    ]


def test_the_held_tree_and_the_fetch_place_and_count_alike():
    """``placed``, the one call a request placed from the held tree makes,
    and ``resolve_key``, through a fetch or from the held tree, name the
    same leaf for every key, and the counts read what ``resolve_key``
    alone counted: no tree, no count; one lookup and no hit for the
    fetch twenty first resolves share; one hit per key placed from the
    held tree, either way."""
    env, manager, contacts = build_size_mode()
    node = GroupNode(env, "count-client")
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=contacts
    )
    keys = [f"key-{i}" for i in range(20)]
    assert [router.placed(key) for key in keys] == [None] * 20
    assert (router.placement_lookups, router.placement_hits) == (0, 0)
    fetched = []
    for key in keys:
        router.resolve_key(key, fetched.append)
    env.run_for(1.0)
    assert (router.placement_lookups, router.placement_hits) == (1, 0)
    held = [router.placed(key) for key in keys]
    assert (router.placement_lookups, router.placement_hits) == (1, 20)
    resolved = []
    for key in keys:
        router.resolve_key(key, resolved.append)
    assert (router.placement_lookups, router.placement_hits) == (1, 40)
    leaves = manager.state.leaves
    expected = [
        (leaf_id, leaves[leaf_id].contacts)
        for leaf_id in map(manager.state.place_key, keys)
    ]
    assert fetched == held == resolved == expected


def test_a_key_on_a_leaf_with_no_contacts_drops_the_tree_and_counts_no_hit():
    """Held, but the key's leaf has no contacts yet: ``placed`` names
    nothing, counts nothing and drops the tree, so the next
    ``resolve_key`` fetches (one more lookup), as it did by itself."""
    state = HierarchyState("svc", LargeGroupParams(resiliency=3, fanout=4))
    for i in range(8):
        state.apply(AddLeaf(f"leaf-{i}", 1, (f"w-{i}",) if i else ()))
    node = GroupNode(Environment(seed=0), "offline-client")
    router = ServiceRouter(
        node, "svc", rpc=node.runtime.rpc, leader_contacts=("svc-ldr-0",)
    )
    router._hold(directory_reply(state, 0))
    keys = [f"key/{i}" for i in range(200)]
    silent = next(k for k in keys if state.place_key(k) == "leaf-0")
    routable = next(k for k in keys if state.place_key(k) != "leaf-0")
    leaf_id = state.place_key(routable)
    assert router.placed(routable) == (leaf_id, state.leaves[leaf_id].contacts)
    assert router.placed(silent) is None and router._tree is None
    assert router.placed(routable) is None
    assert (router.placement_lookups, router.placement_hits) == (0, 1)
    router.resolve_key(routable, lambda placement: None)
    assert (router.placement_lookups, router.placement_hits) == (1, 1)


def test_split_moves_the_epoch_and_the_router_fetches_again():
    env, manager, contacts = build_size_mode()
    router = warm_router(env, contacts, "split-client")
    keys = [f"order/{i}" for i in range(200)]
    before = {}
    for key in keys:
        router.resolve_key(key, lambda p, key=key: before.__setitem__(key, p[0]))
    epoch = manager.reorg_epoch

    # Grow the group until the leader directs a size split: the first
    # joiner past full leaves opens a leaf that stops growing below
    # leaf_min, which merges into a full leaf, which splits.
    def splits():
        return sum(1 for e in manager.events if e[0] == "split-directed")

    splits_before = splits()
    joiners = 0
    while splits() == splits_before:
        joiners += 1
        assert joiners <= 2 * SIZE_WORKERS, "no split was directed"
        node = GroupNode(env, f"svc-extra-{joiners}")
        LargeGroupMember(node, "svc", contacts, params=SIZE_PARAMS).join()
        env.run_for(2.0)
    env.run_for(5.0)
    assert any(e[0] == "split-directed" for e in manager.events)
    assert manager.reorg_epoch > epoch

    moved = [
        k for k in keys if before[k] != manager.state.place_key(k)
    ]
    assert moved, "a new leaf re-homes some keys"
    # The router still holds the old epoch's tree until a request on one
    # of its placements fails; then it asks the leader once more.
    router.invalidate()
    for key in keys:
        assert_walk_agrees(manager, router, key, env=env)
    assert router.placement_invalidations == 1
    assert router.placement_lookups == 2


def test_router_static_contacts_and_invalidation():
    env = Environment(seed=2, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", 6, params, contacts)
    env.run_for(8.0)
    client = GroupNode(env, "client")
    router = ServiceRouter(
        client, "svc", rpc=client.runtime.rpc, leader_contacts=contacts
    )
    got = []
    router.resolve_key("client", got.append)
    env.run_for(2.0)
    assert got[0] is not None
    router.invalidate()
    assert router.place("client") is None
    router.resolve_key("client", got.append)
    env.run_for(2.0)
    assert got[-1] == got[0]
    assert router.placement_lookups == 2


def test_router_round_robins_across_leaves():
    """Six clients, each placed by its own address, spread over more
    than one leaf."""
    env = Environment(seed=3, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=2)  # small leaves
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", 10, params, contacts)
    env.run_for(20.0)
    seen_leaves = set()
    for i in range(6):
        client = GroupNode(env, f"client-{i}")
        router = ServiceRouter(
            client, "svc", rpc=client.runtime.rpc, leader_contacts=contacts
        )
        got = []
        router.resolve_key(client.address, got.append)
        env.run_for(1.0)
        if got and got[0]:
            seen_leaves.add(got[0][0])
    assert len(seen_leaves) >= 2
