"""Unit + property tests for the hierarchy data model (pure logic)."""

import statistics
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AddLeaf,
    HierarchyError,
    HierarchyState,
    LargeGroupParams,
    Policy,
    ROOT_BRANCH,
    RemoveLeaf,
    UpdateLeaf,
)
from repro.core.leader import directory_reply
from repro.core.views import pack_tree


def make(resiliency=3, fanout=4, **kw):
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout, **kw)
    return HierarchyState("svc", params), params


def add(state, i, size=8):
    contacts = tuple(f"m{i}-{j}" for j in range(size))
    state.apply(AddLeaf(leaf_id=f"leaf-{i:03d}", size=size, contacts=contacts))


# -- params ------------------------------------------------------------------------


def test_params_defaults_follow_paper():
    p = LargeGroupParams(resiliency=3, fanout=8)
    assert p.leaf_min == 8  # max(resiliency, fanout)
    assert p.leaf_split_threshold == 16
    assert p.leader_group_size == 3


def test_params_overrides():
    p = LargeGroupParams(resiliency=5, fanout=2, min_leaf_size=4, leader_size=7)
    assert p.leaf_min == 4
    assert p.leader_group_size == 7


def test_params_validation():
    with pytest.raises(ValueError):
        LargeGroupParams(resiliency=0)
    with pytest.raises(ValueError):
        LargeGroupParams(fanout=0)
    with pytest.raises(ValueError):
        LargeGroupParams(split_factor=1.0)


def test_fanout_below_two_is_rejected():
    """A branch of one child packs no level: at fanout 1 the tree rebuild
    would spin forever at the second leaf, so the params refuse it."""
    with pytest.raises(ValueError, match="fanout"):
        LargeGroupParams(fanout=1)
    state, _ = make(fanout=2)
    for i in range(3):
        add(state, i)
    assert state.depth() == 3


# -- ops ---------------------------------------------------------------------------


def test_add_and_remove_leaf():
    state, _ = make()
    add(state, 0)
    assert state.total_size == 8
    assert state.leaf("leaf-000").size == 8
    state.apply(RemoveLeaf(leaf_id="leaf-000"))
    assert state.total_size == 0
    assert not state.leaves


def test_contacts_truncated_to_resiliency():
    state, params = make(resiliency=2)
    add(state, 0, size=8)
    assert len(state.leaf("leaf-000").contacts) == 2


def test_duplicate_add_rejected():
    state, _ = make()
    add(state, 0)
    with pytest.raises(HierarchyError):
        add(state, 0)


def test_update_unknown_leaf_rejected():
    state, _ = make()
    with pytest.raises(HierarchyError):
        state.apply(UpdateLeaf(leaf_id="nope", size=1, contacts=("a",)))


def test_update_changes_size_and_contacts():
    state, _ = make()
    add(state, 0)
    state.apply(UpdateLeaf(leaf_id="leaf-000", size=3, contacts=("x", "y", "z")))
    leaf = state.leaf("leaf-000")
    assert leaf.size == 3
    assert leaf.contacts == ("x", "y", "z")


# -- tree shape ---------------------------------------------------------------------


def test_small_leaf_count_hangs_off_root():
    state, _ = make(fanout=4)
    for i in range(4):
        add(state, i)
    assert len(state.branches) == 1
    assert state.depth() == 2
    assert set(state.branches[ROOT_BRANCH].children) == set(state.leaves)


def test_fanout_bound_always_respected():
    state, _ = make(fanout=4)
    for i in range(64):
        add(state, i)
    assert state.max_branch_children() <= 4
    assert state.depth() == 4  # 64 leaves = 16 branches = 4 under root


def test_depth_is_logarithmic():
    state, _ = make(fanout=8)
    for i in range(65):  # just past 8^2 -> depth 3 branches + leaf level
        add(state, i)
    assert state.depth() == 4


def leaves_reachable(state):
    """The leaf ids a walk from the root's child lists reaches."""
    found, stack = set(), [ROOT_BRANCH]
    while stack:
        node = stack.pop()
        if node in state.leaves:
            found.add(node)
        else:
            stack.extend(state.branches[node].children)
    return found


def test_parent_pointers_consistent_after_churn():
    state, _ = make(fanout=3)
    for i in range(30):
        add(state, i)
    for i in range(0, 30, 2):
        state.apply(RemoveLeaf(leaf_id=f"leaf-{i:03d}"))
    for leaf_id, leaf in state.leaves.items():
        assert leaf_id in state.branches[leaf.parent].children
    for branch_id, branch in state.branches.items():
        if branch.parent is not None:
            assert branch_id in state.branches[branch.parent].children
    assert leaves_reachable(state) == set(state.leaves)


def test_replicas_agree_applying_same_ops():
    ops = [AddLeaf(f"l{i}", size=i + 1, contacts=(f"c{i}",)) for i in range(12)]
    ops += [RemoveLeaf("l3"), RemoveLeaf("l7")]
    ops += [UpdateLeaf("l5", size=99, contacts=("zz",))]
    a, _ = make(fanout=3)
    b, _ = make(fanout=3)
    for op in ops:
        a.apply(op)
        b.apply(op)
    assert a.branches == b.branches
    assert a.leaves == b.leaves


# -- policy queries (the manager's rails, on a Policy with no port) ------------------


def policy_of(state):
    return Policy("svc-ldr-0", state, port=None)


def test_split_and_merge_detection():
    state, params = make(resiliency=2, fanout=4)  # leaf_min=4, split at >8
    add(state, 0, size=9)
    add(state, 1, size=3)
    add(state, 2, size=5)
    policy = policy_of(state)
    assert [l.leaf_id for l in policy.oversized()] == ["leaf-000"]
    assert [l.leaf_id for l in policy.undersized()] == ["leaf-001"]


def test_single_leaf_never_merges():
    state, _ = make(resiliency=2, fanout=4)
    add(state, 0, size=1)
    assert policy_of(state).undersized() == []


def test_merge_target_is_smallest_other():
    state, _ = make()
    add(state, 0, size=2)
    add(state, 1, size=9)
    add(state, 2, size=5)
    policy = policy_of(state)
    assert policy.merge_target("leaf-000").leaf_id == "leaf-002"
    assert policy.merge_target("leaf-000").leaf_id != "leaf-000"


def test_each_entry_is_bounded_by_resiliency_and_fanout():
    """What a leader replica stores is O(1) per entry: a leaf lists at
    most ``resiliency`` contacts, whatever its size, and a branch at
    most ``fanout`` children."""
    state, _ = make(resiliency=3, fanout=8)
    for i in range(40):
        add(state, i, size=12)
    assert all(len(leaf.contacts) == 3 for leaf in state.leaves.values())
    assert all(
        1 <= len(branch.children) <= 8 for branch in state.branches.values()
    )
    assert len(state.branches) == 1 + 5  # the root over 5 branches of 8 leaves


# -- properties --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "remove", "update"]), st.integers(0, 19)),
        max_size=60,
    ),
    st.integers(2, 6),
)
def test_property_tree_invariants_under_random_ops(ops, fanout):
    params = LargeGroupParams(resiliency=2, fanout=fanout)
    state = HierarchyState("svc", params)
    for kind, i in ops:
        leaf_id = f"leaf-{i:03d}"
        try:
            if kind == "add":
                state.apply(AddLeaf(leaf_id, size=i + 1, contacts=(f"c{i}",)))
            elif kind == "remove":
                state.apply(RemoveLeaf(leaf_id))
            else:
                state.apply(UpdateLeaf(leaf_id, size=i + 2, contacts=(f"d{i}",)))
        except HierarchyError:
            continue
        # invariants hold after every applied op
        assert state.max_branch_children() <= fanout
        assert leaves_reachable(state) == set(state.leaves)
        for leaf_id2, leaf in state.leaves.items():
            assert leaf_id2 in state.branches[leaf.parent].children
        for branch_id, branch in state.branches.items():
            if branch.parent is not None:
                assert branch_id in state.branches[branch.parent].children


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "update", "report"]),
            st.integers(0, 19),
        ),
        max_size=80,
    ),
    st.integers(2, 6),
)
def test_property_size_mode_tree_equals_a_fresh_rebuild(ops, fanout):
    """Size mode re-derives the tree only when the leaf-id set changes;
    after any op sequence the tree is what a rebuild from scratch gives."""
    import copy

    state = HierarchyState("svc", LargeGroupParams(resiliency=2, fanout=fanout))
    for kind, i in ops:
        leaf_id = f"leaf-{i:03d}"
        try:
            if kind == "add":
                state.apply(AddLeaf(leaf_id, size=i + 1, contacts=(f"c{i}",)))
            elif kind == "remove":
                state.apply(RemoveLeaf(leaf_id))
            else:
                state.apply(UpdateLeaf(
                    leaf_id, size=i + 2, contacts=(f"d{i}", f"e{i}"),
                    delivery_rate=float(i) if kind == "report" else -1.0,
                ))
        except HierarchyError:
            continue
        fresh = copy.deepcopy(state)
        fresh._rebuild_tree()
        assert fresh.branches == state.branches
        assert fresh.leaves == state.leaves


# -- reorg policy (load-adaptive trees) --------------------------------------------


from repro.core import ReorgPolicy  # noqa: E402


def make_load(fanout=3, resiliency=2, **kw):
    policy = ReorgPolicy(mode="load", **kw)
    params = LargeGroupParams(
        resiliency=resiliency, fanout=fanout, reorg=policy
    )
    return HierarchyState("svc", params), params


def test_reorg_policy_validation():
    with pytest.raises(ValueError):
        ReorgPolicy(mode="vibes")
    with pytest.raises(ValueError):
        ReorgPolicy(ewma_alpha=0.0)
    with pytest.raises(ValueError):
        ReorgPolicy(hot_delivery_rate=1.0, cold_delivery_rate=2.0)
    with pytest.raises(ValueError):
        ReorgPolicy(report_interval=0.0)
    assert not ReorgPolicy().load_driven
    assert ReorgPolicy(mode="load").load_driven
    assert "reorg=load" in ReorgPolicy(mode="load").describe()


def test_default_policy_keeps_canonical_tree():
    """Size mode (the default) must keep deriving the canonical packed
    tree — byte-identical frozen behaviour."""
    canonical, _ = make(fanout=3)
    reference, _ = make(fanout=3)
    for i in range(10):
        add(canonical, i)
        add(reference, i)
    assert canonical.branches == reference.branches
    assert all(
        b.children == tuple(sorted(b.children))
        for b in canonical.branches.values()
    )


def test_update_leaf_folds_load_ewma():
    state, _ = make_load(ewma_alpha=0.5)
    add(state, 0)
    state.apply(
        UpdateLeaf("leaf-000", size=8, contacts=("c",), delivery_rate=40.0)
    )
    leaf = state.leaf("leaf-000")
    assert leaf.delivery_rate == pytest.approx(20.0)  # 0.5*40 + 0.5*0
    state.apply(
        UpdateLeaf("leaf-000", size=8, contacts=("c",), delivery_rate=40.0)
    )
    assert state.leaf("leaf-000").delivery_rate == pytest.approx(30.0)
    # A negative rate means "no sample": the EWMA is left untouched.
    state.apply(UpdateLeaf("leaf-000", size=7, contacts=("c",)))
    assert state.leaf("leaf-000").delivery_rate == pytest.approx(30.0)


def test_hot_and_cold_queries():
    state, params = make_load(
        hot_delivery_rate=10.0, cold_delivery_rate=1.0, ewma_alpha=1.0,
    )
    for i in range(3):
        add(state, i, size=4)
    state.apply(
        UpdateLeaf("leaf-000", size=4, contacts=("c",), delivery_rate=50.0)
    )
    policy = policy_of(state)
    assert [l.leaf_id for l in policy.hot()] == ["leaf-000"]
    cold = policy.cold_pairs()
    # leaf-001/leaf-002 both have zero rates -> cold pair (if siblings).
    assert all(
        a.leaf_id != "leaf-000" and b.leaf_id != "leaf-000" for a, b in cold
    )
    for a, b in cold:
        assert state.leaf(a.leaf_id).parent == state.leaf(b.leaf_id).parent


def test_replicas_agree_in_load_mode():
    ops = [AddLeaf(f"l{i}", size=i + 1, contacts=(f"c{i}",)) for i in range(9)]
    ops += [
        UpdateLeaf("l2", size=5, contacts=("x",), delivery_rate=33.0),
        RemoveLeaf("l4"),
        AddLeaf("l9", size=2, contacts=("c9",)),
        RemoveLeaf("l1"),
    ]
    a, _ = make_load(fanout=3)
    b, _ = make_load(fanout=3)
    for op in ops:
        a.apply(op)
        b.apply(op)
    assert a.branches == b.branches
    assert a.leaves == b.leaves
    assert a.depth() == b.depth()


def test_directory_reply_lists_every_leaf_and_nothing_else():
    """The GetHierarchyInfo reply is what its readers use: every leaf's
    contacts by sorted id (a leaf that has not reported contacts too, as
    the packing counts it), the fanout, the true depth and the epoch —
    no sizes, loads, totals or branch lists."""
    state, params = make_load(fanout=3)
    for i in range(7):
        add(state, i)
    state.apply(AddLeaf(leaf_id="leaf-new", size=0, contacts=()))
    info = directory_reply(state, 9)
    assert set(info) == {"leaves", "fanout", "depth", "reorg_epoch"}
    assert list(info["leaves"]) == sorted(state.leaves)
    assert info["leaves"] == {l: s.contacts for l, s in state.leaves.items()}
    assert info["leaves"]["leaf-new"] == ()
    assert (info["fanout"], info["reorg_epoch"]) == (params.fanout, 9)
    assert info["depth"] == state.depth() == 3
    assert pack_tree(state.name, info["leaves"], info["fanout"]) == (
        {b: n.children for b, n in state.branches.items()},
        state.depth(),
    )


def test_place_key_deterministic_and_total():
    state, _ = make_load(fanout=3)
    for i in range(9):
        add(state, i)
    other, _ = make_load(fanout=3)
    for i in range(9):
        add(other, i)
    for key in ("alpha", "beta", "orders/EU/17", "Ω"):
        leaf = state.place_key(key)
        assert leaf in state.leaves
        assert other.place_key(key) == leaf  # replica-agreement
        assert state.place_key(key) == leaf  # stable across calls
    assert make_load(fanout=3)[0].place_key("anything") is None


def test_place_key_spreads_keys_over_every_leaf_of_a_full_tree():
    """4,096 keys on a size-grown fanout-8 tree of 64 leaves (eight
    branches of eight) reach at least 56 leaves, and every leaf holds
    between half and twice the median share.  A walk that re-hashes the
    key at each level with an affine hash (crc32 of ``key#level``) picks
    correlated children at both levels and reaches 8 of the 64."""
    state, _ = make(fanout=8)
    for i in range(64):
        add(state, i)
    assert len(state.branches) == 9 and len(state.branches[ROOT_BRANCH].children) == 8
    shares = Counter(state.place_key(f"k{i}") for i in range(4096))
    assert len(shares) >= 56
    median = statistics.median(shares[leaf_id] for leaf_id in state.leaves)
    assert all(median / 2 <= shares[leaf_id] <= 2 * median for leaf_id in state.leaves)


def _canonical_depth(leaves, fanout):
    """1 + max(1, ceil(log_fanout(leaves))), by integer arithmetic."""
    levels, reach = 1, fanout
    while reach < leaves:
        levels += 1
        reach *= fanout
    return 1 + levels


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            # Adds outnumber removes, so a run reaches past fanout**2 leaves.
            st.sampled_from(["add", "add", "add", "remove", "update"]),
            st.integers(0, 79),
        ),
        max_size=120,
    ),
    st.integers(2, 8),
    st.sampled_from(["size", "load"]),
)
def test_property_tree_shape_in_both_modes(ops, fanout, mode):
    """Whatever the op sequence, in either mode: no branch holds more than
    ``fanout`` children, every leaf is reachable from the root, two
    replicas agree, and every leaf sits at the canonical depth
    1 + max(1, ceil(log_fanout L)) — the tree never grows a spine."""
    params = LargeGroupParams(
        resiliency=2, fanout=fanout, reorg=ReorgPolicy(mode=mode)
    )
    state = HierarchyState("svc", params)
    replica = HierarchyState("svc", params)
    for kind, i in ops:
        leaf_id = f"leaf-{i}"
        if kind == "add":
            op = AddLeaf(leaf_id, size=i + 1, contacts=(f"c{i}",))
        elif kind == "remove":
            op = RemoveLeaf(leaf_id)
        else:
            op = UpdateLeaf(leaf_id, size=i + 2, contacts=(f"d{i}",),
                            delivery_rate=float(i))
        try:
            state.apply(op)
        except HierarchyError:
            continue
        replica.apply(op)
        assert state.max_branch_children() <= fanout
        assert leaves_reachable(state) == set(state.leaves)
        assert (state.branches, state.leaves) == (replica.branches, replica.leaves)
        if not state.leaves:
            assert state.depth() == 0
            continue
        depth = _canonical_depth(len(state.leaves), fanout)
        assert state.depth() == depth
        for leaf in state.leaves.values():
            level, node = 2, state.branches[leaf.parent]
            while node.parent is not None:
                level, node = level + 1, state.branches[node.parent]
            assert level == depth
            # A leaf's parent holds a contiguous sorted run of leaf ids and
            # nothing else (what ``siblings_of`` relies on).
            children = list(state.branches[leaf.parent].children)
            ordered = sorted(state.leaves)
            start = ordered.index(children[0])
            assert children == ordered[start : start + len(children)]
