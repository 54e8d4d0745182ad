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
    ROOT_BRANCH,
    RemoveLeaf,
    UpdateLeaf,
)


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
    assert set(state.leaf_ids_under(ROOT_BRANCH)) == set(state.leaves)


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


# -- policy queries ---------------------------------------------------------------


def test_smallest_leaf_deterministic_tiebreak():
    state, _ = make()
    add(state, 1, size=5)
    add(state, 0, size=5)
    assert state.smallest_leaf().leaf_id == "leaf-000"


def test_split_and_merge_detection():
    state, params = make(resiliency=2, fanout=4)  # leaf_min=4, split at >8
    add(state, 0, size=9)
    add(state, 1, size=3)
    add(state, 2, size=5)
    assert [l.leaf_id for l in state.leaves_needing_split()] == ["leaf-000"]
    assert [l.leaf_id for l in state.leaves_needing_merge()] == ["leaf-001"]


def test_single_leaf_never_merges():
    state, _ = make(resiliency=2, fanout=4)
    add(state, 0, size=1)
    assert state.leaves_needing_merge() == []


def test_merge_target_is_smallest_other():
    state, _ = make()
    add(state, 0, size=2)
    add(state, 1, size=9)
    add(state, 2, size=5)
    assert state.merge_target_for("leaf-000").leaf_id == "leaf-002"
    assert state.merge_target_for("leaf-000").leaf_id != "leaf-000"


def test_storage_entries_bounded_per_leaf():
    state, params = make(resiliency=3, fanout=8)
    for i in range(40):
        add(state, i, size=12)
    # each leaf contributes at most 2 + resiliency entries
    assert state.storage_entries() <= 40 * (2 + 3) + sum(
        1 + len(b.children) for b in state.branches.values()
    )


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
        assert set(state.leaf_ids_under(ROOT_BRANCH)) == set(state.leaves)
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
    with pytest.raises(ValueError):
        ReorgPolicy(max_depth=1)
    assert not ReorgPolicy().load_driven
    assert ReorgPolicy(mode="load").load_driven
    assert "reorg=load" in ReorgPolicy(mode="load").describe()


def test_default_policy_keeps_canonical_tree():
    """Size mode (the default) must keep deriving the canonical packed
    tree — byte-identical frozen behaviour — while load mode is free to
    diverge into an explicit shape."""
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


def test_explicit_tree_grows_depth_on_overflow():
    state, _ = make_load(fanout=3)
    for i in range(4):  # 4th attach overflows the fanout-3 root
        add(state, i)
    assert state.depth() == 3  # root -> two branches -> leaves
    assert state.max_branch_children() <= 3
    for i in range(4, 10):
        add(state, i)
    assert state.depth() >= 3
    assert state.max_branch_children() <= 3
    assert set(state.leaf_ids_under(ROOT_BRANCH)) == set(state.leaves)


def test_explicit_attach_under_named_branch():
    state, _ = make_load(fanout=3)
    for i in range(4):
        add(state, i)
    # Pick an interior branch and attach a new leaf directly under it.
    branch = state.leaf("leaf-000").parent
    assert branch != ROOT_BRANCH
    state.apply(
        AddLeaf(leaf_id="leaf-xxx", size=4, contacts=("cx",), under=branch)
    )
    assert state.leaf("leaf-xxx").parent == branch
    # Unknown attach points fall back to the root rather than failing.
    state.apply(
        AddLeaf(leaf_id="leaf-yyy", size=4, contacts=("cy",), under="gone")
    )
    assert "leaf-yyy" in state.leaves


def test_explicit_tree_collapses_on_removal():
    state, _ = make_load(fanout=3)
    for i in range(4):
        add(state, i)
    assert state.depth() == 3
    for i in range(1, 4):
        state.apply(RemoveLeaf(leaf_id=f"leaf-{i:03d}"))
    # One leaf left: every interior level collapsed back into the root.
    assert state.depth() == 2
    assert state.leaf("leaf-000").parent == ROOT_BRANCH
    assert len(state.branches) == 1


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
    assert [l.leaf_id for l in state.hot_leaves(params.reorg)] == ["leaf-000"]
    cold = state.cold_sibling_pairs(params.reorg)
    # leaf-001/leaf-002 both have zero rates -> cold pair (if siblings).
    assert all(
        a.leaf_id != "leaf-000" and b.leaf_id != "leaf-000" for a, b in cold
    )
    for a, b in cold:
        assert state.leaf(a.leaf_id).parent == state.leaf(b.leaf_id).parent


def test_replicas_agree_in_load_mode():
    ops = [
        AddLeaf(f"l{i}", size=i + 1, contacts=(f"c{i}",), under="")
        for i in range(9)
    ]
    ops += [
        UpdateLeaf("l2", size=5, contacts=("x",), delivery_rate=33.0),
        RemoveLeaf("l4"),
        AddLeaf("l9", size=2, contacts=("c9",), under="svc/b1"),
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


def test_summary_reports_recursive_shape():
    """Regression for the old flat two-level _serve_info summary: the
    reply must carry true depth, per-level leaf counts, and per-leaf
    level/path."""
    state, _ = make_load(fanout=3)
    for i in range(7):
        add(state, i)
    info = state.summary()
    assert info["depth"] == state.depth() >= 3
    assert sum(info["levels"].values()) == len(state.leaves)
    for leaf_id, entry in info["leaves"].items():
        assert entry["level"] == state.level_of(leaf_id)
        assert entry["level"] == len(entry["path"]) + 1
        assert entry["path"][0] == ROOT_BRANCH
        assert entry["contacts"]
    # Subtree summaries restrict to one branch.
    branch = state.leaf("leaf-000").parent
    sub = state.summary(branch)
    assert set(sub["leaves"]) == set(state.leaf_ids_under(branch))
    assert sub["total_size"] <= info["total_size"]


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "remove", "update"]), st.integers(0, 19)),
        max_size=60,
    ),
    st.integers(2, 6),
)
def test_property_explicit_tree_invariants(ops, fanout):
    """Load mode keeps the same structural invariants as the canonical
    packing: fanout bound, consistent parent pointers, full coverage."""
    params = LargeGroupParams(
        resiliency=2, fanout=fanout, reorg=ReorgPolicy(mode="load")
    )
    state = HierarchyState("svc", params)
    for kind, i in ops:
        leaf_id = f"leaf-{i:03d}"
        try:
            if kind == "add":
                state.apply(AddLeaf(leaf_id, size=i + 1, contacts=(f"c{i}",)))
            elif kind == "remove":
                state.apply(RemoveLeaf(leaf_id))
            else:
                state.apply(
                    UpdateLeaf(leaf_id, size=i + 2, contacts=(f"d{i}",),
                               delivery_rate=float(i))
                )
        except HierarchyError:
            continue
        assert state.max_branch_children() <= fanout
        assert set(state.leaf_ids_under(ROOT_BRANCH)) == set(state.leaves)
        for leaf_id2, leaf in state.leaves.items():
            assert leaf_id2 in state.branches[leaf.parent].children
        seen = set()
        for branch_id, branch in state.branches.items():
            if branch.parent is not None:
                assert branch_id in state.branches[branch.parent].children
            for child in branch.children:
                assert child not in seen  # each node has one parent
                seen.add(child)
