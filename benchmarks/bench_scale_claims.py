"""E2/E3/E7 re-recorded at n=1024 — the thousand-node claim tables.

The per-claim benchmarks (bench_e2/e3/e7) establish the paper's *shapes*
at small n; this module pins the same claims at the scale the ROADMAP's
thousand-node item targets, using the scale suite's builders (static
flat bootstrap, staggered hierarchical joins at fanout 8).  Each
experiment prints one table recorded in EXPERIMENTS.md.

These runs simulate 1024-node populations and take minutes, not
seconds — they are sized for the recorded tables, not for quick
iteration (run just this file:
``pytest benchmarks/bench_scale_claims.py --benchmark-only -s``).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _common import (
    CC_CATEGORIES,
    ECHO,
    MEMBERSHIP_CATEGORIES,
    flat_service,
    hierarchical_client,
)

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.membership import GroupNode
from repro.metrics import data_messages, print_table
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import CoordinatorCohortClient, attach_hierarchical_service

N = 1024
JOIN_STAGGER = 0.01  # the scale suite's build cadence


def _hier_service(seed: int):
    """The scale harness build: staggered joins into a fanout-8 tree."""
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=3, fanout=8)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", N, params, contacts, join_stagger=JOIN_STAGGER
    )
    attach_hierarchical_service(members, ECHO)
    env.run_for(6.0 + JOIN_STAGGER * N)
    placed = [m for m in members if m.is_member]
    return env, contacts, placed


# -- E2 @ n=1024: request traffic ---------------------------------------------


def run_e2():
    """1024 clients, one request each.  Flat would need a 1024-member
    serving group processing every request — 2n per request, ~2.1M
    messages — so the flat point is the fitted quadratic from
    bench_e2 (exponent 2.00), reported as predicted; the hierarchical
    and central designs are measured directly."""
    # central: one server, 1024 RPC clients
    env = Environment(seed=N, latency=FixedLatency(0.002))
    server = GroupNode(env, "central")
    server.runtime.rpc.serve(dict, lambda body, sender: ("ok",))
    stubs = [GroupNode(env, f"c{i}") for i in range(N)]
    env.run_for(0.5)
    before = env.stats_snapshot()
    answered = []
    for i, stub in enumerate(stubs):
        env.scheduler.at(
            env.now + 0.001 * i,
            lambda s=stub: s.runtime.rpc.call(
                "central",
                {"r": 0},
                on_reply=lambda v, sender: answered.append(v),
                timeout=10.0,
            ),
        )
    env.run_for(15.0)
    central = env.stats_since(before).messages
    assert len(answered) == N
    central_hot = central  # every message funnels through one machine

    # hierarchical: measured at full scale
    env, contacts, placed = _hier_service(seed=N)
    stubs = [
        hierarchical_client(env, contacts, name=f"c{i}") for i in range(N)
    ]
    env.run_for(1.0)
    answered = []
    before = env.stats_snapshot()
    for i, stub in enumerate(stubs):
        env.scheduler.at(
            env.now + 0.001 * i,
            lambda s=stub: s.request(0, answered.append),
        )
    env.run_for(20.0)
    hier = data_messages(env.stats_since(before), CC_CATEGORIES)
    assert len(answered) == N

    flat_predicted = 2 * N * N  # 2n per request x n requests (exact at small n)
    assert hier < flat_predicted / 20  # the hierarchy's whole point
    return central, central_hot, flat_predicted, hier


@pytest.mark.scale_claims
def test_e2_traffic_at_1024(benchmark):
    central, hot, flat_predicted, hier = benchmark.pedantic(
        run_e2, rounds=1, iterations=1
    )
    print_table(
        f"E2 @ n={N}: request traffic, one request per client",
        [
            "clients",
            "central msgs",
            "central hot-spot",
            "flat msgs (2n^2, predicted)",
            "hier msgs (measured)",
            "flat/hier",
        ],
        [(N, central, hot, flat_predicted, hier, round(flat_predicted / hier, 1))],
        note="flat is the bench_e2 quadratic evaluated at n=1024 (measuring "
        "it outright is ~2.1M messages); central and hierarchical measured",
    )


# -- E3 @ n=1024: membership-change cost --------------------------------------


def run_e3():
    # flat: static 1024-member group, one crash
    env, nodes, members, servers, _ = flat_service(N, seed=N)
    env.run_for(1.0)
    before = env.stats_snapshot()
    nodes[N // 2].crash()
    env.run_for(5.0)
    flat = data_messages(env.stats_since(before), MEMBERSHIP_CATEGORIES)
    assert members[0].view.size == N - 1

    # hierarchical: crash one placed worker in the 1024-node tree
    env, contacts, placed = _hier_service(seed=N + 1)
    victim = placed[len(placed) // 2]
    before = env.stats_snapshot()
    victim.node.crash()
    env.run_for(5.0)
    delta = env.stats_since(before)
    hier = data_messages(delta, MEMBERSHIP_CATEGORIES) + delta.by_category.get(
        "group-data", 0
    )
    assert flat > N  # the whole group flushes
    assert hier < flat / 10  # one leaf + the leader subgroup
    return flat, hier


@pytest.mark.scale_claims
def test_e3_membership_cost_at_1024(benchmark):
    flat, hier = benchmark.pedantic(run_e3, rounds=1, iterations=1)
    print_table(
        f"E3 @ n={N}: messages triggered by one member failure",
        ["total members n", "flat group msgs", "hierarchical msgs"],
        [(N, flat, hier)],
        note="flat flush touches all n; hierarchical touches one leaf + "
        "leader (compare the constant-in-n column of bench_e3)",
    )


# -- E7 @ n=1024: the resiliency knee -----------------------------------------

RESILIENCIES = (1, 2, 3, 5, 8)
REQUESTS = 40


def run_e7_one(resiliency: int, seed: int):
    """bench_e7's adversary aimed at one leaf of the 1024-node tree: a
    4-crash burst on the request's contact list, no client retries.  The
    serving population is 1024 but every request touches one bounded
    leaf, so the knee's location is set by resiliency vs the burst — not
    by group size."""
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    # Only the cohort set varies with r: the leader group and the leaf
    # bounds are pinned to what resiliency=3, fanout=8 derives.
    params = LargeGroupParams(
        resiliency=resiliency, fanout=8, leader_size=3, min_leaf_size=8
    )
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", N, params, contacts, join_stagger=JOIN_STAGGER
    )
    attach_hierarchical_service(members, ECHO)
    env.run_for(6.0 + JOIN_STAGGER * N)
    placed = [m for m in members if m.is_member]
    target = placed[len(placed) // 2]
    leaf_group = target.leaf_member.group
    leaf_addrs = tuple(target.leaf_member.view.members)
    node = GroupNode(env, "rclient")
    client = CoordinatorCohortClient(
        node,
        leaf_group,
        contacts=leaf_addrs,
        rpc=node.runtime.rpc,
        timeout=1.0,
        max_retries=0,
    )
    env.run_for(1.0)
    base = env.now
    for index, victim in enumerate(leaf_addrs[:4]):
        env.scheduler.at(base + 0.15 + 0.15 * index, lambda v=victim: env.crash(v))
    before = env.stats_snapshot()
    outcomes = []
    for i in range(REQUESTS):
        env.scheduler.at(
            base + 0.05 + i * 0.1,
            lambda i=i: client.request(
                i,
                on_reply=lambda v: outcomes.append(True),
                on_failure=lambda: outcomes.append(False),
            ),
        )
    env.run_for(20.0)
    delta = env.stats_since(before)
    assert len(outcomes) == REQUESTS
    success = sum(outcomes) / REQUESTS
    msgs_per_request = data_messages(delta, CC_CATEGORIES) / REQUESTS
    return success, msgs_per_request, len(leaf_addrs)


def run_e7():
    rows = []
    successes, costs = [], []
    for r in RESILIENCIES:
        success, cost, leaf_size = run_e7_one(r, seed=2000 + r)
        successes.append(success)
        costs.append(cost)
        rows.append((r, leaf_size, round(success, 3), round(cost, 1)))
    assert costs[-1] > costs[0] * 2
    assert successes[RESILIENCIES.index(5)] >= 0.9
    assert successes[-1] - successes[RESILIENCIES.index(5)] < 0.05
    assert successes[0] < 0.5
    return rows


@pytest.mark.scale_claims
def test_e7_resiliency_knee_at_1024(benchmark):
    rows = benchmark.pedantic(run_e7, rounds=1, iterations=1)
    print_table(
        f"E7 @ n={N}: request success and cost vs cohorts per request "
        "(4-failure burst on the target leaf's contacts, no client retries)",
        ["resiliency r", "target leaf size", "success ratio", "data msgs / request"],
        rows,
        note="same knee as the group-of-10 table: availability saturates "
        "at r=3 (a set member outlives each crash long enough for the view "
        "to change) while per-request cost rises as 2r whatever the leaf "
        "size — a 1024-strong service does not move the knee or the cost",
    )
