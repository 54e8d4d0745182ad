"""E7 — "Broadcasting a request to the n-1 cohorts is not completely
wasted work since the cohorts provide resiliency to failure of the
coordinator.  However there is no practical advantage to having more than
perhaps five cohorts for a request." (paper §2)

We sweep the group's ``resiliency`` — the size of the cohort set each
request reaches (coordinator + r-1 cohorts, the first r members of the
view) — while a burst of up to four crashes, 0.15 s apart, hits the
lowest-ranked members: exactly the set.  Clients do NOT retry, so a
request survives only if at least one member that received it stays alive
long enough to take over (the paper's sense of per-request resiliency),
and a client whose whole set died is never told the new one.  The set
follows the view, so what counts is how many of its members die before
the view can change and the next reply can tell the client (the detector
here reports a crash after 0.05 s): availability saturates at r=3 and
stays there, while the per-request message cost keeps climbing as 2r —
the knee behind "no practical advantage to having more than perhaps five
cohorts".
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import CC_CATEGORIES, ECHO, flat_service

from repro.membership import GroupNode
from repro.metrics import data_messages, print_table
from repro.toolkit import CoordinatorCohortClient

GROUP_SIZE = 10
RESILIENCIES = (1, 2, 3, 5, 8)
REQUESTS = 40


def run_one(resiliency: int, seed: int):
    env, nodes, members, servers, _ = flat_service(
        GROUP_SIZE, seed=seed, resiliency=resiliency
    )
    for server in servers:
        server.handler = ECHO
    node = GroupNode(env, "rclient")
    client = CoordinatorCohortClient(
        node,
        "svc",
        contacts=tuple(f"svc-{i}" for i in range(GROUP_SIZE)),
        rpc=node.runtime.rpc,
        timeout=1.0,
        max_retries=0,  # per-request resiliency only: no client retries
    )
    env.run_for(1.0)

    # Adversary: a burst of up to four near-simultaneous crashes hits the
    # lowest-ranked members — the ones every request is addressed to.
    victims = [f"svc-{i}" for i in range(min(resiliency, 4))]
    for index, victim in enumerate(victims):
        env.scheduler.at(1.2 + 0.15 * index, lambda v=victim: env.crash(v))
        env.scheduler.at(6.0 + 0.15 * index, lambda v=victim: _recover(env, v))

    before = env.stats_snapshot()
    outcomes = []
    for i in range(REQUESTS):
        env.scheduler.at(
            1.05 + i * 0.1,
            lambda i=i: client.request(
                i,
                on_reply=lambda v: outcomes.append(True),
                on_failure=lambda: outcomes.append(False),
            ),
        )
    env.run_for(20.0)
    delta = env.stats_since(before)
    success = sum(outcomes) / REQUESTS
    msgs_per_request = data_messages(delta, CC_CATEGORIES) / REQUESTS
    return success, msgs_per_request


def _recover(env, address):
    if env.has_process(address) and not env.process(address).alive:
        env.process(address).recover()


def run_experiment():
    rows = []
    successes, costs = [], []
    for r in RESILIENCIES:
        success, cost = run_one(r, seed=100 + r)
        successes.append(success)
        costs.append(cost)
        rows.append((r, round(success, 3), round(cost, 1)))
    # cost keeps growing with r...
    assert costs[-1] > costs[0] * 2
    # ...but availability saturates at modest resiliency (the knee):
    assert successes[RESILIENCIES.index(5)] >= 0.9
    assert successes[-1] - successes[RESILIENCIES.index(5)] < 0.05
    assert successes[0] < 0.5  # one copy does not survive the burst
    return rows


def test_e7_resiliency_knee(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "E7: request success and cost vs cohorts per request "
        f"(group of {GROUP_SIZE}, coordinator crashes injected)",
        ["resiliency r", "success ratio", "data msgs / request"],
        rows,
        note="clients do not retry; a burst of min(r, 4) crashes 0.15 s apart "
        "hits the cohort set. availability saturates once a set member "
        "outlives each crash long enough for the view to change, while "
        "cost rises as 2r: 'no practical advantage to having more than "
        "perhaps five cohorts'",
    )
