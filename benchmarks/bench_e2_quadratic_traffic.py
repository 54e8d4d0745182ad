"""E2 — "message traffic will grow as the square of the number of clients"
(paper §2).

In the flat design the serving group must grow with its client population
(each request occupies every member), so with group size proportional to
clients and each client issuing R requests, total traffic is
clients * R * 2n = Θ(clients²).  The hierarchical design routes each
request to the cohort set of one leaf (2r messages whatever the leaf or
the service has grown to), so traffic is Θ(clients), exactly.

A centralized server (the §1 strawman the workstation movement replaced)
is also measured: its total traffic is linear but every message funnels
through one machine — the hot-spot column — which is why "fully
decentralized software" was attractive in the first place.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import (
    CC_CATEGORIES,
    flat_service,
    hierarchical_client,
    hierarchical_service,
)

from repro.membership import GroupNode
from repro.metrics import data_messages, fit_power_law, print_table
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import CoordinatorCohortClient

CLIENTS = (4, 8, 16, 32)
REQUESTS_PER_CLIENT = 5


def run_central(clients: int):
    """One unreplicated server; every client RPCs it directly."""
    env = Environment(seed=clients, latency=FixedLatency(0.002))
    server = GroupNode(env, "central")
    server.runtime.rpc.serve(dict, lambda body, sender: ("ok",))
    stubs = [GroupNode(env, f"c{i}") for i in range(clients)]
    env.run_for(0.5)
    before = env.stats_snapshot()
    answered = []
    for stub in stubs:
        for r in range(REQUESTS_PER_CLIENT):
            stub.runtime.rpc.call(
                "central",
                {"r": r},
                on_reply=lambda v, s: answered.append(v),
                timeout=5.0,
            )
    env.run_for(10.0)
    delta = env.stats_since(before)
    assert len(answered) == clients * REQUESTS_PER_CLIENT
    hot_spot = max(delta.received_by.values())
    return delta.messages, hot_spot


def run_flat(clients: int) -> int:
    # flat: serving-group size scales with the client population
    env, nodes, members, servers, _ = flat_service(clients, seed=clients)
    stubs = []
    for i in range(clients):
        node = GroupNode(env, f"c{i}")
        stubs.append(
            CoordinatorCohortClient(
                node,
                "svc",
                contacts=tuple(f"svc-{j}" for j in range(clients)),
                rpc=node.runtime.rpc,
            )
        )
    env.run_for(1.0)
    before = env.stats_snapshot()
    answered = []
    for stub in stubs:
        for r in range(REQUESTS_PER_CLIENT):
            stub.request(r, answered.append)
    env.run_for(10.0)
    delta = env.stats_since(before)
    assert len(answered) == clients * REQUESTS_PER_CLIENT
    return data_messages(delta, CC_CATEGORIES)


def run_hierarchical(clients: int) -> int:
    # hierarchical: same total service size, but requests hit one leaf
    env, params, leaders, members, servers, _p, _r = hierarchical_service(
        clients, resiliency=2, fanout=4, seed=clients
    )
    contacts = tuple(r.node.address for r in leaders)
    stubs = [
        hierarchical_client(env, contacts, name=f"c{i}") for i in range(clients)
    ]
    env.run_for(1.0)
    before = env.stats_snapshot()
    answered = []
    for stub in stubs:
        for r in range(REQUESTS_PER_CLIENT):
            stub.request(stub.process.address, r, answered.append)
    env.run_for(10.0)
    delta = env.stats_since(before)
    assert len(answered) == clients * REQUESTS_PER_CLIENT
    return data_messages(delta, CC_CATEGORIES)


def run_experiment():
    rows = []
    flat_series, hier_series, central_hot = [], [], []
    for clients in CLIENTS:
        central_msgs, hot_spot = run_central(clients)
        flat = run_flat(clients)
        hier = run_hierarchical(clients)
        flat_series.append(flat)
        hier_series.append(hier)
        central_hot.append(hot_spot)
        rows.append(
            (clients, central_msgs, hot_spot, flat, hier, round(flat / hier, 2))
        )
    flat_exp = fit_power_law(CLIENTS, flat_series)
    hier_exp = fit_power_law(CLIENTS, hier_series)
    hot_exp = fit_power_law(CLIENTS, central_hot)
    assert flat_exp > 1.7, f"flat traffic exponent {flat_exp:.2f}, expected ~2"
    assert hier_exp < 1.4, f"hier traffic exponent {hier_exp:.2f}, expected ~1"
    assert hot_exp > 0.9, "central hot-spot load must grow linearly"
    return rows, flat_exp, hier_exp, hot_exp


def test_e2_traffic_growth(benchmark):
    rows, flat_exp, hier_exp, hot_exp = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    print_table(
        "E2: total request traffic vs number of clients",
        [
            "clients",
            "central msgs",
            "central hot-spot",
            "flat messages",
            "hierarchical messages",
            "flat/hier",
        ],
        rows,
        note=(
            f"power-law exponents: flat {flat_exp:.2f} (paper: ~2, quadratic), "
            f"hierarchical {hier_exp:.2f} (~linear); central total is linear "
            f"but one machine handles it all (hot-spot exponent {hot_exp:.2f})"
        ),
    )
