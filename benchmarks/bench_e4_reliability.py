"""E4 — "reliability tends to drop in large systems, because the
probability of component failures rises steadily with the number of
components" (§1) and "given the increasing load imposed by ever larger
broadcasts, reliability will actually decrease" (§2).

A client stream runs against three designs while every server process
crashes (and recovers) at a fixed per-process rate, so bigger systems see
proportionally more failures:

* ``conventional`` — n unreplicated servers that must ALL answer (the
  paper's "extensibility is an illusion" baseline: component failures
  compound with n);
* ``flat``      — one flat group of n (every failure blocks everyone);
* ``hierarchy`` — a large group of n (failures stay inside one leaf).

We report the fraction of requests answered within the client's retry
budget.  The conventional column is the mean of ``CONVENTIONAL_SEEDS``
runs per n: one 30-s Poisson draw of crashes is too few to show the decay.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import ECHO, flat_service, hierarchical_client, hierarchical_service

from repro.failure import CrashInjector
from repro.membership import GroupNode
from repro.metrics import print_table
from repro.proc import Environment, Process, Rpc, RpcError
from repro.net import FixedLatency

SIZES = (8, 16, 32)
CRASH_RATE = 0.02  # crashes per process per second
RECOVER_AFTER = 2.0
DURATION = 30.0
REQUEST_RATE = 4.0  # client requests per second
CONVENTIONAL_SEEDS = 5


def drive_requests(env, send_fn, duration, rate):
    """Schedule a deterministic request stream; returns the outcome list."""
    outcomes = []
    count = int(duration * rate)
    for i in range(count):
        env.scheduler.at(env.now + (i + 1) / rate, lambda i=i: send_fn(i, outcomes))
    env.run_for(duration + 15.0)
    return outcomes, count


class Solo(Process):
    """An unreplicated server: one ``Rpc`` that answers every request.
    Its recovered incarnation is built the same way, so it serves again."""

    def __init__(self, env, address):
        super().__init__(env, address)
        Rpc(self).serve(dict, lambda body, sender: ("ok",))


def run_conventional(n, seed):
    """n independent unreplicated servers; a request must reach all of
    them (a barrier computation), so success probability decays like
    uptime**n — reliability *drops* as the system grows."""
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    servers = [Solo(env, f"solo-{i}") for i in range(n)]
    injector = CrashInjector(env)
    injector.poisson_crashes(
        [s.address for s in servers], CRASH_RATE, DURATION,
        recover_after=RECOVER_AFTER,
    )
    client = GroupNode(env, "client")
    crpc = client.runtime.rpc

    def send(i, outcomes):
        replies = {"got": 0, "done": False}

        def one(value, sender=None):
            if replies["done"]:
                return
            if value is None:
                replies["done"] = True
                outcomes.append(False)
                return
            replies["got"] += 1
            if replies["got"] == n:
                replies["done"] = True
                outcomes.append(True)

        for server in servers:
            crpc.call(
                server.address,
                {"i": i},
                on_reply=one,
                timeout=1.0,
                on_timeout=lambda: one(None),
            )

    outcomes, count = drive_requests(env, send, DURATION, REQUEST_RATE)
    return sum(outcomes) / count


def run_flat(n, seed):
    env, nodes, members, servers, client = flat_service(n, seed=seed)
    injector = CrashInjector(env)
    injector.poisson_crashes(
        [node.address for node in nodes],
        CRASH_RATE,
        DURATION,
        recover_after=None,  # fail-stop: recovered processes would rejoin
    )

    def send(i, outcomes):
        client.request(
            {"i": i},
            on_reply=lambda v: outcomes.append(True),
            on_failure=lambda: outcomes.append(False),
        )

    outcomes, count = drive_requests(env, send, DURATION, REQUEST_RATE)
    return sum(outcomes) / count


def run_hier(n, seed):
    env, params, leaders, members, servers, _p, _r = hierarchical_service(
        n, resiliency=2, fanout=4, seed=seed
    )
    contacts = tuple(r.node.address for r in leaders)
    injector = CrashInjector(env)
    injector.poisson_crashes(
        [m.node.address for m in members],
        CRASH_RATE,
        DURATION,
        recover_after=None,
    )
    client = hierarchical_client(env, contacts)

    def send(i, outcomes):
        client.request(
            client.process.address,
            {"i": i},
            on_reply=lambda v: outcomes.append(True),
            on_failure=lambda: outcomes.append(False),
        )

    outcomes, count = drive_requests(env, send, DURATION, REQUEST_RATE)
    return sum(outcomes) / count


def run_experiment():
    rows = []
    for n in SIZES:
        conventional = statistics.mean(
            run_conventional(n, seed=100 * n + k)
            for k in range(1, CONVENTIONAL_SEEDS + 1)
        )
        flat = run_flat(n, seed=n)
        hier = run_hier(n, seed=n)
        rows.append((n, round(conventional, 3), round(flat, 3), round(hier, 3)))
    # conventional reliability decays with n; group designs stay high
    assert rows[-1][1] < rows[0][1], "conventional must degrade with size"
    assert rows[-1][3] >= rows[-1][1], "hierarchy should beat conventional"
    assert rows[-1][3] >= 0.9
    return rows


def test_e4_reliability_vs_size(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "E4: request success ratio under per-process crash rate "
        f"{CRASH_RATE}/s",
        ["n", f"conventional (all-n, {CONVENTIONAL_SEEDS} seeds)", "flat group",
         "hierarchical"],
        rows,
        note="conventional decays ~uptime^n, uptime = 1 - rate x recovery = "
        "0.96 (paper: reliability drops with size); process groups absorb "
        "the rising failure count",
    )
