"""Backend parity: the same protocol scenarios on every engine.

The engine contract (:mod:`repro.runtime.api`) promises that the
protocol stack above it is engine-agnostic.  This suite holds the
promise to account with **one parity matrix over all three engines**:

* the scenario *plans* live in :mod:`repro.deploy.scenarios` — a flat
  four-member group and a small hierarchical service, each a schedule of
  absolute logical times;
* the **sim** engine runs each plan once as the reference;
* the **asyncio** engine runs the identical plan in one wall-clock
  Environment;
* the **socket** engine runs it as a loopback cluster — three
  SocketRuntimes with real UDP sockets between them, every cross-node
  message a codec-encoded wire frame;
* every run must finish sanitizer-clean (VS001–VS006 strict mode — a
  violation raises inside a callback and all engines surface it), and
  all engines must agree on the *protocol-level* outcomes: final views,
  leaf placement, and the per-sender delivery sequence seen by every
  receiver (:meth:`scenario.check`).

What is deliberately **not** compared is the global interleaving of
deliveries across senders: the wall-clock engines race the OS, so only
the orders the protocols themselves enforce (per-sender FIFO, causal,
total) are stable across engines.  The sim backend additionally must
reproduce the frozen determinism baselines of ``test_perf_determinism``
— the adapter is required to be a zero-behaviour-change wrapper.

The full multi-OS-process rung of the same ladder is exercised by the
``socket_smoke`` CLI test below and ``make smoke-socket``.
"""

import gc
import os
import subprocess
import sys

import pytest

from repro.deploy.cluster import LoopbackCluster
from repro.deploy.scenarios import make_scenario, run_reference
from repro.membership import CAUSAL, TOTAL, build_group
from repro.metrics.digest import DeliveryDigest
from repro.net import FixedLatency
from repro.proc import Environment
from repro.runtime import AsyncioRuntime, SimRuntime

from tests.test_perf_determinism import (
    FROZEN_BYTES,
    FROZEN_DELIVERIES,
    FROZEN_EVENTS,
    FROZEN_MESSAGES,
    run_flat_churn_scenario,
)

# Wall seconds per logical second for the live engines under test; small
# enough to keep the matrix fast, large enough that barrier/arrival
# jitter stays far inside the plans' scheduled gaps.
_TEST_TIME_SCALE = 0.05

_references = {}


def reference_for(name):
    """Sim-engine outcome for a scenario plan, computed once per run."""
    if name not in _references:
        _references[name] = run_reference(make_scenario(name))
    return _references[name]


def run_on_asyncio(scenario):
    """The identical plan in one wall-clock Environment."""
    runtime = AsyncioRuntime(seed=scenario.seed, time_scale=_TEST_TIME_SCALE)
    try:
        return run_reference(scenario, runtime=runtime)
    finally:
        runtime.close()


def run_on_socket(scenario):
    """The identical plan as a three-node loopback UDP cluster."""
    results, wire = LoopbackCluster(
        scenario, nodes=3, time_scale=_TEST_TIME_SCALE
    ).run()
    # Parity must be earned over the wire, not via the local fast path.
    assert wire["frames_received"] > 0, "no frames crossed the loopback"
    assert wire["decode_errors"] == 0, wire
    assert wire["encode_drops"] == 0, wire
    return results


_ENGINES = {"asyncio": run_on_asyncio, "socket": run_on_socket}


# ------------------------------------------------------ the parity matrix


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("name", ["flat", "hier", "hier-reorg"])
def test_engine_parity(name, engine):
    scenario = make_scenario(name)
    reference = reference_for(name)
    # The live run must not pay for the rest of the suite's garbage: a
    # full collection landing mid-run stalls the loop for ~0.1 s, two
    # logical seconds at the test time scale, long enough for timeouts
    # to fire ahead of the replies they wait for.
    gc.collect()
    live = _ENGINES[engine](scenario)
    errors = scenario.check(reference, live)
    assert not errors, "\n".join(errors)
    # Both sides actually tracked deliveries (sanitizers were live).
    assert reference["counters"]["deliveries_checked"] > 0
    assert live["counters"]["deliveries_checked"] > 0
    assert live["counters"].get("violations", 0) == 0


def test_flat_reference_content():
    """The flat plan exercises what the matrix claims it does: all four
    members in the final view and every burst delivered in send order."""
    scenario = make_scenario("flat")
    reference = reference_for("flat")
    assert set(reference["views"]) == set(scenario.addresses())
    for receiver, seqs in reference["seqs"].items():
        assert seqs["g-0"] == ["g-0/m0", "g-0/m1", "g-0/m2"], receiver
        assert seqs["g-3"] == ["g-3/m0", "g-3/m1"], receiver


def test_hier_reference_content():
    """The hier plan places every worker and both leaf bursts land on the
    sender's own leaf peers in send order."""
    scenario = make_scenario("hier")
    reference = reference_for("hier")
    placement = reference["placement"]
    assert len(placement) == scenario.workers
    assert all(slot is not None for slot in placement.values())
    for sender in (scenario.worker_addresses()[0],
                   scenario.worker_addresses()[-1]):
        _leaf, peers = placement[sender]
        expected = [f"{sender}/m{i}" for i in range(3)]
        for peer in peers:
            if peer in reference["seqs"]:
                assert reference["seqs"][peer].get(sender) == expected, peer


# ------------------------------------------------------ wall-clock smoke


def _run_cli(args, timeout=60):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        cwd=repo_root,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.asyncio_smoke
def test_live_demo_cli_smoke():
    """Tier-1 gate for `make smoke-asyncio`: the wall-clock hierarchical
    demo matches the sim reference and completes sanitizer-clean well
    inside the 60 s hard timeout."""
    proc = _run_cli(["live", "--workers", "6"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6/6 workers" in proc.stdout
    assert "parity with the sim reference held" in proc.stdout
    assert "sanitizer-clean" in proc.stdout


@pytest.mark.socket_smoke
@pytest.mark.parametrize("scenario", ["flat", "hier"])
def test_deploy_cli_smoke(scenario):
    """Tier-1 gate for `make smoke-socket`: a real deployment — three OS
    processes exchanging UDP wire frames — matches the sim reference and
    reports itself sanitizer-clean inside the 60 s hard timeout."""
    proc = _run_cli(["deploy", "--nodes", "3", "--scenario", scenario])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "sanitizer-clean" in proc.stdout
    assert "0 decode errors" in proc.stdout


# ------------------------------------------------- sim adapter is exact


def test_sim_runtime_is_the_default_engine():
    """Environment(seed=s) and Environment(runtime=SimRuntime(s)) are the
    same machine: identical delivery digests for a non-trivial run."""

    def digest_for(**env_kwargs):
        env = Environment(latency=FixedLatency(0.002), **env_kwargs)
        _nodes, members = build_group(env, "g", 5)
        digest = DeliveryDigest(env.network)
        env.scheduler.after(0.1, lambda: members[1].multicast("a", TOTAL))
        env.scheduler.after(0.2, lambda: members[3].multicast("b", CAUSAL))
        env.run_for(2.0)
        return digest.hexdigest(), digest.count, env.scheduler.events_processed

    assert digest_for(seed=13) == digest_for(runtime=SimRuntime(seed=13))


def test_sim_runtime_reproduces_frozen_baselines():
    """The adapter must not perturb the PR-1 frozen determinism guard:
    the flat churn scenario's machine-independent counters still match."""
    _digest, deliveries, snapshot, events, now = run_flat_churn_scenario(23)
    assert deliveries == FROZEN_DELIVERIES
    assert snapshot.messages == FROZEN_MESSAGES
    assert snapshot.bytes == FROZEN_BYTES
    assert events == FROZEN_EVENTS
    assert now == 8.0


def test_a_sim_run_loads_no_live_engine():
    """``repro`` and ``repro.runtime`` resolve the asyncio and UDP engines
    on first access, so a simulated run imports none of their stdlib."""
    script = (
        "import sys\n"
        "from repro import Environment, build_group\n"
        "env = Environment(seed=1)\n"
        "build_group(env, 'g', 3)\n"
        "env.run_for(1.0)\n"
        "print(sorted({'asyncio', 'socket', 'ssl', 'subprocess'} & set(sys.modules)))\n"
        "from repro import AsyncioRuntime\n"
        "from repro.runtime import SocketFabric, run_cluster\n"
        "print(AsyncioRuntime.__name__, SocketFabric.__name__, run_cluster.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:2] == ["[]", "AsyncioRuntime SocketFabric run_cluster"]
