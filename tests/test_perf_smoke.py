"""The behaviour guard, and a smoke test over its scenarios.

``tools/perf_report.py --guard`` is the repo's one frozen-behaviour
check: five quick scenarios whose fingerprints must equal
``BENCH_core.json`` exactly.  This module runs it (so behaviour drift
fails ``pytest``, not a make target someone has to remember), tests the
comparison that names the counter that moved, and pins the layout of
the reference file.  Deliberately no wall-clock assertions — this host
cannot resolve a speed regression on a sub-second run; speed is measured
by ``benchmarks/e2e``.  The structural checks keep the harness from
rotting: each scenario completes, processes events, reports a
fingerprint, and compacts the timers it cancels instead of accumulating
them.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO))

from repro.proc import Environment, Process
from tools.perf_report import (
    _census_reference,
    _timed_run,
    build_guards,
    build_scenarios,
    compare_fingerprints,
    run_suite,
    scenario_churn,
    scenario_hier_steady,
    scenario_scale,
)


def test_quick_suite_runs_all_scenarios():
    scenarios = build_scenarios()
    results = run_suite()
    assert set(results) == set(scenarios)
    for name, result in results.items():
        assert result["events"] > 0, name
        assert result["wall_s"] > 0.0, name
        assert result["fingerprint"]["events_processed"] >= result["events"], name


def watchdog(seconds):
    """A one-shot re-armed every tick with the old one cancelled, ten
    seconds out — the shape of a request's retry timer."""
    env = Environment(seed=1)
    process = Process(env, "p")
    timer = [process.set_timer(10.0, lambda: None)]

    def rearm():
        timer[0].cancel()
        timer[0] = process.set_timer(10.0, lambda: None)

    process.every(0.01, rearm)
    return _timed_run(env, seconds)


def test_scenarios_keep_heap_bounded():
    """Cancelled timers are compacted, not accumulated: run twice as long,
    a scenario peaks at no more lazily cancelled heap entries.  (The raw
    heap holds an entry per datagram in flight, which a longer run's
    busier instants may raise: churn's reads 34 short and 46 long.)
    Neither protocol scenario cancels enough long-lived timers to need
    compaction, so the watchdog runs beside them, and its raw heap must
    not grow either."""
    for name, (run, seconds) in {
        "hier_steady_n64": (lambda s: scenario_hier_steady(64, s, settle=4.0), 1.5),
        "churn": (scenario_churn, 3.0),
        "watchdog": (watchdog, 3.0),
    }.items():
        short, long = run(seconds), run(2 * seconds)
        assert long["peak_cancelled"] <= short["peak_cancelled"], name
        if name == "watchdog":
            assert long["peak_raw_heap"] <= short["peak_raw_heap"], name


def test_scenario_fingerprints_are_deterministic():
    a = run_suite(only=["churn"])["churn"]["fingerprint"]
    b = run_suite(only=["churn"])["churn"]["fingerprint"]
    assert a == b


# -- the one guard -------------------------------------------------------------


def _guard(*args, cwd=REPO):
    """``python -m tools.perf_report --guard ...`` as CI runs it, under a
    random string-hash seed: a run depends on its seed alone, so every
    tier-1 run checks the guard under another one."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    return subprocess.run(
        [sys.executable, "-m", "tools.perf_report", "--guard", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_guard_passes_against_the_committed_reference():
    proc = _guard()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "5 fingerprints identical" in proc.stdout


def test_guard_update_writes_only_the_file_it_then_accepts(tmp_path):
    out = tmp_path / "reference.json"
    recorded = _guard("--update", "--out", str(out), cwd=tmp_path)
    assert recorded.returncode == 0, recorded.stdout + recorded.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["reference.json"]
    checked = _guard("--out", str(out), cwd=tmp_path)
    assert checked.returncode == 0, checked.stdout + checked.stderr
    assert _guard("--out", str(tmp_path / "absent.json")).returncode == 2


def test_compare_names_the_scenario_and_every_counter_that_moved():
    recorded = {
        "churn": {"messages": 3272, "bytes": 10, "delivery_digest": "aa"},
        "flat_steady_n64": {"messages": 4608},
    }
    current = {
        "churn": {"messages": 3273, "bytes": 10, "delivery_digest": "bb"},
        "flat_steady_n64": {"messages": 4608},
    }
    assert compare_fingerprints(recorded, recorded) == []
    assert compare_fingerprints(recorded, current) == [
        "churn: delivery_digest 'bb' != recorded 'aa'",
        "churn: messages 3273 != recorded 3272",
    ]
    # A guard without a reference (or the reverse) is a failure too.
    del current["flat_steady_n64"]
    current["new"] = {"messages": 1}
    failures = compare_fingerprints(recorded, current)
    assert any(f.startswith("flat_steady_n64: no such") for f in failures)
    assert any(f.startswith("new: no such") for f in failures)


def test_scale_tree_stays_log_depth_and_splits_under_heat():
    """The load-mode tree at n=1024 is the canonical packing: ~66 leaves
    at fanout 8 sit at depth 4, so the two heated leaves split on load
    inside the window and each split's routing window closes within
    10 ms.  A tree that grows a spine instead (depth 10 here) also cuts
    the hot splits off."""
    result = scenario_scale(1024, 3.0)
    assert result["tree"]["depth"] <= 4, result["tree"]
    assert result["reorgs"]["hot_splits"] >= 2, result["reorgs"]
    disruption = result["routing_disruption_s"]
    assert disruption["windows"] == result["reorgs"]["splits"]
    assert disruption["max"] <= 0.01, disruption


_CENSUS = """
import json
from repro.deploy.scenarios import HierScenario
from tools.perf_report import _census_reference
print(json.dumps(_census_reference(HierScenario(workers=%d))[1]))
"""


def test_the_wire_census_repeats_to_the_byte():
    """``--wire``'s census encodes every envelope of the sim reference
    run, so each run of the plan reads the bytes per category that the
    committed BENCH_wire.json records, whether it is the first or the
    second in this process or runs in a fresh interpreter, and the two
    runs in this process reach the same outcomes: a codec change
    that moves them fails here until ``make bench-wire`` is re-run.
    (Request ids are varints, numbered per run by the environment.)
    The file marks the UDP probe's counts, which follow host timing, as
    not repeatable."""
    from repro.deploy.scenarios import HierScenario

    report = json.loads((REPO / "BENCH_wire.json").read_text())
    recorded = report["census"]
    assert recorded["repeatable"] is True
    assert report["udp_probe"]["repeatable"] is False
    by_category = {
        category: [entry["envelopes"], entry["bytes"]]
        for category, entry in recorded["by_category"].items()
    }
    scenario = HierScenario(workers=report["scenario"]["workers"])
    first = _census_reference(scenario)
    second = _census_reference(scenario)
    for results, census, rejects in (first, second):
        assert not rejects and results["counters"]["deliveries_checked"]
        assert census == by_category
    # The scenario's outcomes repeat too, not only the bytes.
    assert second == first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    proc = subprocess.run(
        [sys.executable, "-c", _CENSUS % report["scenario"]["workers"]],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout.splitlines()[-1])
    assert by_category == fresh
    assert recorded["envelopes"] == sum(n for n, _ in fresh.values())
    assert recorded["bytes"] == sum(b for _, b in fresh.values())


def test_bench_core_json_holds_only_the_guard_reference():
    """The committed BENCH_core.json is what ``--guard --update`` writes
    and nothing else — one fingerprint per guard, no timings — and it is
    the only frozen-behaviour store: the scale report carries no guard
    entries of its own."""
    text = (REPO / "BENCH_core.json").read_text()
    report = json.loads(text)
    assert set(report) == {"benchmark", "guard"}
    assert set(report["guard"]) == set(build_guards()) == {
        "scheduler_micro",
        "flat_steady_n64",
        "hier_steady_n64",
        "churn",
        "scale_n256",
    }
    for name, fingerprint in report["guard"].items():
        assert fingerprint and "fingerprint" not in fingerprint, name
    # No timing or calibration reading anywhere in the store.
    assert "per_sec" not in text and "wall_s" not in text
    assert "runs" not in json.loads((REPO / "BENCH_scale.json").read_text())


def test_every_make_target_the_docs_name_exists():
    """A deleted target leaves `make <target>` behind in prose that
    nothing else reads: every one named in the docs must be a target of
    the Makefile."""
    targets = set(
        re.findall(r"^([a-z][\w-]*):", (REPO / "Makefile").read_text(), re.M)
    )
    docs = [
        REPO / "README.md",
        REPO / "DESIGN.md",
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted((REPO / "docs").glob("*.md")),
    ]
    for doc in docs:
        named = set(re.findall(r"`make ([a-z][\w-]*)`", doc.read_text()))
        assert named <= targets, f"{doc.name}: no such target {sorted(named - targets)}"
