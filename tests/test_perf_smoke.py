"""The behaviour guard, and a smoke test over its scenarios.

``tools/perf_report.py --guard`` is the repo's one frozen-behaviour
check: five quick scenarios whose fingerprints must equal
``BENCH_core.json`` exactly.  This module runs it (so behaviour drift
fails ``pytest``, not a make target someone has to remember), tests the
comparison that names the counter that moved, and pins the layout of
the reference file.  Deliberately no wall-clock assertions — this host
cannot resolve a speed regression on a sub-second run; speed is measured
by ``benchmarks/e2e``.  The structural checks keep the harness from
rotting: each scenario completes, processes a plausible number of
events, reports a fingerprint, and keeps the event heap bounded.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO))

from tools.perf_report import (
    build_guards,
    build_scenarios,
    compare_fingerprints,
    run_suite,
)


def test_quick_suite_runs_all_scenarios():
    scenarios = build_scenarios()
    results = run_suite()
    assert set(results) == set(scenarios)
    for name, result in results.items():
        assert result["events"] > 1000, name
        assert result["wall_s"] > 0.0, name
        assert result["fingerprint"]["events_processed"] > 0, name


def test_scenarios_keep_heap_bounded():
    results = run_suite(only=["hier_steady_n64", "churn"])
    for name, result in results.items():
        # The heap watermark must stay far below the number of events
        # processed — cancelled timers are compacted, not accumulated.
        assert result["peak_heap"] < result["events"] / 10, name


def test_scenario_fingerprints_are_deterministic():
    a = run_suite(only=["churn"])["churn"]["fingerprint"]
    b = run_suite(only=["churn"])["churn"]["fingerprint"]
    assert a == b


# -- the one guard -------------------------------------------------------------


def _guard(*args, cwd=REPO):
    """``python -m tools.perf_report --guard ...`` as CI runs it (the
    tool pins ``PYTHONHASHSEED=0`` itself by re-exec)."""
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
