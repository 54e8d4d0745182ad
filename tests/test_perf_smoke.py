"""Quick smoke test over the perf harness scenarios.

Runs miniature versions of the ``tools/perf_report.py`` scenarios inside
the default test suite so the harness itself cannot rot.  Deliberately no
wall-clock assertions — CI machines vary; the speed floor lives in
``BENCH_core.json`` (written by ``make bench-report``, checked by
``make bench-guard``).  What *is* asserted is structural: each scenario completes, processes a plausible
number of events, reports a behaviour fingerprint, and keeps the event
heap bounded.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from tools.perf_report import GUARD_SCENARIOS, build_scenarios, run_suite


def test_quick_suite_runs_all_scenarios():
    scenarios = build_scenarios(quick=True)
    results = run_suite(quick=True)
    assert set(results) == set(scenarios)
    for name, result in results.items():
        assert result["events"] > 1000, name
        assert result["wall_s"] > 0.0, name
        assert result["fingerprint"]["events_processed"] > 0, name


def test_scenarios_keep_heap_bounded():
    results = run_suite(quick=True, only=["hier_steady_n64", "churn"])
    for name, result in results.items():
        # The heap watermark must stay far below the number of events
        # processed — cancelled timers are compacted, not accumulated.
        assert result["peak_heap"] < result["events"] / 10, name


def test_scenario_fingerprints_are_deterministic():
    a = run_suite(quick=True, only=["churn"])["churn"]["fingerprint"]
    b = run_suite(quick=True, only=["churn"])["churn"]["fingerprint"]
    assert a == b


def test_bench_core_json_holds_only_the_guard_reference():
    """The committed BENCH_core.json is what ``--guard --update`` writes
    and nothing else, so ``make bench-report`` can be re-run at any time
    without a stale label beside the fresh one."""
    path = Path(__file__).parent.parent / "BENCH_core.json"
    report = json.loads(path.read_text())
    assert set(report) == {"benchmark", "runs"}
    assert set(report["runs"]) == {"guard"}
    guard = report["runs"]["guard"]
    assert set(guard["scenarios"]) == set(GUARD_SCENARIOS)
    assert guard["calibration_ops_per_sec"] > 0
    for name, scenario in guard["scenarios"].items():
        assert scenario["fingerprint"]["events_processed"] > 0, name
