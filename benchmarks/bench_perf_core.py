"""P0 — wall-clock throughput of the discrete-event core.

Unlike the ``bench_e*`` experiments, which count *messages* to reproduce
the paper's complexity arguments, this file measures the *simulator
itself*: events per wall-clock second through the scheduler/network hot
path.  It exists so that event-core regressions show up as numbers, not
as mysteriously slow experiment suites.

The scenarios are shared with ``tools/perf_report.py`` (the CLI that
records the guard reference in ``BENCH_core.json``); here each scenario runs once under pytest-benchmark so ``make bench`` tracks
them alongside the paper experiments.  All runs are deterministic
discrete-event simulations — only the wall-clock time varies.

Marked ``perf`` so the default test run can exclude them:
``pytest benchmarks -m "not perf"`` skips this file.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))

from tools.perf_report import (
    _calibrate,
    scenario_churn,
    scenario_flat_steady,
    scenario_hier_steady,
    scenario_hier_steady_traced,
    scenario_scheduler_micro,
)

pytestmark = pytest.mark.perf

BENCH_JSON = Path(__file__).parent.parent / "BENCH_core.json"


def _report(result):
    print(
        f"\n  {result['events']} events in {result['wall_s']:.3f}s "
        f"({result['events_per_sec']:,.0f} events/sec)"
    )


def test_perf_scheduler_micro(benchmark):
    """Pure scheduler churn: no network, no processes."""
    result = benchmark.pedantic(
        scenario_scheduler_micro, args=(True,), rounds=3, iterations=1
    )
    _report(result)


def test_perf_flat_steady_state(benchmark):
    """Flat 64-member group under heartbeat monitoring."""
    result = benchmark.pedantic(
        scenario_flat_steady, args=(64, 1.0), rounds=3, iterations=1
    )
    _report(result)


def test_perf_hierarchical_steady_state(benchmark):
    """Hierarchical 64-worker service with heartbeats and gossip — the
    headline scenario of the event-core optimisation work."""
    result = benchmark.pedantic(
        scenario_hier_steady, args=(64, 1.5), kwargs={"settle": 4.0},
        rounds=3, iterations=1,
    )
    _report(result)


def test_perf_churn(benchmark):
    """Crash/recover cycling: exercises cancellation and heap compaction."""
    result = benchmark.pedantic(scenario_churn, args=(3.0,), rounds=3, iterations=1)
    _report(result)


def _recorded_hier_events_per_sec():
    """The guard reference's hier steady-state events/sec in
    BENCH_core.json, scaled to this machine's speed today by the
    calibration probe recorded beside it; None when absent/foreign."""
    try:
        guard = json.loads(BENCH_JSON.read_text())["runs"]["guard"]
        recorded = guard["scenarios"]["hier_steady_n64"]["events_per_sec"]
        return recorded * _calibrate() / guard["calibration_ops_per_sec"]
    except (OSError, KeyError, ValueError):
        return None


def test_perf_tracing_disabled_overhead_guard(benchmark):
    """The disabled-path cost of the trace hooks — one attribute load
    plus a None check per event — must stay within 2% of the steady-state
    throughput of the guard reference in BENCH_core.json (same scenario,
    same protocol, machine drift calibrated out); skipped when the
    report is absent.
    """
    recorded = _recorded_hier_events_per_sec()
    results = []

    def run():
        # The guard reference's (quick) parameters.
        result = scenario_hier_steady(64, 1.5, settle=4.0)
        results.append(result)
        return result

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    _report(result)
    if recorded is None:
        pytest.skip("no BENCH_core.json hier_steady_n64 number to guard against")
    # Best-of-rounds against the recorded number: transient machine load
    # only ever slows a round down, so the max is the honest estimate.
    best = max(r["events_per_sec"] for r in results)
    ratio = best / recorded
    print(f"  tracing-off vs guard reference: {ratio:.3f}x")
    assert ratio >= 0.98, (
        f"tracing-off throughput {best:,} ev/s fell more than 2% below "
        f"the recorded {recorded:,.0f} ev/s — the guarded hooks are no "
        f"longer free when disabled"
    )


def test_perf_tracing_enabled_cost(benchmark):
    """Measure (don't gate) what tracing *on* costs: the traced scenario
    must stay behaviour-identical and within a sane constant factor of
    the untraced run; the exact ratio is recorded in the bench report by
    tools/perf_report.py (scenario hier_steady_n64_traced)."""
    off = scenario_hier_steady(64, 1.5, settle=4.0)
    on = benchmark.pedantic(
        scenario_hier_steady_traced, args=(64, 1.5), kwargs={"settle": 4.0},
        rounds=3, iterations=1,
    )
    _report(on)
    assert on["fingerprint"] == off["fingerprint"]  # observation-only
    assert on["trace_spans_recorded"] > 0
    slowdown = off["events_per_sec"] / on["events_per_sec"]
    print(f"  tracing-on slowdown: {slowdown:.2f}x "
          f"({on['trace_spans_recorded']:,} spans recorded)")
    assert slowdown < 5.0, f"tracing-on cost exploded: {slowdown:.2f}x"
