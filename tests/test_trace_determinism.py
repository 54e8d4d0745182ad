"""Tracing is observation-only: enabling it changes no behaviour
fingerprint, and for a fixed seed the trace itself is reproducible.

Three guarantees, each the regression guard for one acceptance claim:

1. a traced run's delivery digest, counters and event counts are
   byte-identical to the untraced run (the sink draws no randomness and
   schedules nothing);
2. the frozen flat-scenario constants from tests/test_perf_determinism.py
   still hold with tracing enabled;
3. two same-seed traced runs record identical spans, and ring-buffer
   capacity changes what is *retained*, never what *happens*.
"""

from repro import trace

from tests.test_perf_determinism import (
    FROZEN_BYTES,
    FROZEN_DELIVERIES,
    FROZEN_EVENTS,
    FROZEN_MESSAGES,
    run_flat_churn_scenario,
    run_hier_churn_scenario,
)


class _Tracer:
    """Instrument hook that keeps a handle on the attached sink."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.sink = None

    def __call__(self, env):
        self.sink = trace.attach(env, capacity=self.capacity)


def test_traced_flat_run_keeps_frozen_counters():
    tracer = _Tracer()
    _digest, deliveries, snapshot, events, now = run_flat_churn_scenario(
        23, instrument=tracer
    )
    assert deliveries == FROZEN_DELIVERIES
    assert snapshot.messages == FROZEN_MESSAGES
    assert snapshot.bytes == FROZEN_BYTES
    assert events == FROZEN_EVENTS  # tracing schedules zero events
    assert now == 8.0
    # ...and the run was actually traced, heavily: a send span and a
    # deliver span per delivered datagram — but for the 96 Subscribes the
    # group's first watches sent before the tracer was attached.
    assert tracer.sink.collector.recorded > 2 * (FROZEN_DELIVERIES - 96)


def test_traced_and_untraced_flat_digests_identical():
    untraced = run_flat_churn_scenario(23)
    traced = run_flat_churn_scenario(23, instrument=_Tracer())
    assert traced == untraced  # digest, count, stats, events, sim time


def test_traced_and_untraced_hier_digests_identical():
    untraced = run_hier_churn_scenario(23)
    traced = run_hier_churn_scenario(23, instrument=_Tracer())
    assert traced == untraced


def test_same_seed_traced_runs_record_identical_spans():
    a, b = _Tracer(), _Tracer()
    run_flat_churn_scenario(23, instrument=a)
    run_flat_churn_scenario(23, instrument=b)
    spans_a = [s.to_tuple() for s in a.sink.collector.spans]
    spans_b = [s.to_tuple() for s in b.sink.collector.spans]
    assert spans_a and spans_a == spans_b


def test_ring_buffer_capacity_does_not_perturb_behaviour():
    full = run_flat_churn_scenario(23, instrument=_Tracer())
    ringed_tracer = _Tracer(capacity=256)
    ringed = run_flat_churn_scenario(23, instrument=ringed_tracer)
    assert ringed == full
    collector = ringed_tracer.sink.collector
    assert len(collector) == 256
    assert collector.evicted == collector.recorded - 256
