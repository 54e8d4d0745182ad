"""Tests for the conservative-window parallel engine (repro.sim.parallel).

Three obligations, per docs/simulator.md ("Parallel execution"):

* **Plan** — :class:`PartitionPlan` hands every partition to exactly one
  worker, in contiguous blocks, and rejects unusable shapes.
* **Determinism** — for a fixed partitioning, per-partition delivery
  digests are byte-identical at every worker count; the merged
  fingerprint is W-independent (the W=1 run is the serial reference of
  the windowed protocol).
* **Failure** — a worker that dies mid-window surfaces as a clean
  :class:`ParallelError` at the barrier; the hub never hangs.

The cross-process cases are marked ``parallel_smoke`` (they spawn real
OS processes) and sized to finish well inside their 60s barrier budget.
"""

from __future__ import annotations

import pytest

from repro.deploy.scenarios import StaticHierScenario
from repro.sim.parallel import (
    ParallelError,
    PartitionPlan,
    _window_targets,
    merged_fingerprint,
    run_parallel,
)

SMOKE_TIMEOUT = 60.0


def _scenario(**overrides):
    """Small but non-trivial: 4 leaves of 8, real heartbeat/gossip/
    multicast traffic, enough windows for cross-partition envelopes."""
    knobs = dict(
        workers=32,
        leaf_size=8,
        sim_s=0.6,
        settle=0.4,
        multicast_interval=0.25,
    )
    knobs.update(overrides)
    return StaticHierScenario(**knobs)


# -- partition plan -----------------------------------------------------------


def test_plan_blocks_are_contiguous_and_cover_every_partition():
    for partitions in (1, 3, 4, 7, 8):
        for workers in range(1, partitions + 1):
            plan = PartitionPlan(partitions, workers, {})
            seen = []
            for worker in range(workers):
                block = plan.block(worker)
                seen.extend(block)
                for pid in block:
                    assert plan.worker_of(pid) == worker
            assert seen == list(range(partitions))


def test_plan_rejects_bad_shapes():
    with pytest.raises(ParallelError):
        PartitionPlan(0, 1, {})
    with pytest.raises(ParallelError):
        PartitionPlan(2, 3, {})  # more workers than partitions
    with pytest.raises(ParallelError):
        PartitionPlan(2, 0, {})
    with pytest.raises(ParallelError):
        PartitionPlan(2, 1, {"a": 5})  # owner outside [0, partitions)


def test_merged_fingerprint_folds_in_partition_order():
    digests = {1: "b" * 8, 0: "a" * 8}
    assert merged_fingerprint(digests) == merged_fingerprint(
        {0: "a" * 8, 1: "b" * 8}
    )
    assert merged_fingerprint(digests) != merged_fingerprint(
        {0: "b" * 8, 1: "a" * 8}
    )


def test_window_targets_end_exactly_at_duration():
    assert _window_targets(1.0, 0.25) == [0.25, 0.5, 0.75, 1.0]
    assert _window_targets(0.6, 0.25) == [0.25, 0.5, 0.6]
    assert _window_targets(0.1, 0.25) == [0.1]
    with pytest.raises(ParallelError):
        _window_targets(0.0, 0.25)


def test_static_scenario_owners_never_split_a_leaf():
    scn = _scenario()
    # More nodes than leaves (5..8 over 4 leaves) must not split one either.
    for partitions in range(1, 9):
        owners = scn.owners(partitions)
        assert set(owners) == set(scn.addresses())
        assert set(owners.values()) <= set(range(partitions))
        for leaf in range(scn.leaf_count):
            block_owners = {owners[a] for a in scn.leaf_block(leaf)}
            assert len(block_owners) == 1, f"leaf {leaf} split"


# -- determinism across worker counts -----------------------------------------


@pytest.mark.parallel_smoke
def test_digests_are_byte_identical_across_worker_counts():
    scn = _scenario()
    outcomes = {
        workers: run_parallel(
            scn,
            partitions=4,
            workers=workers,
            barrier_timeout=SMOKE_TIMEOUT,
        )
        for workers in (1, 2)
    }
    reference = outcomes[1]
    assert reference.ok, reference.errors
    assert reference.envelopes_crossed > 0  # parity is not vacuous
    assert reference.deliveries > 0
    assert scn.check({}, reference.results) == []
    for workers, outcome in outcomes.items():
        assert outcome.ok, outcome.errors
        assert outcome.digests == reference.digests, (
            f"per-partition digests diverge at W={workers}"
        )
        assert outcome.fingerprint == reference.fingerprint
        assert outcome.events == reference.events
        assert outcome.deliveries == reference.deliveries
        assert outcome.envelopes_crossed == reference.envelopes_crossed


@pytest.mark.parallel_smoke
def test_narrower_lookahead_adds_windows_without_changing_results():
    scn = _scenario()
    derived = run_parallel(
        scn, partitions=2, workers=1, barrier_timeout=SMOKE_TIMEOUT
    )
    narrow = run_parallel(
        scn,
        partitions=2,
        workers=1,
        lookahead=derived.lookahead / 2,  # half the derived floor
        barrier_timeout=SMOKE_TIMEOUT,
    )
    assert narrow.windows > derived.windows
    assert narrow.fingerprint == derived.fingerprint
    assert narrow.deliveries == derived.deliveries


# -- failure handling ---------------------------------------------------------


@pytest.mark.parallel_smoke
def test_worker_crash_surfaces_as_clean_error_not_a_hang():
    scn = _scenario()
    with pytest.raises(
        ParallelError, match="died|faulted|closed its pipe"
    ):
        run_parallel(
            scn,
            partitions=4,
            workers=2,
            barrier_timeout=SMOKE_TIMEOUT,
            _fault=(0, 1),  # worker 0 exits hard inside window 1
        )


class _BrokenScenario(StaticHierScenario):
    """Module-level (spawn pickles the scenario): raises mid-run."""

    def build(self, env, local):
        state = super().build(env, local)
        env.scheduler.at(0.1, self._boom)
        return state

    @staticmethod
    def _boom():
        raise RuntimeError("scenario exploded on purpose")


@pytest.mark.parallel_smoke
def test_worker_fault_carries_the_traceback():
    scn = _BrokenScenario(workers=8, leaf_size=4, sim_s=0.3, settle=0.2)
    with pytest.raises(ParallelError, match="scenario exploded on purpose"):
        run_parallel(
            scn, partitions=2, workers=2, barrier_timeout=SMOKE_TIMEOUT
        )
