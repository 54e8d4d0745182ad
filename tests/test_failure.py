"""Unit tests for failure detectors and crash injection."""

from repro.failure import CrashInjector, HeartbeatDetector, OracleDetector
from repro.net import FixedLatency
from repro.proc import Environment, Process


class Plain(Process):
    pass


def make_cluster(n, seed=1, drop=0.0):
    env = Environment(seed=seed, latency=FixedLatency(0.005), drop_probability=drop)
    return env, [Plain(env, f"p{i}") for i in range(n)]


def make_heartbeat_cluster(n, interval=0.1, suspect_after=0.5, seed=1):
    """Every node runs a detector daemon (so watched peers answer pings)."""
    env, procs = make_cluster(n, seed=seed)
    detectors = [
        HeartbeatDetector(p, interval=interval, suspect_after=suspect_after)
        for p in procs
    ]
    return env, procs, detectors


# -- heartbeat detector -----------------------------------------------------------


def test_heartbeat_detects_crash():
    env, procs, (detector, _) = make_heartbeat_cluster(2)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    env.run_for(1.0)
    assert suspects == []
    procs[1].crash()
    env.run_for(2.0)
    assert suspects == ["p1"]
    assert detector.is_suspected("p1")


def test_heartbeat_no_false_suspicion_on_clean_network():
    env, procs, (detector, _, __) = make_heartbeat_cluster(3)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    detector.watch("p2")
    env.run_for(10.0)
    assert suspects == []


def test_heartbeat_does_not_watch_self():
    env, procs = make_cluster(1)
    detector = HeartbeatDetector(procs[0], interval=0.1, suspect_after=0.5)
    detector.watch("p0")
    assert detector.watched() == set()


def test_heartbeat_unwatch_stops_suspicion():
    env, procs, (detector, _) = make_heartbeat_cluster(2)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    detector.unwatch("p1")
    procs[1].crash()
    env.run_for(3.0)
    assert suspects == []


def test_heartbeat_suspicion_fires_once():
    env, procs, (detector, _) = make_heartbeat_cluster(2, suspect_after=0.4)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    procs[1].crash()
    env.run_for(5.0)
    assert suspects == ["p1"]


def test_heartbeat_traffic_categorised():
    env, procs, (detector, _) = make_heartbeat_cluster(2)
    detector.watch("p1")
    env.run_for(1.0)
    assert env.network.stats.by_category["heartbeat"] > 0


# -- oracle detector ---------------------------------------------------------------


def test_oracle_detects_with_delay_and_no_traffic():
    env, procs = make_cluster(2)
    detector = OracleDetector(procs[0], detection_delay=0.25)
    suspects = []
    detector.add_listener(lambda a: suspects.append((a, env.now)))
    detector.watch("p1")
    env.scheduler.at(1.0, lambda: procs[1].crash())
    env.run_for(2.0)
    assert suspects == [("p1", 1.25)]
    assert env.network.stats.messages == 0


def test_oracle_ignores_unwatched():
    env, procs = make_cluster(3)
    detector = OracleDetector(procs[0])
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    procs[2].crash()
    env.run_for(1.0)
    assert suspects == []


def test_oracle_detects_already_dead_peer_on_watch():
    env, procs = make_cluster(2)
    procs[1].crash()
    detector = OracleDetector(procs[0], detection_delay=0.1)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    env.run_for(1.0)
    assert suspects == ["p1"]


def test_oracle_suppresses_report_if_owner_died():
    env, procs = make_cluster(2)
    detector = OracleDetector(procs[0], detection_delay=0.5)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    procs[1].crash()
    procs[0].crash()  # owner dies before the detection delay elapses
    env.run_for(2.0)
    assert suspects == []


def test_a_dead_incarnations_oracle_never_reports():
    """The detector holds the process it serves, not its address: the
    successor alive at that address does not bring it back to life."""
    env, procs = make_cluster(3)
    detector = OracleDetector(procs[0], detection_delay=0.5)
    suspects = []
    detector.add_listener(suspects.append)
    detector.watch("p1")
    detector.watch("p2")
    procs[1].crash()  # its report falls due after the owner is back
    procs[0].crash()
    successor = procs[0].recover()
    env.run_for(1.0)
    procs[2].crash()
    env.run_for(1.0)
    assert suspects == []
    assert successor.alive and env.process("p0") is successor
    assert env._crash_listeners == []  # the dead detector stopped listening


# -- crash injector ---------------------------------------------------------------


def test_scripted_crash_and_recovery():
    env, procs = make_cluster(1)
    injector = CrashInjector(env)
    injector.crash_at(1.0, "p0")
    injector.recover_at(2.0, "p0")
    env.run(until=1.5)
    assert not procs[0].alive
    env.run(until=2.5)
    assert not procs[0].alive and env.process("p0").alive  # its successor
    assert [(r.action, r.time) for r in injector.records] == [
        ("crash", 1.0),
        ("recover", 2.0),
    ]


def test_poisson_crashes_respect_horizon():
    env, procs = make_cluster(20)
    injector = CrashInjector(env)
    scheduled = injector.poisson_crashes(
        [p.address for p in procs], rate_per_process=0.5, horizon=10.0
    )
    env.run(until=20.0)
    crashed = sum(not p.alive for p in procs)
    assert crashed == len([r for r in injector.records if r.action == "crash"])
    assert all(r.time <= 10.0 for r in injector.records)
    assert scheduled >= crashed  # some scheduled crashes may hit dead procs


def test_poisson_zero_rate_schedules_nothing():
    env, procs = make_cluster(5)
    injector = CrashInjector(env)
    assert injector.poisson_crashes([p.address for p in procs], 0.0, 10.0) == 0


def test_poisson_with_recovery_brings_processes_back():
    env, procs = make_cluster(10)
    injector = CrashInjector(env)
    injector.poisson_crashes(
        [p.address for p in procs],
        rate_per_process=0.3,
        horizon=5.0,
        recover_after=1.0,
    )
    env.run(until=30.0)
    assert all(env.process(p.address).alive for p in procs)


def test_crash_fraction():
    env, procs = make_cluster(10)
    injector = CrashInjector(env)
    victims = injector.crash_fraction_at(1.0, [p.address for p in procs], 0.3)
    assert len(victims) == 3
    env.run(until=2.0)
    assert sum(not p.alive for p in procs) == 3


def test_injection_is_deterministic_per_seed():
    def run(seed):
        env, procs = make_cluster(10, seed=seed)
        injector = CrashInjector(env)
        injector.poisson_crashes([p.address for p in procs], 0.4, 5.0)
        env.run(until=10.0)
        return [(r.time, r.address) for r in injector.records]

    assert run(5) == run(5)
