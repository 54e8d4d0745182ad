"""repro-lint: every rule catches its seeded violation fixture — the
hazard docs/devtools.md measured it on among them — clean idioms stay
quiet, any finding fails the run, and the CLI has one mode."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.lint import lint_source, run
from tools.lint.__main__ import main
from tools.lint.rules import ALL_RULES, IMPORT_BOUNDARIES, ImportBoundaryRule

REPO_ROOT = Path(__file__).resolve().parent.parent

PROTO = "src/repro/membership/fixture.py"  # a protocol-package path
PLAIN = "src/repro/metrics/fixture.py"  # a non-protocol path


def codes(source, path=PROTO):
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


# ----------------------------------------------------------- rule fixtures


def test_rl001_wall_clock_sources():
    assert "RL001" in codes("import time\nt = time.time()\n")
    assert "RL001" in codes("from time import monotonic\nmonotonic()\n")
    assert "RL001" in codes(
        "from datetime import datetime\nstamp = datetime.now()\n"
    )
    assert "RL001" in codes("import datetime\nd = datetime.date.today()\n")
    # The measured hazard: a flush start stamped with the wall clock.
    assert codes(
        "import time\nself._flush.started_at = time.monotonic()\n"
    ) == ["RL001"]
    # Simulated time is the approved clock.
    assert codes("now = env.scheduler.now\n") == []


def test_rl002_stdlib_random():
    assert "RL002" in codes("import random\n")
    assert "RL002" in codes("from random import choice\n")
    assert "RL002" in codes("import secrets\n")
    # sim/rand.py is the one sanctioned home.
    assert codes("import random\n", path="src/repro/sim/rand.py") == []


def test_rl003_unordered_iteration_in_protocol_code():
    assert "RL003" in codes("for x in set(items):\n    use(x)\n")
    assert "RL003" in codes("for a in set(wanted) - watched:\n    pass\n")
    assert "RL003" in codes("out = [f(x) for x in {1, 2, 3}]\n")
    assert "RL003" in codes("members = tuple(set(alive))\n")
    assert "RL003" in codes("for k in d.keys() - other:\n    pass\n")
    assert "RL003" in codes("for m in alive.difference(dead):\n    pass\n")
    # The measured hazard: the leader's coordinator watches, unsorted.
    assert codes(
        "for address in set(wanted) - self._watched:\n"
        "    self.node.runtime.watch(address, tag)\n",
        path="src/repro/core/leader.py",
    ) == ["RL003"]
    # sorted() fixes the order; order-insensitive consumers are fine.
    assert codes("for x in sorted(set(items)):\n    use(x)\n") == []
    assert codes("n = len(set(items))\n") == []
    assert codes("ok = x in set(items)\n") == []
    # Outside protocol packages the rule is silent.
    assert codes("for x in set(items):\n    use(x)\n", path=PLAIN) == []


def test_rl004_identity_keys():
    assert "RL004" in codes("table[id(process)] = x\n")
    assert "RL004" in codes("existing = table.get(id(process))\n")
    assert "RL004" in codes("order[hash(view)] = 1\n")
    assert "RL004" in codes("first = hash(a) < hash(b)\n")
    # The measured hazard: the per-process dispatch registry keyed by id().
    assert codes(
        "existing = cls._instances.get(id(process))\n",
        path="src/repro/toolkit/coordinator_cohort.py",
    ) == ["RL004"]
    # hash() as a return value (defining __hash__) is fine.
    assert codes("def f(self):\n    return hash(frozenset(s))\n") == []


def test_rl006_float_equality_on_time():
    assert "RL006" in codes("if deadline == scheduler.now:\n    pass\n")
    assert "RL006" in codes("ready = t != self._now\n")
    # The measured hazard: a detector deadline compared with ==.
    assert codes(
        "if now == last + self._suspect_after:\n    suspect(address)\n",
        path="src/repro/failure/detector.py",
    ) == ["RL006"]
    assert codes("late = scheduler.now >= deadline\n") == []
    assert codes("if self._join_timer == None:\n    pass\n", path=PLAIN) == []


def test_rl007_scheduler_internals():
    assert "RL007" in codes("import heapq\n")
    assert "RL007" in codes("from heapq import heappush\n")
    # The scheduler itself owns its heap.
    assert codes("import heapq\n", path="src/repro/sim/scheduler.py") == []
    assert codes("t = env.scheduler.now\n") == []


def test_rl008_trace_internals_in_protocol_code():
    assert "RL008" in codes("import repro.trace\n")
    assert "RL008" in codes("import repro.trace.collector\n")
    assert "RL008" in codes("from repro.trace import TraceCollector\n")
    assert "RL008" in codes("from repro.trace.collector import TraceCollector\n")
    assert "RL008" in codes("from repro import trace\n")
    assert "RL008" in codes("span = collector.new_span('x', 'y', 'z')\n")
    assert "RL008" in codes("spans = network.trace.collector.spans()\n")
    # The measured hazard: a suspicion span minted through the collector.
    assert codes(
        "process.env.network.trace.collector.new_span(\n"
        "    'local', 'suspicion', src=process.address)\n",
        path="src/repro/failure/detector.py",
    ) == ["RL008", "RL008"]
    # The guarded-sink idiom is the approved hook surface.
    assert codes(
        "trace = self.process.env.network.trace\n"
        "if trace is not None:\n"
        "    trace.local('suspect', category='membership', process=me)\n"
    ) == []
    # Outside protocol packages (the trace package itself, metrics,
    # tools, tests) the rule is silent.
    assert codes("from repro.trace import TraceCollector\n", path=PLAIN) == []
    assert codes(
        "span = self.collector.new_span('a', 'b', 'c')\n",
        path="src/repro/trace/api.py",
    ) == []


def test_rl009_sim_imports_outside_runtime():
    # The engine boundary: protocol packages must not import repro.sim.
    assert "RL009" in codes("from repro.sim.rand import SimRandom\n")
    assert "RL009" in codes("from repro.sim.scheduler import Scheduler\n")
    assert "RL009" in codes("from repro.sim import Scheduler, SimRandom\n")
    assert "RL009" in codes("import repro.sim\n", path=PLAIN)
    assert "RL009" in codes("import repro.sim.scheduler\n", path=PLAIN)
    assert "RL009" in codes("from repro import sim\n", path=PLAIN)
    assert "RL009" in codes(
        "from repro.sim.scheduler import EventHandle\n",
        path="src/repro/proc/process.py",
    )
    # The simulator itself and the runtime backends are the two homes.
    assert codes(
        "from repro.sim.rand import SimRandom\n", path="src/repro/sim/__init__.py"
    ) == []
    assert codes(
        "from repro.sim.scheduler import Scheduler\n",
        path="src/repro/runtime/sim_backend.py",
    ) == []
    # The engine-contract idiom is the approved import surface.
    assert codes("from repro.runtime.api import SimRandom, TimerService\n") == []
    assert codes("from repro.runtime import AsyncioRuntime, SimRuntime\n") == []
    # There is no per-line escape hatch.
    assert codes("from repro.sim import Scheduler\n") == ["RL009"]


def test_rl010_segment_ack_outside_transport():
    # Acks are the transport's private wire protocol: no layer above may
    # construct one (it would bypass the delayed/piggybacked-ack
    # bookkeeping of docs/comms.md).
    assert "RL010" in codes(
        "from repro.transport.channel import SegmentAck\n"
        "process.send(peer, SegmentAck(cum_seq=5))\n"
    )
    assert "RL010" in codes(
        "import repro.transport.channel as channel\n"
        "ack = channel.SegmentAck(cum_seq=1, epoch=2)\n",
        path=PLAIN,
    )
    # The transport itself is the one approved home.
    assert codes(
        "ack = SegmentAck(cum_seq=state.cum_seq)\n",
        path="src/repro/transport/reliable.py",
    ) == []
    # Receiving/forwarding an ack object is fine — only construction is
    # the transport's privilege.
    assert codes("def _on_ack(self, ack, sender):\n    log(ack.cum_seq)\n") == []
    # The measured hazard: a flush acked by hand from membership.
    assert codes(
        "self.runtime.process.send(\n"
        "    sender, SegmentAck(cum_seq=0, incarnation=0, epoch=0))\n",
    ) == ["RL010"]


HOT = "src/repro/net/network.py"  # a hot-event-loop path


def test_rl011_hot_loop_allocation_escapes():
    # Per-event allocations that *escape* the iteration defeat the
    # zero-allocation discipline: a closure handed to the scheduler …
    assert "RL011" in codes(
        "for e in batch:\n    fabric.at_call(t, lambda: deliver(e))\n",
        path=HOT,
    )
    # … a container stored onto an attribute or shipped out through a
    # call (directly or via a local name the call-graph pass traces) …
    assert "RL011" in codes(
        "for e in batch:\n    self._pending = [e]\n", path=HOT
    )
    assert "RL011" in codes(
        "for e in batch:\n"
        "    dsts = [x.dst for x in group]\n"
        "    fabric.send_many(dsts, e)\n",
        path=HOT,
    )
    assert "RL011" in codes(
        "for e in batch:\n    out.append({e.src: e})\n", path=HOT
    )
    # … or one stored into an attribute-held container or returned.
    assert "RL011" in codes(
        "for e in batch:\n    self.q[e.dst] = [e]\n", path=HOT
    )
    assert "RL011" in codes("for e in batch:\n    return [e]\n", path=HOT)
    # The two measured hazards: a closure per multicast destination, and
    # a fresh list per bucket where the drained one should be recycled.
    assert codes(
        "for dst in dst_list:\n"
        "    fabric.at_call(fabric.now, lambda d: send(src, d, payload, 1), dst)\n",
        path=HOT,
    ) == ["RL011"]
    assert codes(
        "while heap:\n    event.fn(arg)\n    arg_pool.append([])\n",
        path="src/repro/sim/scheduler.py",
    ) == ["RL011"]


def test_rl011_non_escaping_allocations_stay_quiet():
    # Immediately-invoked nested defs die with their iteration.
    assert codes(
        "while heap:\n"
        "    def fire():\n"
        "        pop()\n"
        "    fire()\n",
        path=HOT,
    ) == []
    # Loop-local scratch that never leaves the iteration.
    assert codes(
        "for e in batch:\n    meta = []\n    meta.append(e)\n", path=HOT
    ) == []
    # Arguments consumed in place (sorted/len/heapify …), including the
    # key= lambda sorted itself consumes.
    assert codes(
        "for e in batch:\n    n = len([x for x in group])\n", path=HOT
    ) == []
    assert codes(
        "for e in batch:\n    order = sorted(group, key=lambda m: m.node)\n",
        path=HOT,
    ) == []
    # The amortised compaction idiom — rebuild a list and swap it into
    # an existing local slot — is the escape
    # analysis's headline false-positive kill.
    assert codes(
        "for i in range(n):\n"
        "    live = []\n"
        "    live.append(x)\n"
        "    heapq.heapify(live)\n"
        "    heaps[i] = live\n",
        path=HOT,
    ) == []
    # Allocation-free loop bodies stay quiet.
    assert codes("for e in batch:\n    pool.append(e)\n", path=HOT) == []
    # Outside a loop, allocation is setup cost, not per-event cost.
    assert codes("meta = {}\nbatch = []\n", path=HOT) == []
    # The rule only polices the event core's hot files.
    assert codes("for e in batch:\n    self.q = [e]\n", path=PLAIN) == []
    # A deliberate escape there is a finding too: no per-line escape hatch.
    assert codes("for e in batch:\n    self.q = [e]\n", path=HOT) == ["RL011"]


def test_rl015_wire_serialization_outside_the_wire_layer():
    # One frame format, one place it is written: protocol code that
    # reaches for raw sockets or byte-level serializers is inventing a
    # second, unversioned wire format (docs/deployment.md).
    assert "RL015" in codes("import socket\n")
    assert "RL015" in codes("import struct\n")
    assert "RL015" in codes("from struct import pack\n")
    assert "RL015" in codes("import pickle\n", path=PLAIN)
    assert "RL015" in codes("import marshal\n")
    assert "RL015" in codes("from json import dumps\n", path=PLAIN)
    assert "RL015" in codes("import socket.timeout\n")
    # The wire codec, the socket backend and the deploy control plane
    # are the three approved homes.
    assert codes("import struct\n", path="src/repro/net/wire/codec.py") == []
    assert codes(
        "import socket\n", path="src/repro/runtime/socket_backend.py"
    ) == []
    assert codes("import socket\n", path="src/repro/deploy/tracker.py") == []
    # Speaking payload objects through the network is the approved idiom.
    assert codes("process.send(peer, GroupData(*fields))\n") == []
    # There is no per-line escape hatch.
    assert codes("import json\n") == ["RL015"]


def test_every_rule_has_a_code_and_hint():
    catalogue = [(row.code, row.hint) for row in IMPORT_BOUNDARIES]
    catalogue += [
        (rule.code, rule.hint) for rule in ALL_RULES if rule is not ImportBoundaryRule
    ]
    seen = set()
    for code, hint in catalogue:
        assert code.startswith("RL") and len(code) == 5
        assert hint
        seen.add(code)
    # RL008's import row and attribute visitor share a code; nothing else does.
    assert len(catalogue) - len(seen) == 1


# ------------------------------------------------------------- one mode


def test_any_finding_fails_the_run(tmp_path):
    tree = tmp_path / "src" / "repro" / "membership"
    tree.mkdir(parents=True)
    (tree / "ok.py").write_text("for x in sorted(set(items)):\n    use(x)\n")
    root = [str(tmp_path / "src" / "repro")]
    code, report = run(root, repo_root=tmp_path)
    assert code == 0 and "0 finding(s) — ok" in report
    (tree / "bad.py").write_text("for x in set(items):\n    use(x)\n")
    code, report = run(root, repo_root=tmp_path)
    assert code == 1
    assert "src/repro/membership/bad.py:1:9: RL003" in report
    assert "1 finding(s) — FAIL" in report


def test_live_tree_is_clean_modulo_baseline():
    """The baseline is gone, so there is nothing to be clean modulo of:
    the full run, per-file and whole-program, finds nothing on the tree.
    Its size and time bounds are in test_flow_analysis.py."""
    code, report = run([str(REPO_ROOT / "src" / "repro")], repo_root=REPO_ROOT)
    assert code == 0, f"repro-lint findings on the live tree:\n{report}"
    assert "0 finding(s) — ok" in report


def test_cli_smoke():
    """`python -m tools.lint` with no arguments is what `make lint`,
    `make bench-guard` and `make bench-report` run; it takes no options."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "flow:" in proc.stdout and "call edges" in proc.stdout
    assert "repro-lint" in proc.stdout
    with pytest.raises(SystemExit) as refused:
        main(["--flow"])
    assert refused.value.code == 2
