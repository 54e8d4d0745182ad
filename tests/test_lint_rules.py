"""repro-lint: every rule catches its seeded violation fixture, clean
idioms stay quiet, suppression and baseline work, and the live tree is
clean modulo the checked-in baseline."""

import subprocess
import sys
import textwrap
from pathlib import Path

from tools.lint import lint_source, load_baseline, new_findings, run
from tools.lint.engine import DEFAULT_BASELINE
from tools.lint.rules import ALL_RULES

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
    # hash() as a return value (defining __hash__) is fine.
    assert codes("def f(self):\n    return hash(frozenset(s))\n") == []


def test_rl005_mutable_defaults():
    assert "RL005" in codes("def f(x, acc=[]):\n    pass\n")
    assert "RL005" in codes("def f(x, acc={}):\n    pass\n")
    assert "RL005" in codes("def f(x, acc=set()):\n    pass\n")
    assert "RL005" in codes("def f(x, *, acc=dict()):\n    pass\n")
    assert codes("def f(x, acc=None):\n    pass\n") == []
    assert codes("def f(x, acc=()):\n    pass\n") == []


def test_rl006_float_equality_on_time():
    assert "RL006" in codes("if deadline == scheduler.now:\n    pass\n")
    assert "RL006" in codes("ready = t != self._now\n")
    assert codes("late = scheduler.now >= deadline\n") == []
    assert codes("if self._join_timer == None:\n    pass\n", path=PLAIN) == []


def test_rl007_scheduler_internals():
    assert "RL007" in codes("import heapq\n")
    assert "RL007" in codes("from heapq import heappush\n")
    assert "RL007" in codes("evts = env.scheduler._heap\n")
    assert "RL007" in codes("n = scheduler._seq\n")
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
    # Per-line disable still works for judged exceptions.
    assert codes(
        "from repro.sim import Scheduler  # repro-lint: disable=RL009\n"
    ) == []


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
    # Per-line disable still works for judged exceptions.
    assert codes(
        "ack = SegmentAck(cum_seq=0)  # repro-lint: disable=RL010\n"
    ) == []


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


def test_rl011_non_escaping_allocations_stay_quiet():
    # Immediately-invoked nested defs die with their iteration: the old
    # syntactic rule needed a disable comment here, the escape analysis
    # does not.
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
    # Judged deliberate escapes are waved through explicitly.
    assert codes(
        "for e in batch:\n"
        "    self.q = [e]  # repro-lint: disable=RL011\n",
        path=HOT,
    ) == []


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
    # Per-line disable still works for judged exceptions.
    assert codes("import json  # repro-lint: disable=RL015\n") == []


def test_every_rule_has_a_code_and_hint():
    seen = set()
    for rule in ALL_RULES:
        assert rule.code.startswith("RL") and len(rule.code) == 5
        assert rule.code not in seen
        assert rule.hint
        seen.add(rule.code)


# ------------------------------------------------- suppression & baseline


def test_per_line_suppression():
    src = "for x in set(items):  # repro-lint: disable=RL003\n    use(x)\n"
    assert codes(src) == []
    # Suppressing a different code does not silence the finding.
    src = "for x in set(items):  # repro-lint: disable=RL004\n    use(x)\n"
    assert codes(src) == ["RL003"]


def test_suppression_covers_multiline_statements():
    # A disable comment on the first physical line of a wrapped statement
    # silences findings reported on its continuation lines — rules anchor
    # findings at the offending sub-expression, which after black-style
    # wrapping is rarely the line carrying the comment.
    src = (
        "table = {  # repro-lint: disable=RL004\n"
        "    id(member): member\n"
        "}\n"
    )
    assert codes(src) == []
    # Without the comment the continuation line still fires.
    src = "table = {\n    id(member): member\n}\n"
    assert codes(src) == ["RL004"]
    # The spread stops at the statement: the next statement is not
    # covered by the previous one's comment.
    src = (
        "table = {  # repro-lint: disable=RL004\n"
        "    id(member): member\n"
        "}\n"
        "other = id(peer)\n"
    )
    assert codes(src) == ["RL004"]
    # Compound statements spread only over their own header, never into
    # the body.
    src = (
        "for x in (  # repro-lint: disable=RL003\n"
        "    set(items)\n"
        "):\n"
        "    y = id(x)\n"
        "    use(y)\n"
    )
    assert codes(src) == ["RL004"]


def test_baseline_grandfathers_existing_findings(tmp_path):
    bad = tmp_path / "src" / "repro" / "membership" / "old.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("for x in set(items):\n    use(x)\n")
    root = [str(tmp_path / "src" / "repro")]
    # No baseline: the finding is a failure.
    code, report = run(root, baseline_path=tmp_path / "b.json", repo_root=tmp_path)
    assert code == 1 and "RL003" in report
    # Record it, then the same tree passes...
    code, _ = run(
        root,
        baseline_path=tmp_path / "b.json",
        update_baseline=True,
        repo_root=tmp_path,
    )
    assert code == 0
    code, report = run(root, baseline_path=tmp_path / "b.json", repo_root=tmp_path)
    assert code == 0 and "grandfathered" in report
    # ...until the bucket grows: a second violation in the file fails.
    bad.write_text(
        "for x in set(items):\n    use(x)\nfor y in set(more):\n    use(y)\n"
    )
    code, report = run(root, baseline_path=tmp_path / "b.json", repo_root=tmp_path)
    assert code == 1


def test_check_baseline_fails_on_stale_entries(tmp_path):
    # Grandfathered debt that has been paid off must leave the baseline,
    # or the bucket could silently regrow back up to its stale count.
    bad = tmp_path / "src" / "repro" / "membership" / "old.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("for x in set(items):\n    use(x)\n")
    root = [str(tmp_path / "src" / "repro")]
    run(
        root,
        baseline_path=tmp_path / "b.json",
        update_baseline=True,
        repo_root=tmp_path,
    )
    # Pay off the debt: the plain run passes, but --check-baseline
    # demands the baseline shrink too.
    bad.write_text("for x in ordered(items):\n    use(x)\n")
    code, _ = run(root, baseline_path=tmp_path / "b.json", repo_root=tmp_path)
    assert code == 0
    code, report = run(
        root,
        baseline_path=tmp_path / "b.json",
        repo_root=tmp_path,
        check_baseline=True,
    )
    assert code == 1
    assert "stale baseline entry" in report
    assert "membership/old.py::RL003" in report
    # Regenerating the baseline clears the staleness.
    run(
        root,
        baseline_path=tmp_path / "b.json",
        update_baseline=True,
        repo_root=tmp_path,
    )
    code, _ = run(
        root,
        baseline_path=tmp_path / "b.json",
        repo_root=tmp_path,
        check_baseline=True,
    )
    assert code == 0


# ------------------------------------------------------------- live tree


def test_live_tree_is_clean_modulo_baseline():
    code, report = run(
        [str(REPO_ROOT / "src" / "repro")],
        baseline_path=DEFAULT_BASELINE,
        repo_root=REPO_ROOT,
    )
    assert code == 0, f"repro-lint regressions:\n{report}"


def test_checked_in_baseline_is_empty():
    """The tree was scrubbed in this PR; keep it that way.  If you must
    grandfather a finding, document it in docs/devtools.md."""
    assert load_baseline(DEFAULT_BASELINE) == {}


def test_cli_smoke():
    """Tier-1 gate: `python -m tools.lint src/repro` must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-lint" in proc.stdout
