"""Whole-program passes (RL012/RL013): each fires on its seeded fixture
— the hazard docs/devtools.md measured it on among them — with a full
source→sink chain, clean idioms stay quiet, and the live tree is clean
within its time bound.  The passes always run: the lint has one mode."""

import re
import time
from pathlib import Path

from tools.lint.__main__ import main
from tools.lint.engine import read_sources
from tools.lint.flow import analyze_sources

REPO_ROOT = Path(__file__).resolve().parent.parent


def _codes(findings):
    return [f.code for f in findings]


# ------------------------------------------------------ RL012 taint chains


def test_rl012_taint_through_three_deep_helper_chain():
    # A wall-clock read laundered through two cross-module helpers must
    # still be caught at the scheduler sink, with every hop rendered.
    helpers = (
        "import time\n"
        "\n"
        "\n"
        "def read_clock():\n"
        "    t = time.monotonic()\n"
        "    return t\n"
    )
    mid = (
        "from repro.util.helpers import read_clock\n"
        "\n"
        "\n"
        "def jitter():\n"
        "    return read_clock() * 0.5\n"
    )
    proto = (
        "from repro.util.mid import jitter\n"
        "\n"
        "\n"
        "class Pinger:\n"
        "    def arm(self, scheduler, cb):\n"
        "        delay = jitter()\n"
        "        scheduler.after_call(delay, cb)\n"
    )
    findings, _ = analyze_sources(
        [
            ("src/repro/util/helpers.py", helpers),
            ("src/repro/util/mid.py", mid),
            ("src/repro/membership/proto.py", proto),
        ]
    )
    assert _codes(findings) == ["RL012"]
    message = findings[0].message
    assert "wall-clock" in message
    assert "time.monotonic()" in message
    # every hop of the chain is rendered with its location
    assert "read_clock()" in message and "helpers.py" in message
    assert "jitter()" in message and "mid.py" in message
    assert "scheduler deadline argument" in message
    assert message.count("->") >= 3


def test_rl012_sanitizers_and_ordered_views_stay_quiet():
    # sorted() launders set-order taint; dict .items() iteration is
    # insertion-ordered and is not a source at all.
    clean = (
        "class View:\n"
        "    def __init__(self):\n"
        "        self.members = {}\n"
        "\n"
        "    def roster(self, scheduler, cb):\n"
        "        order = sorted(set(self.members))\n"
        "        for name, state in self.members.items():\n"
        "            self.last = name\n"
        "        scheduler.after_call(len(order), cb)\n"
    )
    findings, _ = analyze_sources([("src/repro/membership/view.py", clean)])
    assert findings == []


def test_rl012_set_order_reaching_protocol_state():
    tainted = (
        "class View:\n"
        "    def pick(self):\n"
        "        for peer in set(self.peers):\n"
        "            self.leader = peer\n"
        "            break\n"
    )
    findings, _ = analyze_sources([("src/repro/membership/view.py", tainted)])
    assert _codes(findings) == ["RL012"]
    assert "set-order" in findings[0].message
    assert "protocol state" in findings[0].message


def test_rl012_set_order_outside_protocol_packages():
    # The measured hazard: Process.multicast de-duplicating through a
    # set.  proc/ is outside RL003's protocol packages, so only the taint
    # pass sees the hash-ordered destination list reach the network.
    process = (
        "class Process:\n"
        "    def multicast(self, dsts, payload):\n"
        "        self._network.multicast(self.address, list(set(dsts)), payload)\n"
    )
    findings, _ = analyze_sources([("src/repro/proc/process.py", process)])
    assert _codes(findings) == ["RL012"]
    assert "set-order" in findings[0].message
    assert "list() over a raw set (src/repro/proc/process.py:3)" in findings[0].message


# -------------------------------------------------- RL013 handler census


_KINDS = (
    "class PingProbe:\n"
    "    def __init__(self, n):\n"
    "        self.n = n\n"
    "\n"
    "\n"
    "class RetiredMsg:\n"
    "    pass\n"
)


def test_rl013_unhandled_kind_and_dead_handler():
    layer = (
        "from repro.proto.kinds import PingProbe, RetiredMsg\n"
        "\n"
        "\n"
        "class Prober:\n"
        "    def __init__(self, process):\n"
        "        self._process = process\n"
        "        process.on(RetiredMsg, self._on_retired)\n"
        "\n"
        "    def probe(self, dst):\n"
        "        self._process.send(dst, PingProbe(1))\n"
        "\n"
        "    def _on_retired(self, payload, sender):\n"
        "        pass\n"
    )
    findings, _ = analyze_sources(
        [("src/repro/proto/kinds.py", _KINDS), ("src/repro/proto/layer.py", layer)]
    )
    assert _codes(findings) == ["RL013", "RL013"]
    by_message = sorted(f.message for f in findings)
    assert "dead handler: RetiredMsg" in by_message[0]
    assert "PingProbe has no registered handler" in by_message[1]
    # the census cites both the construction and the send site
    assert "constructed at" in by_message[1] and "sent at" in by_message[1]
    # The measured hazard: a kind sent as a module constant whose
    # registration was dropped (the detector's Probe).
    detector = (
        "from repro.proto.kinds import PingProbe\n"
        "\n"
        "_PROBE = PingProbe(1)\n"
        "\n"
        "\n"
        "class Detector:\n"
        "    def __init__(self, process):\n"
        "        self._process = process\n"
        "\n"
        "    def probe(self, address):\n"
        "        self._process.send(address, _PROBE)\n"
    )
    findings, _ = analyze_sources(
        [("src/repro/proto/kinds.py", _KINDS), ("src/repro/proto/detector.py", detector)]
    )
    assert _codes(findings) == ["RL013"]
    assert "PingProbe has no registered handler" in findings[0].message


def test_rl013_registered_and_sent_kind_is_quiet():
    layer = (
        "from repro.proto.kinds import PingProbe\n"
        "\n"
        "\n"
        "class Prober:\n"
        "    def __init__(self, process):\n"
        "        self._process = process\n"
        "        process.on(PingProbe, self._on_probe)\n"
        "\n"
        "    def probe(self, dst):\n"
        "        self._process.send(dst, PingProbe(1))\n"
        "\n"
        "    def _on_probe(self, payload, sender):\n"
        "        pass\n"
    )
    findings, _ = analyze_sources(
        [("src/repro/proto/kinds.py", _KINDS), ("src/repro/proto/layer.py", layer)]
    )
    assert _codes(findings) == []


def test_rl013_census_covers_control_endpoint_sends():
    # The deploy tracker's UDP control plane dispatches by payload class
    # exactly like Process: a kind sent through a ControlEndpoint with no
    # handler registered anywhere is the same silent protocol hole.
    kinds = "class StatusPing:\n    pass\n"
    unhandled = (
        "from repro.proto.kinds import StatusPing\n"
        "\n"
        "\n"
        "class Reporter:\n"
        "    def __init__(self, endpoint):\n"
        "        self._endpoint = endpoint\n"
        "\n"
        "    def ping(self, peer):\n"
        "        self._endpoint.send(peer, StatusPing())\n"
    )
    findings, _ = analyze_sources(
        [
            ("src/repro/proto/kinds.py", kinds),
            ("src/repro/proto/reporter.py", unhandled),
        ]
    )
    assert _codes(findings) == ["RL013"]
    assert "StatusPing has no registered handler" in findings[0].message

    handled = unhandled.replace(
        "        self._endpoint = endpoint\n",
        "        self._endpoint = endpoint\n"
        "        endpoint.on(StatusPing, self._on_ping)\n",
    ) + "\n    def _on_ping(self, payload, sender):\n        pass\n"
    findings, _ = analyze_sources(
        [
            ("src/repro/proto/kinds.py", kinds),
            ("src/repro/proto/reporter.py", handled),
        ]
    )
    assert _codes(findings) == []


# ------------------------------------------------------------ live tree


def test_live_tree_is_flow_clean_and_fast():
    started = time.perf_counter()
    findings, stats = analyze_sources(
        read_sources([str(REPO_ROOT / "src" / "repro")], REPO_ROOT)
    )
    elapsed = time.perf_counter() - started
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"flow findings on the live tree:\n{rendered}"
    # non-vacuity: the model actually resolved the tree
    assert stats["functions"] > 500
    assert stats["call_edges"] > 400
    # acceptance bound: whole-program pass stays well under 10 s
    assert elapsed < 10.0


def test_cli_flow_smoke(monkeypatch, capsys):
    """The flow passes need no option: the bare CLI runs them and prints
    the model's size."""
    monkeypatch.chdir(REPO_ROOT)
    assert main([]) == 0
    out = capsys.readouterr().out
    stats = re.search(r"flow: (\d+) functions, (\d+) call edges", out)
    assert stats, out
    assert int(stats.group(1)) > 500 and int(stats.group(2)) > 400
