"""tools/trace_report.py: the traced hierarchy demo audits E1's message
claim (2r on a hierarchical leaf, 2n on a flat group), exports valid
Chrome trace-event JSON, and is reproducible from the seed alone."""

import json

from tests.test_perf_determinism import python_under_hash_seed
from tools.trace_report import CC_CATEGORIES, main, run_demo


def test_demo_audits_e1_and_e8():
    report = run_demo(seed=7, workers=12)
    request = report["request"]
    # E1 with the paper's cohort bound: the request involves the leaf's
    # cohort set (its first r = resiliency members), not the whole leaf —
    # 2r messages (r requests + 1 reply + r-1 result copies).
    assert request["leaf_size"] > request["cohort_set"] == 3
    assert request["cc_messages"] == 2 * request["cohort_set"]
    assert request["e1_match"] is True
    by_category = request["sends_by_category"]
    assert by_category["cc-request"] == 3
    assert by_category["cc-reply"] == 1
    assert by_category["cc-result"] == 2
    assert set(by_category) <= set(CC_CATEGORIES)
    # The request's critical path is client -> coordinator -> fan-out.
    assert request["hops"] == 2

    # E8: the treecast reaches everyone in the planned number of stages;
    # the critical path walks down the tree and back up the ack path.
    treecast = report["treecast"]
    assert treecast["stages"] >= 1
    assert treecast["hops"] >= 2
    assert treecast["sends"] >= 12  # every worker hears the broadcast


def test_demo_chrome_export_is_valid():
    report = run_demo(seed=7, workers=12)
    doc = report["chrome"]
    # Round-trips through JSON (the CLI writes exactly this).
    reparsed = json.loads(json.dumps(doc))
    events = reparsed["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert {"M", "X"} <= phases
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_cli_writes_export_and_reports_match(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code = main(["--workers", "12", "--seed", "7", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "MATCH" in printed and "MISMATCH" not in printed
    assert "critical path" in printed
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_same_seed_demo_exports_identical():
    """Two fresh processes, same seed, two different hash seeds:
    byte-identical Chrome exports (the acceptance criterion for trace
    determinism)."""
    code = (
        "import hashlib, json;"
        "from tools.trace_report import run_demo;"
        "doc = run_demo(seed=11, workers=10)['chrome'];"
        "blob = json.dumps(doc, sort_keys=True).encode();"
        "print(hashlib.sha256(blob).hexdigest())"
    )
    digests = [python_under_hash_seed(seed, code) for seed in (0, 1)]
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64
