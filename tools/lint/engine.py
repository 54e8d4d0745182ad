"""repro-lint engine: file walking, suppression, baseline, reporting.

The engine parses each file once, runs every rule visitor over the tree,
drops findings on lines carrying ``# repro-lint: disable=RLxxx`` and then
compares what remains against a *baseline* file.  The baseline records
grandfathered findings as ``path::code -> count``; the lint fails only
when a (path, code) bucket **exceeds** its grandfathered count, so CI
catches regressions without forcing an archaeology PR first.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tools.lint.rules import ALL_RULES, Finding, LintContext

# Packages whose iteration order is protocol-visible (RL003 scope): a
# nondeterministic loop here changes which message goes out first.
PROTOCOL_PACKAGES = {
    "broadcast",
    "clocks",
    "core",
    "failure",
    "membership",
    "net",
    "toolkit",
    "transport",
}

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _context_for(path: str) -> LintContext:
    """Derive per-file rule switches from the repo-relative path."""
    posix = path.replace("\\", "/")
    parts = posix.split("/")
    package = None
    if "repro" in parts:
        idx = parts.index("repro")
        if idx + 1 < len(parts) - 1:
            package = parts[idx + 1]
    return LintContext(
        path=posix,
        is_protocol=package in PROTOCOL_PACKAGES,
        allow_random=posix.endswith("sim/rand.py"),
        allow_scheduler_internals=posix.endswith("sim/scheduler.py"),
        # RL011 scope: the event-core hot loops where per-event
        # allocations are a measured regression, not a style nit.
        hot_event_loop=posix.endswith(("sim/scheduler.py", "net/network.py")),
        # RL009 boundary: the simulator itself and the runtime backends
        # are the only homes of repro.sim imports.
        allow_sim_import=package in ("sim", "runtime"),
        # RL010 boundary: only the transport constructs its own acks.
        allow_segment_ack=package == "transport",
        # RL015 boundary: raw sockets and byte-level serialization are
        # confined to the wire codec, the socket backend and the deploy
        # control plane — one frame format, one place it is written.
        allow_wire_serialization=(
            "/net/wire/" in posix
            or posix.endswith("runtime/socket_backend.py")
            or package == "deploy"
        ),
    )


def _suppressed_lines(source: str, tree: Optional[ast.AST] = None) -> Dict[int, set]:
    """Map line number -> set of codes disabled on that line.

    With a parsed ``tree``, a ``disable=`` comment on the *first physical
    line* of a multi-line statement covers the statement's continuation
    lines too — rules report findings at the sub-expression's line, which
    for a wrapped call is not the line carrying the comment.  Compound
    statements (``for``/``if``/``def`` …) only extend over their own
    header, never into their body.
    """
    out: Dict[int, set] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            out[lineno] = codes
    if tree is not None and out:
        _extend_suppressions(tree, out)
    return out


def _extend_suppressions(tree: ast.AST, out: Dict[int, set]) -> None:
    """Spread first-line ``disable=`` codes over statement continuations."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        codes = out.get(node.lineno)
        if not codes:
            continue
        body = getattr(node, "body", None)
        if body:  # compound statement: cover the header only
            first = body[0]
            end = getattr(first, "lineno", node.lineno) - 1
        else:
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for lineno in range(node.lineno + 1, end + 1):
            out.setdefault(lineno, set()).update(codes)


def lint_source(
    source: str,
    path: str,
    ctx: Optional[LintContext] = None,
) -> List[Finding]:
    """Lint one file's source text.  Tests feed fixture snippets here."""
    if ctx is None:
        ctx = _context_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=ctx.path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                code="RL000",
                message=f"syntax error: {exc.msg}",
                hint="fix the syntax error",
            )
        ]
    suppressed = _suppressed_lines(source, tree)
    findings: List[Finding] = []
    for rule_cls in ALL_RULES:
        rule = rule_cls(ctx)
        rule.visit(tree)
        for finding in rule.findings:
            if finding.code in suppressed.get(finding.line, ()):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(roots: Sequence[str]) -> Iterable[Path]:
    for root in roots:
        root_path = Path(root)
        if root_path.is_file():
            yield root_path
        else:
            yield from sorted(root_path.rglob("*.py"))


def lint_paths(roots: Sequence[str], repo_root: Optional[Path] = None) -> List[Finding]:
    """Lint every .py file under the given roots."""
    repo_root = repo_root or Path.cwd()
    findings: List[Finding] = []
    for file_path in iter_python_files(roots):
        try:
            relative = file_path.resolve().relative_to(repo_root.resolve())
            shown = relative.as_posix()
        except ValueError:
            shown = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, shown))
    return findings


# ----------------------------------------------------------------- baseline


def load_baseline(path: Path) -> Dict[str, int]:
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    return {str(k): int(v) for k, v in data.get("grandfathered", {}).items()}


def save_baseline(path: Path, findings: Sequence[Finding]) -> None:
    counts: Dict[str, int] = {}
    for finding in findings:
        key = f"{finding.path}::{finding.code}"
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "comment": (
            "Grandfathered repro-lint findings (path::code -> count). "
            "CI fails only when a bucket exceeds its count here; shrink "
            "freely, grow never.  Regenerate with "
            "`python -m tools.lint src/repro --update-baseline`."
        ),
        "grandfathered": dict(sorted(counts.items())),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def new_findings(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> Tuple[List[Finding], List[str]]:
    """Split findings into (regressions, fully-grandfathered buckets).

    A bucket at or under its grandfathered count reports nothing; a bucket
    over it reports *all* its findings (we cannot tell old from new by
    line number across refactors, so the whole bucket surfaces).
    """
    buckets: Dict[str, List[Finding]] = {}
    for finding in findings:
        buckets.setdefault(f"{finding.path}::{finding.code}", []).append(finding)
    regressions: List[Finding] = []
    grandfathered: List[str] = []
    for key, bucket in sorted(buckets.items()):
        allowed = baseline.get(key, 0)
        if len(bucket) > allowed:
            regressions.extend(bucket)
        else:
            grandfathered.append(f"{key} ({len(bucket)} grandfathered)")
    return regressions, grandfathered


def render_report(
    regressions: Sequence[Finding],
    grandfathered: Sequence[str],
    total_files: int,
) -> str:
    lines: List[str] = []
    for finding in regressions:
        lines.append(finding.render())
        lines.append(f"    hint: {finding.hint}")
    for note in grandfathered:
        lines.append(f"grandfathered: {note}")
    status = "FAIL" if regressions else "ok"
    lines.append(
        f"repro-lint: {total_files} files, {len(regressions)} new finding(s), "
        f"{len(grandfathered)} grandfathered bucket(s) — {status}"
    )
    return "\n".join(lines)


def stale_baseline_entries(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> List[str]:
    """Baseline buckets that no longer fire at all (count 0 in the
    current tree): grandfathered debt that has been paid off must leave
    the baseline so it can never silently regrow."""
    live: Dict[str, int] = {}
    for finding in findings:
        key = f"{finding.path}::{finding.code}"
        live[key] = live.get(key, 0) + 1
    return sorted(key for key in baseline if live.get(key, 0) == 0)


def run(
    roots: Sequence[str],
    baseline_path: Optional[Path] = None,
    update_baseline: bool = False,
    repo_root: Optional[Path] = None,
    flow: bool = False,
    check_baseline: bool = False,
) -> Tuple[int, str]:
    """Full lint run; returns (exit_code, report_text).

    ``flow=True`` adds the whole-program passes (RL012–RL014) on top of
    the per-file rules; their findings ride the same suppression and
    baseline machinery.  ``check_baseline=True`` additionally fails on
    stale baseline entries (grandfathered buckets that no longer fire).
    """
    baseline_path = baseline_path or DEFAULT_BASELINE
    files = list(iter_python_files(roots))
    findings = lint_paths(roots, repo_root=repo_root)
    flow_note = ""
    if flow:
        from tools.lint.flow import analyze_paths

        flow_findings, flow_stats = analyze_paths(roots, repo_root=repo_root)
        findings = sorted(
            [*findings, *flow_findings],
            key=lambda f: (f.path, f.line, f.col, f.code),
        )
        flow_note = (
            f"flow: {flow_stats['functions']} functions, "
            f"{flow_stats['call_edges']} call edges, "
            f"{flow_stats['findings']} finding(s) in "
            f"{flow_stats['elapsed_seconds']}s\n"
        )
    if update_baseline:
        save_baseline(baseline_path, findings)
        return 0, (
            f"repro-lint: baseline rewritten with {len(findings)} finding(s) "
            f"at {baseline_path}"
        )
    baseline = load_baseline(baseline_path)
    regressions, grandfathered = new_findings(findings, baseline)
    report = render_report(regressions, grandfathered, total_files=len(files))
    exit_code = 1 if regressions else 0
    if check_baseline:
        stale = stale_baseline_entries(findings, baseline)
        if stale:
            stale_lines = "\n".join(f"stale baseline entry: {key}" for key in stale)
            report = (
                f"{stale_lines}\n"
                f"{report}\n"
                "repro-lint: baseline hygiene FAIL — entries above no longer "
                "fire; shrink the baseline (rerun with --update-baseline)"
            )
            exit_code = 1
    return exit_code, flow_note + report
