"""repro-lint engine: read the files, run every rule, report.

Each file is parsed once for the per-file rules, and the same sources
feed the whole-program passes (:mod:`tools.lint.flow`).  Any finding
fails the run: there is no baseline and no per-line suppression — a
rule that misfires is fixed, not silenced.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from tools.lint.flow import analyze_sources
from tools.lint.rules import ALL_RULES, Finding, LintContext


def _order(finding: Finding) -> Tuple:
    return (finding.path, finding.line, finding.col, finding.code, finding.message)


def lint_source(source: str, path: str) -> List[Finding]:
    """Run the per-file rules over one file's source text.  Tests feed
    fixture snippets here."""
    ctx = LintContext.for_path(path)
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
    findings: List[Finding] = []
    for rule_cls in ALL_RULES:
        rule = rule_cls(ctx)
        rule.visit(tree)
        findings.extend(rule.findings)
    return sorted(findings, key=_order)


def iter_python_files(roots: Sequence[str]) -> Iterable[Path]:
    for root in roots:
        root_path = Path(root)
        if root_path.is_file():
            yield root_path
        else:
            yield from sorted(root_path.rglob("*.py"))


def read_sources(
    roots: Sequence[str], repo_root: Optional[Path] = None
) -> List[Tuple[str, str]]:
    """``(repo-relative posix path, source)`` for every .py under roots."""
    repo_root = (repo_root or Path.cwd()).resolve()
    sources = []
    for file_path in iter_python_files(roots):
        try:
            shown = file_path.resolve().relative_to(repo_root).as_posix()
        except ValueError:
            shown = file_path.as_posix()
        sources.append((shown, file_path.read_text(encoding="utf-8")))
    return sources


def run(roots: Sequence[str], repo_root: Optional[Path] = None) -> Tuple[int, str]:
    """Full lint run; returns (exit code, report text)."""
    sources = read_sources(roots, repo_root)
    findings = [f for path, source in sources for f in lint_source(source, path)]
    flow_findings, stats = analyze_sources(sources)
    findings = sorted([*findings, *flow_findings], key=_order)
    lines: List[str] = []
    for finding in findings:
        lines.append(finding.render())
        lines.append(f"    hint: {finding.hint}")
    lines.append(
        f"flow: {stats['functions']} functions, {stats['call_edges']} call edges"
    )
    status = "FAIL" if findings else "ok"
    lines.append(
        f"repro-lint: {len(sources)} files, {len(findings)} finding(s) — {status}"
    )
    return (1 if findings else 0), "\n".join(lines)
