"""Whole-program (interprocedural) analysis layer for repro-lint.

Two passes over a project-wide symbol table + call graph:

* **RL012** — determinism taint: set-order / identity / wall-clock /
  unseeded-random values tracked through helpers into scheduler
  deadlines, message payloads, protocol state and digest inputs,
  reported with the full source → sink call chain
  (:mod:`tools.lint.flow.taint`);
* **RL013** — handler exhaustiveness: every wire-sent message kind has a
  registered handler, and no handler is dead
  (:mod:`tools.lint.flow.handlers`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from tools.lint.flow import handlers, taint
from tools.lint.flow.callgraph import Resolver, build_call_graph
from tools.lint.flow.symbols import Project
from tools.lint.rules import Finding, is_protocol


def analyze_sources(files: Sequence[Tuple[str, str]]) -> Tuple[List[Finding], Dict]:
    """Run the flow passes over ``(repo-relative path, source)`` pairs;
    returns the findings and the model's size (functions, call edges)."""
    project = Project()
    for path, source in files:
        project.add_module(path, source)
    resolver = Resolver(project)
    findings = [
        *taint.analyze(project, resolver, is_protocol),
        *handlers.analyze(project, resolver),
    ]
    stats = {
        "functions": len(project.functions),
        "call_edges": len(build_call_graph(project, resolver)),
    }
    return findings, stats
