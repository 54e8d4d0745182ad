"""RL014 — await-atomicity checking for the wall-clock backend.

Under the discrete-event simulator every callback runs to completion, so
read-modify-write sequences on runtime state are atomic by construction.
On the asyncio backend an ``await`` is a suspension point: another task
can interleave between the read and the write, and the write clobbers
the concurrent update.  The classic shape::

    async def drain_one(self):
        n = self._in_flight          # read
        await self._pump()           # suspension point — others run
        self._in_flight = n - 1      # write of stale value

This pass linearizes every ``async def`` in the analyzed tree into a
sequence of shared-state *loads*, *stores* and *suspension points*
(``await`` / ``async for`` / ``async with``), tracking:

* ``self.attr`` accesses;
* attribute accesses through parameters and through local aliases of
  ``self`` attributes (``timers = self.timers; timers._live``), which
  normalize back to the shared path they alias.

A load of a shared path followed by a suspension point followed by a
store to the same path is flagged at the store, with the read → await →
write chain rendered in the message.  Purely local names never flag, so
counters read inside a polling loop (``while self._live: await
sleep()``) stay quiet — only the stale-write pattern fires.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from tools.lint.flow.symbols import FunctionInfo, Project
from tools.lint.rules import Finding

CODE = "RL014"
HINT = (
    "make the read-modify-write atomic: re-read the shared state after "
    "the await, fold the update into a single assignment before/after "
    "the suspension point, or guard the section so no other task can "
    "interleave — a stale write silently loses concurrent updates"
)

# event kinds in the linearized trace
_LOAD, _STORE, _AWAIT = "load", "store", "await"


class _AsyncScan:
    """Linearize one async function body into shared-state events."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.events: List[Tuple[str, Optional[str], int]] = []
        # local alias -> shared path it names ("timers" -> "self.timers")
        self.aliases: Dict[str, str] = {}
        self.params = set(fn.params)

    def _shared_path(self, node: ast.Attribute) -> Optional[str]:
        """Normalize an attribute access to a shared-state path, or None
        if the base is a purely local name."""
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return f"self.{node.attr}"
            if base.id in self.aliases:
                return f"{self.aliases[base.id]}.{node.attr}"
            if base.id in self.params:
                return f"{base.id}.{node.attr}"
            return None
        if isinstance(base, ast.Attribute):
            inner = self._shared_path(base)
            return f"{inner}.{node.attr}" if inner else None
        return None

    # ----------------------------------------------------------- traversal

    def scan_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.scan_expr(stmt.value)
            # alias tracking: x = self.y
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Attribute)
            ):
                path = self._shared_path(stmt.value)
                if path is not None:
                    self.aliases[stmt.targets[0].id] = path
            for target in stmt.targets:
                self.scan_target(target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
                self.scan_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            # x.attr += v is a load then a store
            if isinstance(stmt.target, ast.Attribute):
                path = self._shared_path(stmt.target)
                if path is not None:
                    self.events.append((_LOAD, path, stmt.target.lineno))
            self.scan_expr(stmt.value)
            self.scan_target(stmt.target)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.AsyncFor):
                self.events.append((_AWAIT, None, stmt.lineno))
            self.scan_expr(stmt.iter)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            if isinstance(stmt, ast.AsyncWith):
                self.events.append((_AWAIT, None, stmt.lineno))
            for item in stmt.items:
                self.scan_expr(item.context_expr)
            self.scan_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.scan_body(stmt.body)
            for handler in stmt.handlers:
                self.scan_body(handler.body)
            self.scan_body(stmt.orelse)
            self.scan_body(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested definitions are scanned as their own functions
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.scan_expr(child)

    def scan_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute):
            path = self._shared_path(target)
            if path is not None:
                self.events.append((_STORE, path, target.lineno))
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                path = self._shared_path(target.value)
                if path is not None:
                    self.events.append((_STORE, path, target.value.lineno))
            self.scan_expr(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.scan_target(element)

    def scan_expr(self, node: ast.AST) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Await):
                self.events.append((_AWAIT, None, sub.lineno))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                path = self._shared_path(sub)
                if path is not None:
                    self.events.append((_LOAD, path, sub.lineno))


def analyze(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for fn in project.functions.values():
        if not fn.is_async:
            continue
        scan = _AsyncScan(fn)
        scan.scan_body(fn.node.body)
        events = scan.events
        # last load line per path seen before the most recent await
        reported = set()
        for i, (kind, path, line) in enumerate(events):
            if kind != _STORE or path in reported:
                continue
            # find a load of the same path earlier, with an await between
            await_line = None
            load_line = None
            for j in range(i - 1, -1, -1):
                prev_kind, prev_path, prev_line = events[j]
                if prev_kind == _AWAIT and await_line is None:
                    await_line = prev_line
                elif prev_kind == _LOAD and prev_path == path:
                    if await_line is not None:
                        load_line = prev_line
                        break
                    # a load after the last await re-reads fresh state:
                    # the read-modify-write does not span a suspension.
                    break
            if load_line is None or await_line is None:
                continue
            reported.add(path)
            p = fn.path
            findings.append(
                Finding(
                    path=p,
                    line=line,
                    col=0,
                    code=CODE,
                    message=(
                        f"read-modify-write of shared {path} spans an await in "
                        f"async {fn.name}(): read ({p}:{load_line}) -> await "
                        f"({p}:{await_line}) -> stale write ({p}:{line})"
                    ),
                    hint=HINT,
                )
            )
    return findings
