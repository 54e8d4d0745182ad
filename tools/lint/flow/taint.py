"""RL012 — interprocedural determinism taint analysis.

The per-file rules catch a wall-clock read *at the call site*; this pass
catches the same nondeterminism laundered through helpers at any depth.

**Sources** (values that differ across runs or hash seeds):

* wall-clock reads (``time.time`` family, ``datetime.now`` family);
* unseeded stdlib ``random`` / ``secrets`` draws (outside ``sim/rand.py``);
* ``id()`` of an object;
* set/dict-view iteration order (``list(a_set)``, ``next(iter(a_set))``,
  a ``for`` or comprehension over a raw set expression, ``set(...).pop()``).

**Sinks** (places where a nondeterministic value becomes protocol
behaviour):

* scheduler deadlines — the time/delay argument of ``at`` / ``after`` /
  ``at_call`` / ``after_call`` (+ ``_once`` / ``_grouped``
  variants) / ``call_at`` / ``call_later`` / ``set_timer`` / ``every`` /
  ``rearm``;
* message payloads — the payload argument of ``send`` / ``multicast`` /
  ``send_many``, and any :class:`Envelope` constructor field;
* protocol-state mutations — ``self.x = <tainted>`` inside a protocol
  package;
* delivery-digest inputs — arguments fed to a hash/digest ``update``.

Taint propagates through assignments, arithmetic, containers, f-strings
and calls: a function that *returns* a tainted value taints its callers,
and a function that passes a parameter into a sink pulls its callers'
tainted arguments into that sink.  Both directions are computed as
function summaries iterated to a fixpoint, and every finding carries the
full source → sink hop chain so a violation three helpers deep renders
as a readable path.

``sorted(...)`` / ``min`` / ``max`` / ``len`` / ``sum`` cleanse
*set-order* taint (the value no longer depends on iteration order) but
not clock/random/identity taint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from tools.lint.flow.callgraph import Resolver
from tools.lint.flow.symbols import FunctionInfo, Project, _dotted
from tools.lint.rules import Finding, is_set_expr

CODE = "RL012"
HINT = (
    "break the chain at the source: read simulated time (env.scheduler"
    ".now), draw from the seeded env.rng, key by stable identifiers and "
    "sort set iterations — a nondeterministic value must never reach a "
    "deadline, payload, digest or protocol-state sink"
)

# Kinds of nondeterminism; set-order taint is cleansable by sorting.
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# callable name -> index of the deadline/delay argument
SCHED_SINKS = {
    "at": 0,
    "after": 0,
    "at_call": 0,
    "after_call": 0,
    "at_call_once": 0,
    "after_call_once": 0,
    "at_call_grouped": 0,
    "call_at": 0,
    "call_later": 0,
    "set_timer": 0,
    "every": 0,
    "rearm": 1,
}

# Consumers that make a value independent of set-iteration order.
ORDER_SANITIZERS = {"sorted", "min", "max", "len", "sum", "frozenset", "set"}


@dataclass(frozen=True)
class Hop:
    """One step of a source→sink chain."""

    desc: str
    path: str
    line: int

    def render(self) -> str:
        return f"{self.desc} ({self.path}:{self.line})"


Chain = Tuple[Hop, ...]
# A tainted value: (kind, chain) pairs plus parameter indexes whose
# taint would flow here.
Taint = Tuple[Tuple[Tuple[str, Chain], ...], FrozenSet[int]]

_CLEAN: Taint = ((), frozenset())


@dataclass
class Summary:
    """Interprocedural facts about one function."""

    # return value is tainted independent of arguments
    ret_taint: Tuple[Tuple[str, Chain], ...] = ()
    # parameter indexes whose taint propagates to the return value
    param_ret: FrozenSet[int] = frozenset()
    # parameter index -> (sink description, in-callee hops ending at sink)
    param_sink: Dict[int, Tuple[str, Chain]] = field(default_factory=dict)

    def signature(self) -> Tuple:
        return (
            self.ret_taint,
            self.param_ret,
            tuple(sorted((i, c) for i, c in self.param_sink.items())),
        )


class _FunctionPass:
    """One walk over one function: computes its summary and (in the
    reporting pass) the finding list."""

    def __init__(
        self,
        fn: FunctionInfo,
        resolver: Resolver,
        summaries: Dict[str, Summary],
        is_protocol: Callable[[str], bool],
        report: Optional[List[Finding]] = None,
    ) -> None:
        self.fn = fn
        self.resolver = resolver
        self.summaries = summaries
        self.is_protocol = is_protocol
        self.report = report
        self.locals: Dict[str, Taint] = {}
        self.param_index = {name: i for i, name in enumerate(fn.params)}
        self.summary = Summary()
        self._allow_random = fn.module.path.endswith("sim/rand.py")
        self._reported: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------ plumbing

    def _merge(self, *taints: Taint) -> Taint:
        chains: List[Tuple[str, Chain]] = []
        params: Set[int] = set()
        seen = set()
        for tchains, tparams in taints:
            for item in tchains:
                if item not in seen:
                    seen.add(item)
                    chains.append(item)
            params |= tparams
        return tuple(chains), frozenset(params)

    def _source(self, kind: str, desc: str, node: ast.AST) -> Taint:
        hop = Hop(desc, self.fn.path, getattr(node, "lineno", 0))
        return (((kind, (hop,)),), frozenset())

    def _extend(self, taint: Taint, desc: str, node: ast.AST) -> Taint:
        """Append a hop to every chain (value flowed through a call)."""
        chains, params = taint
        if not chains:
            return taint
        hop = Hop(desc, self.fn.path, getattr(node, "lineno", 0))
        return tuple((kind, chain + (hop,)) for kind, chain in chains), params

    # ---------------------------------------------------------- expression

    def eval(self, node: ast.AST) -> Taint:
        if node is None:
            return _CLEAN
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Fallback: merge taint of child expressions.
        parts = [self.eval(child) for child in ast.iter_child_nodes(node)
                 if isinstance(child, ast.expr)]
        return self._merge(*parts) if parts else _CLEAN

    def _eval_Name(self, node: ast.Name) -> Taint:
        found = self.locals.get(node.id)
        if found is not None:
            return found
        index = self.param_index.get(node.id)
        if index is not None:
            return ((), frozenset((index,)))
        return _CLEAN

    def _eval_Constant(self, node: ast.Constant) -> Taint:
        return _CLEAN

    def _eval_Attribute(self, node: ast.Attribute) -> Taint:
        return self.eval(node.value)

    def _eval_Subscript(self, node: ast.Subscript) -> Taint:
        return self._merge(self.eval(node.value), self.eval(node.slice))

    def _eval_Await(self, node: ast.Await) -> Taint:
        return self.eval(node.value)

    def _eval_Lambda(self, node: ast.Lambda) -> Taint:
        return _CLEAN  # the closure itself is not a tainted value

    def _comp(self, node) -> Taint:
        out = _CLEAN
        for gen in node.generators:
            if is_set_expr(gen.iter):
                out = self._merge(
                    out, self._source("set-order", "set-iteration order", gen.iter)
                )
            out = self._merge(out, self.eval(gen.iter))
        return out

    _eval_ListComp = _comp
    _eval_SetComp = _comp
    _eval_GeneratorExp = _comp

    def _eval_DictComp(self, node: ast.DictComp) -> Taint:
        return self._comp(node)

    def _eval_Call(self, node: ast.Call) -> Taint:
        args = [self.eval(a) for a in node.args]
        kwargs = [self.eval(kw.value) for kw in node.keywords]
        arg_taint = self._merge(*args, *kwargs) if (args or kwargs) else _CLEAN
        self._check_sinks(node, args)

        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr

        # direct sources -----------------------------------------------------
        dotted = _dotted(func)
        resolved = self.resolver.project.resolve(self.fn.module, dotted) if dotted else None
        if resolved in WALL_CLOCK:
            return self._merge(
                arg_taint,
                self._source("wall-clock", f"wall-clock {resolved}()", node),
            )
        if (
            resolved is not None
            and resolved.split(".")[0] in ("random", "secrets")
            and not self._allow_random
        ):
            return self._merge(
                arg_taint,
                self._source("random", f"unseeded {resolved}()", node),
            )
        if name == "id" and isinstance(func, ast.Name) and len(node.args) == 1:
            return self._merge(
                arg_taint, self._source("identity", "id() of an object", node)
            )
        if (
            name in ("list", "tuple", "iter")
            and isinstance(func, ast.Name)
            and node.args
            and is_set_expr(node.args[0])
        ):
            return self._merge(
                arg_taint,
                self._source("set-order", f"{name}() over a raw set", node),
            )
        if name == "next" and node.args:
            inner = node.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "iter"
                and inner.args
                and is_set_expr(inner.args[0])
            ):
                return self._merge(
                    arg_taint,
                    self._source("set-order", "next(iter()) of a raw set", node),
                )
        if (
            name == "pop"
            and isinstance(func, ast.Attribute)
            and not node.args
            and is_set_expr(func.value)
        ):
            return self._merge(
                arg_taint, self._source("set-order", "set.pop()", node)
            )

        # order sanitizers cleanse set-order taint only ----------------------
        if name in ORDER_SANITIZERS and isinstance(func, ast.Name):
            chains, params = arg_taint
            chains = tuple(c for c in chains if c[0] != "set-order")
            arg_taint = (chains, params)

        # interprocedural: callee summaries ----------------------------------
        callee = self.resolver.resolve_call(self.fn, node)
        if callee is not None:
            summary = self.summaries.get(callee.qname)
            if summary is not None:
                out = _CLEAN
                if summary.ret_taint:
                    hop = Hop(
                        f"returned by {callee.name}()", self.fn.path, node.lineno
                    )
                    out = self._merge(
                        out,
                        (
                            tuple(
                                (kind, chain + (hop,))
                                for kind, chain in summary.ret_taint
                            ),
                            frozenset(),
                        ),
                    )
                if summary.param_ret:
                    for i, taint in enumerate(args):
                        if i in summary.param_ret and taint != _CLEAN:
                            out = self._merge(
                                out,
                                self._extend(
                                    taint, f"through {callee.name}()", node
                                ),
                            )
                # tainted argument reaching a sink inside the callee
                for i, taint in enumerate(args):
                    entry = summary.param_sink.get(i)
                    if entry is None:
                        continue
                    sink_desc, inner_hops = entry
                    passed = Hop(
                        f"passed into {callee.name}()", self.fn.path, node.lineno
                    )
                    chains, params = taint
                    for kind, chain in chains:
                        self._record_sink(
                            node, sink_desc, kind, chain + (passed,) + inner_hops,
                            complete=True,
                        )
                    for p in params:
                        self._note_param_sink(p, sink_desc, (passed,) + inner_hops)
                return self._merge(out, ((), arg_taint[1]))
        # Unresolved call: taint flows through (the result derives from
        # its arguments).
        return arg_taint

    # --------------------------------------------------------------- sinks

    def _sink_hit(self, node: ast.AST, desc: str, taint: Taint) -> None:
        chains, params = taint
        line = getattr(node, "lineno", 0)
        for kind, chain in chains:
            self._record_sink(node, desc, kind, chain)
        for p in params:
            # The chain recorded for callers ends at this sink site.
            self._note_param_sink(p, desc, (Hop(desc, self.fn.path, line),))

    def _record_sink(
        self,
        node: ast.AST,
        sink_desc: str,
        kind: str,
        chain: Chain,
        complete: bool = False,
    ) -> None:
        """Emit one RL012 finding.  ``complete`` chains (relayed from a
        callee's param_sink summary) already end at the real sink hop;
        direct hits get the sink hop appended here."""
        if self.report is None:
            return
        line = getattr(node, "lineno", 0)
        if not complete:
            chain = chain + (Hop(sink_desc, self.fn.path, line),)
        rendered = " -> ".join(h.render() for h in chain)
        key = (line, rendered)
        if key in self._reported:
            return
        self._reported.add(key)
        self.report.append(
            Finding(
                path=self.fn.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=CODE,
                message=f"{kind} nondeterminism reaches {sink_desc}: {rendered}",
                hint=HINT,
            )
        )

    def _note_param_sink(self, index: int, desc: str, inner: Chain) -> None:
        """Record "parameter ``index`` reaches a sink" with the in-callee
        hop chain (which must already end at the sink hop)."""
        if index in self.summary.param_sink:
            return
        entry = Hop(f"enters {self.fn.name}()", self.fn.path, self.fn.line)
        self.summary.param_sink[index] = (desc, (entry,) + inner)

    def _check_sinks(self, node: ast.Call, args: Sequence[Taint]) -> None:
        func = node.func
        name = None
        receiver = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            receiver = func.value

        if name in SCHED_SINKS and isinstance(func, ast.Attribute):
            index = SCHED_SINKS[name]
            if index < len(args):
                self._sink_hit(
                    node, f"scheduler deadline argument of .{name}()", args[index]
                )
            for kw in node.keywords:
                if kw.arg in ("time", "delay", "interval"):
                    self._sink_hit(
                        node,
                        f"scheduler deadline argument of .{name}()",
                        self.eval(kw.value),
                    )
        if name == "send" and isinstance(func, ast.Attribute):
            index = 1 if len(node.args) == 2 else (2 if len(node.args) == 3 else None)
            if index is not None and index < len(args):
                self._sink_hit(node, "message payload of .send()", args[index])
        if name in ("multicast", "send_many") and isinstance(func, ast.Attribute):
            if len(node.args) >= 2:
                self._sink_hit(node, f"message payload of .{name}()", args[1])
        if name == "update" and receiver is not None:
            rdotted = _dotted(receiver) or ""
            low = rdotted.lower()
            if "hash" in low or "digest" in low:
                if args:
                    self._sink_hit(node, "delivery-digest input", args[0])
        # Envelope construction: payload fields must be deterministic.
        cls = self.resolver.value_class(self.fn, node) if isinstance(
            func, (ast.Name, ast.Attribute)
        ) else None
        if cls is not None and cls.name == "Envelope":
            for taint in args:
                self._sink_hit(node, "Envelope payload field", taint)
            for kw in node.keywords:
                self._sink_hit(node, "Envelope payload field", self.eval(kw.value))

    # ----------------------------------------------------------- statements

    def run(self) -> Summary:
        self._exec_body(self.fn.node.body)
        return self.summary

    def _exec_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            combined = self._merge(self.eval(stmt.target), self.eval(stmt.value))
            self._assign(stmt.target, combined)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                chains, params = self.eval(stmt.value)
                if chains:
                    merged = dict()
                    for item in (*self.summary.ret_taint, *chains):
                        merged.setdefault(item, None)
                    self.summary.ret_taint = tuple(merged)
                if params:
                    self.summary.param_ret = self.summary.param_ret | params
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self.eval(stmt.iter)
            if is_set_expr(stmt.iter):
                iter_taint = self._merge(
                    iter_taint,
                    self._source("set-order", "for-loop over a raw set", stmt.iter),
                )
            self._assign(stmt.target, iter_taint)
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
            self._exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body)
            for handler in stmt.handlers:
                self._exec_body(handler.body)
            self._exec_body(stmt.orelse)
            self._exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs are separate FunctionInfos
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _assign(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            if taint == _CLEAN:
                self.locals.pop(target.id, None)
            else:
                self.locals[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taint)
        elif isinstance(target, ast.Attribute):
            # protocol-state mutation sink: self.x = <tainted> in a
            # protocol package.
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.is_protocol(self.fn.path)
                and taint != _CLEAN
            ):
                chains, params = taint
                desc = f"protocol state self.{target.attr}"
                for kind, chain in chains:
                    self._record_sink(target, desc, kind, chain)
                for p in params:
                    self._note_param_sink(
                        p, desc, (Hop(desc, self.fn.path, target.lineno),)
                    )
        elif isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and self.is_protocol(self.fn.path)
                and taint != _CLEAN
            ):
                chains, params = taint
                desc = f"protocol state self.{base.attr}[...]"
                for kind, chain in chains:
                    self._record_sink(target, desc, kind, chain)
                for p in params:
                    self._note_param_sink(
                        p, desc, (Hop(desc, self.fn.path, target.lineno),)
                    )


def analyze(
    project: Project,
    resolver: Resolver,
    is_protocol: Callable[[str], bool],
    max_rounds: int = 8,
) -> List[Finding]:
    """Run the fixpoint + reporting passes; return RL012 findings."""
    summaries: Dict[str, Summary] = {
        qname: Summary() for qname in project.functions
    }
    for _ in range(max_rounds):
        changed = False
        for qname, fn in project.functions.items():
            walker = _FunctionPass(fn, resolver, summaries, is_protocol)
            new = walker.run()
            if new.signature() != summaries[qname].signature():
                summaries[qname] = new
                changed = True
        if not changed:
            break
    findings: List[Finding] = []
    for fn in project.functions.values():
        _FunctionPass(fn, resolver, summaries, is_protocol, report=findings).run()
    return findings
