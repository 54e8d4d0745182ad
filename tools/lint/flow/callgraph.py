"""Call-graph construction and call-site resolution.

The resolver answers "which project function does this :class:`ast.Call`
land in?" for the dispatch shapes the tree actually uses:

* plain calls of module functions and classes (a class call resolves to
  its ``__init__``);
* ``self.method(...)`` with base-class lookup;
* ``self._attr.method(...)`` through the class's harvested
  attribute-type map (``self._process = process`` + the ``process:
  Process`` annotation);
* ``param.method(...)`` / ``local.method(...)`` through parameter
  annotations and ``x = Class(...)`` local assignments;
* ``Class.method`` bound-method references.

:func:`build_call_graph` also counts *callback registration* edges (a
function reference handed to ``at_call`` / ``on`` / ``set_timer`` /
``functools.partial`` … is an eventual call); the CLI prints the edge
count as evidence that resolution still reaches the tree.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set, Tuple

from tools.lint.flow.symbols import ClassInfo, FunctionInfo, Project, _dotted

# Methods whose function-reference arguments are eventually invoked:
# scheduler/timer entry points, network taps, process dispatch, and the
# runtime's registration hooks.
CALLBACK_REGISTRARS = {
    "at",
    "after",
    "at_call",
    "after_call",
    "at_call_once",
    "after_call_once",
    "at_call_grouped",
    "call_at",
    "call_later",
    "call_soon",
    "set_timer",
    "every",
    "rearm",
    "add_tap",
    "on",
    "replace_handler",
    "add_recover_listener",
    "add_delivery_listener",
    "add_listener",
    "partial",
}


class Resolver:
    """Best-effort static resolution of call sites and value types."""

    def __init__(self, project: Project) -> None:
        self.project = project
        # per-function local var -> class dotted name (module-local spelling)
        self._local_types: Dict[str, Dict[str, str]] = {}

    # -------------------------------------------------------------- typing

    def local_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """``x = Class(...)`` / annotated-param types for one function,
        as *resolved class qnames*."""
        cached = self._local_types.get(fn.qname)
        if cached is not None:
            return cached
        mod = fn.module
        types: Dict[str, str] = {}
        for pname, dotted in fn.param_types.items():
            cls = self.project.resolve_class(mod, dotted)
            if cls is not None:
                types[pname] = cls.qname
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call):
                cls = self.project.resolve_class(mod, _dotted(value.func))
                if cls is not None:
                    types[target.id] = cls.qname
            elif isinstance(value, ast.Name) and value.id in types:
                types[target.id] = types[value.id]
        self._local_types[fn.qname] = types
        return types

    def owner_class(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_qname is None:
            return None
        return self.project.classes.get(fn.class_qname)

    def value_class(self, fn: FunctionInfo, expr: ast.AST) -> Optional[ClassInfo]:
        """Resolve the class of a value expression, best effort."""
        project = self.project
        mod = fn.module
        if isinstance(expr, ast.Call):
            return project.resolve_class(mod, _dotted(expr.func))
        if isinstance(expr, ast.Name):
            qname = self.local_types(fn).get(expr.id)
            if qname is not None:
                return project.classes.get(qname)
            const = mod.constant_types.get(expr.id)
            if const is not None:
                return project.resolve_class(mod, const)
            return None
        if isinstance(expr, ast.Attribute):
            base_cls = self.value_class(fn, expr.value) if not (
                isinstance(expr.value, ast.Name) and expr.value.id == "self"
            ) else self.owner_class(fn)
            if base_cls is not None:
                attr_dotted = base_cls.attr_types.get(expr.attr)
                if attr_dotted is not None:
                    return project.resolve_class(base_cls.module, attr_dotted)
        return None

    # ----------------------------------------------------------- call sites

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> Optional[FunctionInfo]:
        """The project function a call lands in, or None."""
        return self.resolve_funcref(fn, call.func)

    def resolve_funcref(self, fn: FunctionInfo, ref: ast.AST) -> Optional[FunctionInfo]:
        """Resolve a function-valued expression (callee or callback arg)."""
        project = self.project
        mod = fn.module
        if isinstance(ref, ast.Name):
            qname = project.resolve(mod, ref.id)
            if qname is None:
                return None
            cls = project.classes.get(qname)
            if cls is not None:
                return cls.methods.get("__init__")
            return project.functions.get(qname)
        if isinstance(ref, ast.Attribute):
            base = ref.value
            # self.method / self._attr.method
            if isinstance(base, ast.Name) and base.id == "self":
                owner = self.owner_class(fn)
                if owner is not None:
                    found = project.lookup_method(owner, ref.attr)
                    if found is not None:
                        return found
                return None
            # Class.method (bound-method reference e.g. Timer._fire)
            dotted = _dotted(ref)
            if dotted is not None:
                qname = project.resolve(mod, dotted)
                if qname is not None:
                    found = project.functions.get(qname)
                    if found is not None:
                        return found
                    cls = project.classes.get(qname)
                    if cls is not None:
                        return cls.methods.get("__init__")
            # <typed value>.method
            base_cls = self.value_class(fn, base)
            if base_cls is not None:
                return project.lookup_method(base_cls, ref.attr)
        return None


def build_call_graph(project: Project, resolver: Resolver) -> Set[Tuple[str, str, int, str]]:
    """Every resolvable call and callback-registration edge in the
    project, as ``(caller, callee, line, "call" | "registered")``."""
    edges: Set[Tuple[str, str, int, str]] = set()
    for fn in project.functions.values():
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            target = resolver.resolve_call(fn, node)
            if target is not None:
                edges.add((fn.qname, target.qname, node.lineno, "call"))
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CALLBACK_REGISTRARS:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        registered = resolver.resolve_funcref(fn, arg)
                        if registered is not None:
                            edges.add((fn.qname, registered.qname, node.lineno, "registered"))
    return edges
