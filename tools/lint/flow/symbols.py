"""Project-wide symbol table for the whole-program analysis layer.

The per-file rules see one ``ast`` tree at a time; the flow passes
(RL012, RL013) need to answer questions *across* files:
"which function does this call land in?", "what class is ``self._process``
an instance of?", "where is this payload class constructed?".  This
module builds the tables those questions are answered from:

* :class:`ModuleInfo` — one parsed file: its import map (local name →
  fully-qualified target), top-level functions, classes, and module-level
  constants bound to constructor calls (``_HEARTBEAT = Heartbeat()``).
* :class:`ClassInfo` — methods, base-class names, and an attribute-type
  map harvested from ``self.x = <Class>(...)`` / ``self.x = <param>``
  assignments and annotations, so method receivers like
  ``self._process.send`` resolve to a class.
* :class:`FunctionInfo` — one function or method, with its parameter
  type annotations resolved to project classes where possible.
* :class:`Project` — the index over all of the above plus the name
  resolver used by every flow pass.

Everything here is *best-effort static resolution*: a name that cannot
be resolved simply resolves to ``None`` and the passes degrade to
silence, never to a crash or a guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a repo-relative posix path.

    ``src/repro/net/network.py`` → ``repro.net.network``; a path with no
    ``repro`` segment falls back to its stem so fixture files still get
    stable (if flat) module names.
    """
    posix = path.replace("\\", "/")
    parts = posix.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else posix


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qname: str  # e.g. "repro.proc.process.Process.send"
    name: str
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_qname: Optional[str] = None
    # parameter name -> resolved class qname (from annotations)
    param_types: Dict[str, str] = field(default_factory=dict)
    # positional parameter names, 'self' excluded for methods
    params: List[str] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.module.path

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class ClassInfo:
    """One class in the project."""

    qname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)  # unresolved dotted names
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    # instance attribute name -> class qname (best effort)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: str  # repo-relative posix path
    tree: ast.Module
    # local name -> fully qualified target ("Envelope" -> "repro.net.message.Envelope")
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    # module-level NAME = SomeClass(...) constants -> class qname
    constant_types: Dict[str, str] = field(default_factory=dict)


class Project:
    """The whole-program index: modules, classes, functions, resolver."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    # ------------------------------------------------------------- building

    def add_module(self, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return  # the per-file pass reports it as RL000
        mod = ModuleInfo(name=module_name_for(path), path=path, tree=tree)
        self._collect_imports(mod)
        self._collect_defs(mod)
        self.modules[mod.name] = mod

    def _collect_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports are unused in this tree
                for alias in node.names:
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{node.module}.{alias.name}"

    def _collect_defs(self, mod: ModuleInfo) -> None:
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(mod, node, class_qname=None)
                mod.functions[node.name] = info
                self.functions[info.qname] = info
            elif isinstance(node, ast.ClassDef):
                self._make_class(mod, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    ctor = self._ctor_name(node.value)
                    if ctor is not None:
                        mod.constant_types[target.id] = ctor

    @staticmethod
    def _ctor_name(value: ast.AST) -> Optional[str]:
        """``Heartbeat(...)`` -> "Heartbeat" (unresolved, module-local)."""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            name = value.func.id
            if name and name[0].isupper():
                return name
        return None

    def _make_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{mod.name}.{node.name}"
        cls = ClassInfo(
            qname=qname,
            name=node.name,
            module=mod,
            node=node,
            base_names=[_dotted(b) for b in node.bases if _dotted(b)],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(mod, item, class_qname=qname)
                cls.methods[item.name] = info
                self.functions[info.qname] = info
        self._harvest_attr_types(mod, cls)
        mod.classes[node.name] = cls
        self.classes[qname] = cls

    def _make_function(
        self, mod: ModuleInfo, node, class_qname: Optional[str]
    ) -> FunctionInfo:
        prefix = class_qname or mod.name
        info = FunctionInfo(
            qname=f"{prefix}.{node.name}",
            name=node.name,
            module=mod,
            node=node,
            class_qname=class_qname,
        )
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        names = [a.arg for a in positional]
        if class_qname and names and names[0] in ("self", "cls"):
            names = names[1:]
            positional = positional[1:]
        info.params = names
        for arg in [*positional, *args.kwonlyargs]:
            if arg.annotation is not None:
                dotted = _annotation_name(arg.annotation)
                if dotted:
                    info.param_types[arg.arg] = dotted  # resolved lazily
        return info

    def _harvest_attr_types(self, mod: ModuleInfo, cls: ClassInfo) -> None:
        """``self.x = Class(...)`` / ``self.x = <typed param>`` in any
        method populate the class's attribute-type map."""
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(value, ast.Call):
                    dotted = _dotted(value.func)
                    if dotted:
                        cls.attr_types.setdefault(attr, dotted)
                elif isinstance(value, ast.Name):
                    annotated = method.param_types.get(value.id)
                    if annotated:
                        cls.attr_types.setdefault(attr, annotated)

    # ------------------------------------------------------------ resolving

    def resolve(self, mod: ModuleInfo, dotted: Optional[str]) -> Optional[str]:
        """Resolve a dotted name as written in ``mod`` to a qualified name.

        Returns a project qname (class/function), a stdlib-ish qualified
        name via the import map (``time.monotonic``), or None.
        """
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in mod.imports:
            base = mod.imports[head]
            return f"{base}.{rest}" if rest else base
        if head in mod.classes:
            qname = mod.classes[head].qname
            return f"{qname}.{rest}" if rest else qname
        if head in mod.functions:
            qname = mod.functions[head].qname
            return f"{qname}.{rest}" if rest else qname
        if head in mod.constant_types:
            # module constant bound to a constructor call
            resolved = self.resolve(mod, mod.constant_types[head])
            if resolved and not rest:
                return resolved
        if dotted in self.modules or dotted in self.classes or dotted in self.functions:
            return dotted
        return None

    def resolve_class(self, mod: ModuleInfo, dotted: Optional[str]) -> Optional[ClassInfo]:
        qname = self.resolve(mod, dotted)
        if qname is None:
            return None
        return self.classes.get(qname)

    def lookup_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Method lookup walking project-resolvable base classes."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qname in seen:
                continue
            seen.add(current.qname)
            if name in current.methods:
                return current.methods[name]
            for base_name in current.base_names:
                base = self.resolve_class(current.module, base_name)
                if base is not None:
                    stack.append(base)
        return None

    def is_subclass_of(self, cls: ClassInfo, target_name: str) -> bool:
        """True if ``cls`` is (or inherits from) a class named ``target_name``."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qname in seen:
                continue
            seen.add(current.qname)
            if current.name == target_name:
                return True
            for base_name in current.base_names:
                if base_name.split(".")[-1] == target_name:
                    return True
                base = self.resolve_class(current.module, base_name)
                if base is not None:
                    stack.append(base)
        return False


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _annotation_name(node: ast.AST) -> Optional[str]:
    """Extract a class name from an annotation (handles Optional[X] and
    string annotations like ``"Process"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip()
        return name if name.replace(".", "").replace("_", "").isalnum() else None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.Subscript):
        base = _dotted(node.value)
        if base in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
    return None
