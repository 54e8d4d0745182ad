"""State census: every attribute the library stores on ``self`` is read
somewhere in the program.

A field that is written and never read is state a run pays for and
nothing uses: a counter bumped on every reply, a list kept alive for
nothing.  This is an ``ast`` pass, by name: a store is any
``self.name = …`` / ``self.name += …`` / ``self.name: T = …`` under
``src/repro``; a read is any ``.name`` load, or a ``getattr`` /
``hasattr`` with that literal name, anywhere in ``src/``, ``tools/``,
``benchmarks/`` or ``examples/``, whatever the receiver.  Tests do not
count as readers.  Matching by name can only miss an unread field (its
name read on another object), never flag a read one.
"""

import ast
from pathlib import Path

REPO = Path(__file__).parent.parent
READERS = ("src", "tools", "benchmarks", "examples")

# Fields the program never reads but tests do, as introspection.
ALLOWED = {
    "view_changes": "GroupMember's count of installed views, which the "
    "membership tests assert",
    "placement_invalidations": "ServiceRouter's count of tree fetches "
    "that found a new reorganisation epoch, which the router tests assert",
    "ticks_sent": "SymbolFeed's tick count, which the partitioned trading "
    "tests compare with ticks_acked",
    "ticks_acked": "SymbolFeed's acknowledged-tick count, the other half "
    "of that comparison",
    "detail": "the strict sanitizer's exception carries its code and "
    "detail for whoever catches it, as a Violation record does",
}


def _trees(*dirs):
    for name in dirs:
        for path in sorted((REPO / name).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _stored():
    """Each attribute stored on ``self`` under src/repro -> its first store."""
    stored = {}
    for path, tree in _trees("src/repro"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    where = f"{path.relative_to(REPO)}:{target.lineno}"
                    stored.setdefault(target.attr, where)
    return stored


def _read():
    names = set()
    for _path, tree in _trees(*READERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def _unread():
    read = _read()
    return {name: where for name, where in _stored().items() if name not in read}


def test_every_stored_attribute_is_read():
    unread = _unread()
    found = sorted(
        f"{name} ({where})" for name, where in unread.items() if name not in ALLOWED
    )
    assert not found, "stored on self and read nowhere: " + ", ".join(found)


def test_the_allow_list_names_only_unread_fields():
    """An entry whose field is gone, or is now read, comes off the list."""
    stale = sorted(set(ALLOWED) - set(_unread()))
    assert not stale, f"no longer stored-and-unread: {stale}"
