"""Source hygiene: every name a package module imports is read somewhere in
that module, or re-exported through its ``__all__``, and every module-level
private name the package defines is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

import evhybrid

PACKAGE = Path(evhybrid.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, less those in ``__all__``;
    ``from __future__`` imports are compiler switches, not names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read | exported)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix()
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "def f(x: np.ndarray):\n"
        "    return dumps(x)\n"
    )
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)"]


def private_definitions(source: str) -> set[str]:
    """The module-level ``_``-prefixed functions, classes and constants that
    ``source`` defines; dunder names such as ``__all__`` are protocol, not
    private."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(source: str) -> set[str]:
    """Every name ``source`` reads, bare or as an attribute (``ops._data``)."""
    tree = ast.parse(source)
    bare = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bare | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_no_dead_private_names():
    sources = [path.read_text() for path in sorted(PACKAGE.rglob("*.py"))]
    defined = set().union(*map(private_definitions, sources))
    read = set().union(*map(read_names, sources))
    assert sorted(defined - read) == []


def test_private_scan_flags_only_unread_names():
    source = (
        "import math\n"
        "_LIMIT = 3\n"
        "_unused: int = 4\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return math.pi\n"
        "class _Dead:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper() + _LIMIT + math._private_attr\n"
    )
    assert private_definitions(source) == {"_LIMIT", "_unused", "_helper", "_Dead"}
    assert {"_LIMIT", "_helper", "_private_attr"} <= read_names(source)
    assert not {"_unused", "_Dead"} & read_names(source)
