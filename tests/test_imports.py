"""Source hygiene: every name a package module imports is read somewhere in
that module, or re-exported through its ``__all__``."""

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
