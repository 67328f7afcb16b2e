"""Source hygiene: every name a package module imports is read somewhere in
that module, or re-exported through its ``__all__``, every module-level
private name the package defines is read somewhere in the package, and only
the CLI makes directories."""

import ast
import importlib
import inspect
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


def directory_calls(source: str) -> list[int]:
    """The lines of ``source`` that call a ``.mkdir(`` or ``.makedirs(``
    method, on any object."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("mkdir", "makedirs")
    )


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "cli.py"],
    ids=lambda p: p.relative_to(PACKAGE).as_posix(),
)
def test_only_the_cli_makes_directories(path):
    # library calls return results; the CLI decides which files a command
    # writes and makes their directory
    assert directory_calls(path.read_text()) == []


def test_directory_scan_flags_only_calls():
    source = (
        "import os\n"
        "from pathlib import Path\n"
        "Path('a').mkdir(parents=True)\n"
        "os.makedirs('b')\n"
        "mkdir = Path.mkdir\n"
        "print('c.mkdir()')\n"
    )
    assert directory_calls(source) == [3, 4]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def evhybrid_calls(source: str) -> tuple[dict[str, object], list[tuple[str, list[str], int]]]:
    """The objects ``source`` imports from evhybrid, by local name, and each
    call to one of them (``name(...)``, or ``module.attr(...)`` on an
    imported module) as (dotted name, keywords, line). A name missing from
    its module raises AttributeError naming it."""
    tree = ast.parse(source)
    imported: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evhybrid":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, "__path__") and not hasattr(module, alias.name):  # a submodule
                    importlib.import_module(f"{node.module}.{alias.name}")
                imported[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "evhybrid" and alias.asname:
                    imported[alias.asname] = importlib.import_module(alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name = func.id
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in imported:
            name = f"{func.value.id}.{func.attr}"
        else:
            continue
        calls.append((name, [k.arg for k in node.keywords if k.arg is not None], node.lineno))
    return imported, calls


def unknown_keywords(source: str) -> list[str]:
    """Each keyword ``source`` passes to an evhybrid callable that has no
    parameter of that name, as ``name(keyword) (line N)``. Calls through a
    module attribute must name one the module has."""
    imported, calls = evhybrid_calls(source)
    bad = []
    for name, keywords, line in calls:
        head, _, attr = name.partition(".")
        target = imported[head]
        if attr and not hasattr(target, attr):
            bad.append(f"{name} (line {line}): no such name")
            continue
        params = inspect.signature(getattr(target, attr) if attr else target).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        names = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
        bad += [f"{name}({k}) (line {line})" for k in keywords if k not in names]
    return bad


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_calls_into_evhybrid_resolve(path):
    # the benchmark is not run by the test suite; this catches a renamed or
    # deleted name or parameter it uses before a benchmark run does
    assert unknown_keywords(path.read_text()) == []


def test_perfbench_scan_flags_missing_names_and_keywords():
    source = (
        "from evhybrid import snn\n"
        "from evhybrid.snn import ConvSpec, snn_backbone_forward as fwd\n"
        "fwd(x, blocks, training=False, trace=[])\n"
        "ConvSpec(4, kernel=3, groups=1)\n"
        "snn.snn_backbone_forward(x, blocks, context='snn1')\n"
        "snn.no_such_forward(x)\n"
        "other(x, training=True)\n"
    )
    assert unknown_keywords(source) == [
        "ConvSpec(groups) (line 4)",
        "snn.snn_backbone_forward(context) (line 5)",
        "snn.no_such_forward (line 6): no such name",
    ]
    with pytest.raises(AttributeError, match="snn_block_forward"):
        evhybrid_calls("from evhybrid.snn import snn_block_forward\n")
