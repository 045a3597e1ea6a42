"""Name hygiene: every name a package module imports is used there, and
so is every private (_name) function, class or constant it defines at
module level.

Read with ast alone, so it needs no linter. A name counts as used if the
module reads it anywhere (an attribute chain counts through its first
name) or lists it in its __all__.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ernn"

# Imported but not read: perfbench/spans.py traces ernn.reducer.evaluate and
# ernn.layout.signed_value, and tests/test_trace_targets.py checks that every
# traced name resolves.
KEPT = {("reducer", "evaluate"), ("layout", "signed_value")}


def _imported(tree):
    """(bound name, line) of each import, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _private(tree):
    """(name, line) of each private name the module binds at its top level
    by def, class or assignment; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [
                (n.id, n.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name, line in bound:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, line


def _read(tree):
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return loaded | _exported(tree)


def _unread_private(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [
        f"{path.name}:{line} defines {name}, which it never reads"
        for name, line in _private(tree)
        if name not in read
    ]


def _unused(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [
        f"{path.name}:{line} imports {name}, which it never reads"
        for name, line in _imported(tree)
        if name not in read and (path.stem, name) not in KEPT
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused(path) == []


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json\nimport os.path\nfrom typing import Dict, List as L\n"
        "__all__ = ['Dict']\n\ndef f() -> L[int]:\n    return []\n"
    )
    assert _unused(module) == [
        "sample.py:1 imports json, which it never reads",
        "sample.py:2 imports os, which it never reads",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert _unread_private(path) == []


def test_an_unread_private_name_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "_LIMIT = 3\n_SIX, _FREE = 6, 0\n_table: dict = {}\n__all__ = ['f']\n\n"
        "def _helper():\n    return _helper()\n\n"
        "def _leftover():\n    return _SIX\n\n"
        "class _Record:\n    pass\n\n"
        "def f(r: '_Record' = None):\n    _table[1] = _LIMIT\n    return _helper()\n"
    )
    assert _unread_private(module) == [
        "sample.py:2 defines _FREE, which it never reads",
        "sample.py:9 defines _leftover, which it never reads",
        "sample.py:12 defines _Record, which it never reads",
    ]


def test_the_kept_import_still_exists():
    # a KEPT entry whose import is gone excuses nothing and has gone stale
    stale = [
        f"{module}.py no longer imports {name}"
        for module, name in sorted(KEPT)
        if name not in {bound for bound, _ in _imported(ast.parse((PACKAGE / f"{module}.py").read_text()))}
    ]
    assert stale == []
