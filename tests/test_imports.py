"""Every name a module imports is read somewhere in that module, and every
private module-level name of the package is read by some module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chebint"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def unread_private_names(sources):
    """The private (one leading underscore) names defined at the top level of
    ``sources`` that none of them reads: by name, as an attribute, or by
    importing it, which the import check requires to be read."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for target in targets for t in ast.walk(target)
                               if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import inf, pi as PI\nprint(np, PI)\n"
    assert unused_imports(source) == ["inf", "os"]


def test_unread_private_names_are_found():
    first = ("_LIMIT = 3\n_a, (_b, c) = 1, (2, 3)\n__all__ = []\n"
             "def _builtin(*ops):\n    return ops\n"
             "def _used():\n    return _LIMIT\n"
             "class _Kept:\n    _inner = 1\n")
    second = "from first import _used as used\nprint(used(), first._Kept, _b)\n"
    assert unread_private_names([first, second]) == ["_a", "_builtin"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text() for p in SRC.glob("*.py")]) == []
