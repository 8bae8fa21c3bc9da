"""Every name a module imports is read somewhere in that module."""

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


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import inf, pi as PI\nprint(np, PI)\n"
    assert unused_imports(source) == ["inf", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
