"""Every name a module imports is read somewhere in that module, and every
private module-level name of the package is read by some module."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from chebint.chebyshev import ShapeFunction
from chebint.scenarios import _OP_FLAGS

SRC = Path(__file__).resolve().parent.parent / "src" / "chebint"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = SRC.parent.parent / "README.md"


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


def test_the_readme_layout_table_names_every_module():
    section = README.read_text(encoding="utf-8").split("## Package layout", 1)[1]
    table = section.split("\n\n", 2)[1]  # the blank-line-separated block after the heading
    named = re.findall(r"^\| `chebint\.(\w+)` \|", table, re.MULTILINE)
    assert sorted(named) == sorted(p.stem for p in MODULES)


def test_the_readme_op_names_list_the_scenario_flags():
    # an operation's flags are the bool fields of FusionOp; a shape has none
    text = README.read_text(encoding="utf-8")
    bullet = text.split("- **op names**", 1)[1].split("\n- **", 1)[0]
    listed = re.findall(r"`(\w+)`", re.search(r"flags are among (.*?),\s+each", bullet, re.S)[1])
    assert listed == _OP_FLAGS
    assert "A shape takes no flags" in bullet
    assert not [f.name for f in fields(ShapeFunction) if type(f.default) is bool]


def call_owners(source, wanted):
    """The functions of ``source`` that make a call whose callee ``wanted``
    accepts, once per call, sorted; ``<module>`` for a call at the top level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and wanted(child.func):
                found.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def linspace_calls(source):
    """The functions of ``source`` that call ``np.linspace``, once per call, sorted."""
    return call_owners(source, lambda func: isinstance(func, ast.Attribute)
                       and func.attr == "linspace" and isinstance(func.value, ast.Name)
                       and func.value.id in ("np", "numpy"))


def stage_calls(source):
    """The functions of ``source`` that call ``Stage`` or ``<module>.Stage``,
    once per call, sorted."""
    return call_owners(source, lambda func: (isinstance(func, ast.Name) and func.id == "Stage")
                       or (isinstance(func, ast.Attribute) and func.attr == "Stage"))


def test_linspace_calls_are_found():
    source = ("import numpy as np\nxs = np.linspace(0, 1, 3)\n"
              "def f(n):\n    def g():\n        return numpy.linspace(0, 1, n)\n"
              "    return np.linspace(0, 1, n), linspace(0, 1, n)\n")
    assert linspace_calls(source) == ["<module>", "f", "g"]


def test_every_grid_comes_from_the_memo():
    # scan.linspace builds and memoises every grid; the two refinement grids of
    # integral._survival_grid depend on the values found, so they are not shared
    calls = sorted(f"{path.stem}.{owner}" for path in MODULES
                   for owner in linspace_calls(path.read_text()))
    assert calls == ["integral._survival_grid"] * 2 + ["scan._read_only_linspace"]


def table_conversions(source):
    """The functions of ``source`` that pass an expression holding a ``.table``
    attribute to ``np.asarray``, ``np.array`` or ``np.fromiter``, once per
    call, sorted; ``<module>`` for a call at the top level."""
    def converter(func):
        return (isinstance(func, ast.Attribute) and func.attr in ("asarray", "array", "fromiter")
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))

    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and converter(child.func) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "table"
                    for arg in child.args for sub in ast.walk(arg)):
                found.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_table_conversions_are_found():
    source = ("import numpy as np\nt = np.asarray(m.table)\n"
              "def f(m, table):\n"
              "    def g():\n        return np.fromiter(map(m.table.__getitem__, [0]), float)\n"
              "    return (np.array(m.table, dtype=float), np.sort(m.values), np.asarray(table),\n"
              "            list(m.table), np.array(table.tolist()))\n")
    assert table_conversions(source) == ["<module>", "f", "g"]


def test_only_the_measure_view_converts_a_table():
    # MonotoneMeasure.values builds a measure's one float64 array; every other
    # numpy reader of the table reads that view
    owners = sorted(f"{path.stem}.{owner}" for path in SRC.glob("*.py")
                    for owner in table_conversions(path.read_text()))
    assert owners == ["measure.values"]


def test_stage_calls_are_found():
    source = ("s = Stage('a', 'pass')\n"
              "def f():\n    def g():\n        return chebyshev.Stage('b', 'fail')\n"
              "    return Stage, Stages('c'), [Stage(n, 'pass') for n in 'de']\n")
    assert stage_calls(source) == ["<module>", "f", "g"]


def test_every_stage_comes_from_the_stage_rule():
    # a pipeline builds each check's stage through chebyshev._stage; only the
    # two closing stages, which also give an outcome, build their own
    owners = {f"{path.stem}.{owner}" for path in MODULES for owner in stage_calls(path.read_text())}
    assert sorted(owners) == ["chebyshev._integral_stage", "chebyshev._random_trials",
                              "chebyshev._stage"]
