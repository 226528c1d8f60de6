"""Every name a library module imports is used in that module, every
private helper the library defines is used by the library, no test
module imports a private name of the library, and no library line runs
past 120 characters.

Read with the standard-library `ast`, so no linter is needed. `__init__.py`
is exempt from the import check, since its imports are the package's
re-exports, and so is `from __future__`, which binds no name the code reads.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rmis"


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in source order."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(bound) if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e, x)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def unused_private_helpers(sources: dict[str, str]) -> list[str]:
    """The underscore-prefixed functions, methods and classes defined in
    `sources` (module name -> text) that no code of `sources` names outside
    their own definition, as a name or an attribute, by module and line.
    Dunder names are the language's, not helpers, and are left out.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses: list[tuple[str, ast.AST]] = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node))
    out = []
    for module, tree in trees.items():
        for d in ast.walk(tree):
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not d.name.startswith("_") or d.name.endswith("__"):
                continue
            inside = {id(node) for node in ast.walk(d)}
            if not any(name == d.name and id(node) not in inside for name, node in uses):
                out.append((module, d.lineno, d.name))
    return [f"{module} line {line}: {name}" for module, line, name in sorted(out)]


def test_the_check_sees_an_unused_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\nclass _Box:\n"
        "    def __init__(self):\n        self._x = _used()\n\n    def _idle(self):\n        return self._idle\n",
        "b.py": "from a import _used\n\ndef _elsewhere():\n    pass\n\nprint(_used, _Box, obj._elsewhere)\n",
    }
    assert unused_private_helpers(sources) == ["a.py line 4: _recursive", "a.py line 11: _idle"]


def test_no_private_helper_without_a_library_caller():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private_helpers(sources) == []


def private_library_imports(source: str) -> list[str]:
    """The underscore-prefixed names that `source` imports from `rmis` or one
    of its modules, in source order. Dunder names are the language's.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "rmis":
            out += [
                (node.lineno, a.name) for a in node.names if a.name.startswith("_") and not a.name.endswith("__")
            ]
    return [f"line {line}: {name}" for line, name in sorted(out)]


def test_the_check_sees_a_private_library_import():
    source = (
        "from rmis.twosat import TwoSatFormula, _tarjan_scc\nfrom rmis import __version__\n"
        "from rmisc import _other\nfrom .rmis import _relative\nfrom rmis.oracle import (\n    is_mis,\n"
        "    _as_member_set,\n)\n"
    )
    assert private_library_imports(source) == ["line 1: _tarjan_scc", "line 5: _as_member_set"]


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_test_imports_a_private_library_name(module):
    assert private_library_imports((TESTS / module).read_text()) == []


# the longest library lines are 120 characters; a line count is not to be
# bought by joining lines past that
MAX_LINE = 120


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_library_line_past_the_limit(module):
    lines = (SRC / module).read_text().splitlines()
    assert [f"line {i}: {len(line)}" for i, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []
