"""Every name a library module imports at module level is used in it: with no
linter in the toolchain, this catches the import a refactor leaves behind.
`__init__.py` is skipped, since its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nearproj"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by the module-level imports of `source` that no
    expression in it reads, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == {}


def test_an_unused_import_is_found():
    source = ("import math\n"
              "from dataclasses import dataclass, replace\n"
              "@dataclass\n"
              "class C:\n"
              "    x: float = math.inf\n")
    assert _unused_imports(source) == {"replace": 2}
