"""Every name a library module imports at module level is used in it: with no
linter in the toolchain, this catches the import a refactor leaves behind.
`__init__.py` is skipped, since its imports are the package's exports.

Of scipy, the library uses only its sparse matrices and sparse LU: no module
imports scipy.special or scipy.spatial, and a run that reproduces the paper's
tables loads neither.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nearproj"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
UNUSED_SCIPY = ("scipy.special", "scipy.spatial")


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


def _imported_modules(source):
    """Every module an import statement anywhere in `source` names, with
    `from p import m` counted as both p and p.m."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _imports_unused_scipy(source):
    return sorted(name for name in _imported_modules(source)
                  if any(name == m or name.startswith(m + ".") for m in UNUSED_SCIPY))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_unused_scipy_subpackage(path):
    assert _imports_unused_scipy(path.read_text()) == []


def test_an_unused_scipy_import_is_found():
    source = ("import scipy.sparse\n"
              "def f():\n"
              "    from scipy.spatial import cKDTree\n"
              "    from scipy import special\n"
              "    import scipy.special._ufuncs\n")
    assert _imports_unused_scipy(source) == [
        "scipy.spatial", "scipy.spatial.cKDTree", "scipy.special",
        "scipy.special._ufuncs"]


RUN = """
import contextlib, io, sys
import nearproj
from nearproj import cli
loaded = {}
loaded["import nearproj"] = [m for m in %r if m in sys.modules]
for argv in (["table", "1"], ["table", "6"], ["regularity", "--p", "3", "--levels", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded["nearproj " + " ".join(argv)] = [m for m in %r if m in sys.modules]
print(loaded)
""" % (UNUSED_SCIPY, UNUSED_SCIPY)


def test_a_run_loads_neither_scipy_special_nor_spatial():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", RUN], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout.strip()) == {
        "import nearproj": [], "nearproj table 1": [], "nearproj table 6": [],
        "nearproj regularity --p 3 --levels 5": []}
