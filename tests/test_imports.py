"""Every name a library module imports at module level is used in it: with no
linter in the toolchain, this catches the import a refactor leaves behind.
`__init__.py` is skipped, since its imports are the package's exports.

Of scipy, the library uses only its sparse matrices and sparse LU: no module
imports scipy.special or scipy.spatial, and a run that reproduces the paper's
tables loads neither.  scipy is imported in two functions only, never at
module level: `forms._scatter` imports scipy.sparse and `projection._factor`
scipy.sparse.linalg.  So `import nearproj`, `nearproj --help`, `nearproj
predict` and a command that exits 2 on its arguments load no scipy module,
and a command that solves loads it at its first assembly.
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


def _import_names(node):
    """The modules that `node`, if it is an absolute import statement, names,
    with `from p import m` counted as both p and p.m."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return set()


def _imported_modules(source):
    """Every module an import statement anywhere in `source` names."""
    return set().union(*map(_import_names, ast.walk(ast.parse(source))))


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


def _scipy_imports(source):
    """(the function that holds it, the module it names) for each import of
    scipy in `source`; the function is None for an import that runs when the
    module is imported, at module level or in a class body."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            found.extend((function, name) for name in _import_names(child)
                         if name == "scipy" or name.startswith("scipy."))
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if function is None else f"{function}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda item: (item[0] or "", item[1]))


def test_scipy_is_imported_only_where_a_system_is_assembled():
    found = {path.name: _scipy_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {
        "forms.py": [("_scatter", "scipy.sparse")],
        "projection.py": [("_factor", "scipy.sparse.linalg")]}


def test_a_module_level_scipy_import_is_found():
    source = ("import numpy\n"
              "import scipy.sparse\n"
              "class C:\n"
              "    from scipy import linalg\n"
              "    def m(self):\n"
              "        import scipy.sparse.linalg\n"
              "def f():\n"
              "    def g():\n"
              "        from scipy.sparse import csc_matrix\n")
    assert _scipy_imports(source) == [
        (None, "scipy"), (None, "scipy.linalg"), (None, "scipy.sparse"),
        ("f.g", "scipy.sparse"), ("f.g", "scipy.sparse.csc_matrix"),
        ("m", "scipy.sparse.linalg")]


LAZY_RUN = """
import contextlib, io, sys
import nearproj
from nearproj import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import nearproj": scipy_loaded()}
for argv in (["--help"],
             ["predict", "--gamma", "1", "--eta", "inf", "--delta", "inf", "-s", "0", "-r", "2"],
             ["table", "9"], ["table", "1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    loaded["nearproj " + " ".join(argv)] = (status, scipy_loaded())
print(loaded)
"""


def test_scipy_loads_only_when_a_system_is_assembled():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", LAZY_RUN], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded = ast.literal_eval(out.stdout.strip())
    solved = loaded.pop("nearproj table 1")
    assert loaded == {
        "import nearproj": [], "nearproj --help": (0, []),
        "nearproj predict --gamma 1 --eta inf --delta inf -s 0 -r 2": (0, []),
        "nearproj table 9": (2, [])}
    assert solved[0] == 0
    assert "scipy.sparse.linalg" in solved[1]


def test_python_m_nearproj_help_loads_no_scipy():
    # -X importtime lists every module the process imports, one per line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "nearproj", "--help"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "nearproj.cli" in imported
    assert [m for m in imported if m == "scipy" or m.startswith("scipy.")] == []
