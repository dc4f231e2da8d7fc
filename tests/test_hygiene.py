"""Source hygiene: no module of the package imports a name it never uses,
imports scipy, keeps a private helper it never calls or exports a name it does
not define, no two functions of the package share a body, and finite
differences stay in the oracles."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "costress"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in getattr(node.value, "elts", [])
        if isinstance(elt, ast.Constant)
    }
    return sorted(imported - read - exported)


def orphaned_privates(source: str) -> list[str]:
    """Module-level private functions and classes that the module never
    references outside their own definition."""
    tree = ast.parse(source)
    orphans = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        used = any(isinstance(n, ast.Name) and n.id == node.name
                   for other in tree.body if other is not node for n in ast.walk(other))
        if not used:
            orphans.append(node.name)
    return orphans


def test_detector_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["math"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_orphaned_private():
    source = "def _a():\n    return _a()\n\nclass _B:\n    pass\n\ndef f():\n    return _B()\n"
    assert orphaned_privates(source) == ["_a"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_private_helpers(path):
    assert orphaned_privates(path.read_text(encoding="utf-8")) == []


def reads_name(source: str, name: str) -> bool:
    """Whether the module imports, reads or looks up ``name`` as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == name for a in node.names):
                return True
        elif isinstance(node, ast.Name) and node.id == name:
            return True
        elif isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def test_detector_finds_a_read_name():
    assert reads_name("from .fields import fd_partial as d\n", "fd_partial")
    assert reads_name("from . import fields\nfields.fd_partial(f, x, (0,), 1e-3)\n", "fd_partial")
    assert not reads_name("def f():\n    return 'fd_partial'\n", "fd_partial")


#: the FD oracle and its fallbacks live in fields; surfaces keeps its chart stencil
_FD_READERS = {"fields.py", "surfaces.py"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name not in _FD_READERS),
                         ids=lambda p: p.name)
def test_finite_differences_only_in_the_oracles(path):
    assert not reads_name(path.read_text(encoding="utf-8"), "fd_partial")


def imported_packages(source: str) -> set[str]:
    """The top-level packages that the module's absolute imports name."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_detector_finds_imported_packages():
    source = "import scipy.linalg as la\nfrom numpy import linalg\nfrom . import solver\n"
    assert imported_packages(source) == {"scipy", "numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy's LAPACK wrappers cover the solver; scipy is the tests' oracle only
    assert "scipy" not in imported_packages(path.read_text(encoding="utf-8"))


def stale_exports(module) -> list[str]:
    """Names in the module's ``__all__`` that are not attributes of the module."""
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


def test_detector_flags_a_stale_export():
    module = ModuleType("m")
    module.__all__, module.a = ["a", "b"], 1
    assert stale_exports(module) == ["b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "costress" if path.stem == "__init__" else f"costress.{path.stem}"
    assert stale_exports(importlib.import_module(name)) == []


def duplicate_bodies(sources: dict[str, str]) -> list[list[str]]:
    """Groups of functions and methods, named ``module:qualname``, whose
    arguments and body (docstring stripped) parse to the same AST."""
    groups: dict[str, list[str]] = {}

    def visit(node, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if ast.get_docstring(child) is not None else child.body
                key = ast.dump(child.args) + "".join(ast.dump(stmt) for stmt in body)
                groups.setdefault(key, []).append(f"{module}:{prefix}{name}")
            visit(child, module, f"{prefix}{name}." if name else prefix)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return [names for names in groups.values() if len(names) > 1]


def test_detector_flags_a_shared_body():
    a = 'def f(x):\n    """One."""\n    return x + 1\n\nclass C:\n    def g(self):\n        raise E\n'
    b = ('def h(x):\n    return x + 1\n\ndef k(y):\n    return y + 1\n\n'
         'class D:\n    def g(self):\n        """Stub."""\n        raise E\n')
    assert duplicate_bodies({"a": a, "b": b}) == [["a:f", "b:h"], ["a:C.g", "b:D.g"]]
    assert duplicate_bodies({"a": a}) == []


def test_no_two_functions_share_a_body():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "surfaces" in sources
    assert duplicate_bodies(sources) == []
