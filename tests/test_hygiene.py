"""Source hygiene: no module of the package imports a name it never uses,
imports scipy, keeps a private helper it never calls or exports a name it does
not define, no two functions of the package share a body, finite differences
stay in the oracles, every function runs in some command, every acceptance
criterion runs a check function of the CLI, no reduction runs over the last
two axes and no general matrix inverse stands in for a closed form."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
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


#: the FD oracle lives in fields; the chart stencil is the tests'
_FD_READERS = {"fields.py"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name not in _FD_READERS),
                         ids=lambda p: p.name)
def test_finite_differences_only_in_the_oracles(path):
    assert not reads_name(path.read_text(encoding="utf-8"), "fd_partial")


#: the one Gauss-Legendre rule, shared by the patches and the solver, and the one
#: table of Shen's modes
_SINGLE_READERS = {"leggauss": "surfaces.py", "legval": "solver.py", "legder": "solver.py"}


@pytest.mark.parametrize("name", sorted(_SINGLE_READERS))
def test_one_module_reads_each_single_definition(name):
    readers = [p.name for p in sorted(SRC.glob("*.py"))
               if reads_name(p.read_text(encoding="utf-8"), name)]
    assert readers == [_SINGLE_READERS[name]]


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


def unreached(sources: dict[str, str], called: set[tuple[str, int]]) -> list[str]:
    """Functions and methods, named ``module:qualname``, that no call reached.

    ``called`` holds (module, first line) of every code object that ran; the
    first line of a decorated def is that of its first decorator.  A def whose
    body (docstring stripped) is a single ``raise`` is an abstract stub, and
    one with a nested def that ran is a factory: both count as reached."""
    out = []

    def visit(node, module: str, prefix: str) -> bool:
        """Collect the unreached defs under ``node``; whether any of them ran."""
        ran_below = False
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ran_below |= visit(child, module, f"{prefix}{name}." if name else prefix)
                continue
            nested = visit(child, module, f"{prefix}{name}.")
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            body = child.body[1:] if ast.get_docstring(child) is not None else child.body
            ran = (module, first) in called
            stub = len(body) == 1 and isinstance(body[0], ast.Raise)
            if not (ran or nested or stub):
                out.append(f"{module}:{prefix}{name}")
            ran_below |= ran or nested
        return ran_below

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return sorted(out)


def test_detector_flags_an_unreached_def():
    source = "\n".join([
        "def ran():",                           # 1
        "    return 1",
        "def idle():",                          # 3
        "    return 2",
        "class A:",
        "    def stub(self):",
        '        """Abstract."""',
        "        raise NotImplementedError",
        "    @property",                        # 9
        "    def p(self):",                     # 10
        "        return 3",
        "def factory():",
        "    def parse(v):",                    # 13
        "        return v",
        "    return parse",
    ])
    assert unreached({"m": source}, {("m", 1), ("m", 9), ("m", 13)}) == ["m:idle"]
    assert unreached({"m": source}, {("m", 10)}) == [
        "m:A.p", "m:factory", "m:factory.parse", "m:idle", "m:ran"]


#: the defs that no command runs, each with what accounts for it; one that a
#: command comes to run must leave the list
_UNREACHED = {
    "boundary:tractions": "no command reports the work of a formulation's split yet",
    "constitutive:equilibrium_residual": "the strong form, for a manufactured solution and "
                                         "a volume work oracle that no command runs yet",
    "fields:PolynomialField.grad4": "read by equilibrium_residual only",
    "fields:ConformalField.grad4": "read by equilibrium_residual only",
    "solver:ClampedBasis.derivatives": "the field of a solution, for a manufactured solution",
    "solver:ClampedBasis.solution_field": "the field of a solution, for a manufactured solution",
    "solver:_BasisField.__init__": "the field of a solution, for a manufactured solution",
    "solver:korn_constant": "bench/scaling.py calls it",
}

_CAP = {"type": "spherical_cap", "radius": 2.0, "theta_max": 1.0, "axis": [1.0, 1.0, 0.0]}
_MODIFIED = {"mu": 1.0, "lambda": 1.0, "L_c": 0.5, "alpha1": 1.0, "alpha2": 0.0}
_HD = {"mu": 1.0, "lambda": 1.0, "L_c": 0.5, "alpha1": 0.0, "alpha3": 1.0}
_NOT_POSITIVE_DEFINITE = {"mu": 1e-12, "lambda": 1e12, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0}

#: tiny jobs of the 8 commands, each with its exit code: both patch types, every field
#: family, the three regimes, the default load, loads with a body couple, and a valid
#: material (lambda / mu = 1e24) whose stiffness is not positive definite in floating point
_REACH_JOBS = [
    ("verify-operators", {"seed": 0, "cases": 2}, 0),
    ("verify-kinematics", {"seed": 0, "fields": 2, "points": 2, "degree": 2, "fd_fields": 1}, 0),
    ("energy-report", {"seed": 0, "cases": 2}, 0),
    ("bc-audit", {"seed": 0, "quadrature_order": 4, "field": {"family": "zero"},
                  "delta_field": {"family": "constant", "c": [1.0, -2.0, 0.5]},
                  "patch": {"type": "box_face", "which": "x-"}}, 0),
    ("bc-audit", {"seed": 1, "field": {"family": "rigid", "w_axial": [0.1, 0.2, 0.3], "b": [1, 0, 0]},
                  "delta_field": {"family": "conformal", "seed": 2}, "material": _MODIFIED}, 0),
    ("bc-audit", {"seed": 2, "field": {"family": "polynomial", "seed": 3, "degree": 2},
                  "delta_field": {"family": "conformal", "w_axial": [0.3, -0.2, 0.5], "p_hat": 0.4},
                  "patch": _CAP, "material": _HD}, 0),
    ("hd-postulate", {"seed": 0, "quadrature_order": 8}, 0),
    ("bvp-solve", {"seed": 0, "n_modes": 2}, 0),
    ("bvp-solve", {"seed": 1, "n_modes": 2, "load": {"g_seed": 4}}, 0),
    ("bvp-solve", {"seed": 0, "n_modes": 4, "material": _NOT_POSITIVE_DEFINITE}, 2),
    ("cosserat-limit", {"seed": 0, "n_modes": 2, "mu_c_values": [10.0, 100.0],
                        "load": {"f_seed": 5, "f_degree": 1, "g_seed": 6}}, 0),
    ("conformal-demo", {"seed": 0, "points": 2, "material": _HD}, 0),
]

#: runs the jobs through ``cli.main`` under a profiler; prints the exit codes and
#: the (module, first line) of every code object of the package that ran
_PROBE = """
import json, sys
from pathlib import Path
from costress import cli

package, called = Path(cli.__file__).parent, set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

jobs = json.loads(sys.argv[1])
sys.setprofile(profile)
codes = [cli.main([c, "--config", cfg, "--out", out]) for c, cfg, out in jobs]
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(
    (Path(f).stem, line) for f, line in called if Path(f).parent == package)}))
"""


def test_every_function_runs_in_some_command(tmp_path):
    # a fresh interpreter: no functools cache of the package is warm
    jobs = []
    for i, (command, config, _) in enumerate(_REACH_JOBS):
        path = tmp_path / f"job{i}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        jobs.append((command, str(path), str(tmp_path / f"out{i}")))
    assert {c for c, *_ in _REACH_JOBS} == set(importlib.import_module("costress.cli")._COMMANDS)
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(jobs)], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [code for *_, code in _REACH_JOBS]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreached(sources, {tuple(c) for c in result["called"]}) == sorted(_UNREACHED)


TESTS = Path(__file__).resolve().parent


def criteria_without_a_cli_check(source: str, checks: set[str]) -> list[str]:
    """The ``test_criterion_*`` functions of a test module that call none of
    ``checks`` as imported, possibly renamed, from ``costress.cli``."""
    tree = ast.parse(source)
    local = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "costress.cli"
             for a in node.names if a.name in checks}
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")
            and not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id in local for n in ast.walk(node))]


def test_detector_flags_a_criterion_without_a_cli_check():
    source = ("from costress.cli import run as r, bvp_checks\nfrom x import kinematics_checks\n"
              "def test_criterion_01():\n    r('a')\n"
              "def test_criterion_02():\n    kinematics_checks()\n"
              "def test_criterion_03():\n    f = bvp_checks\n"
              "def test_other():\n    pass\n")
    assert criteria_without_a_cli_check(source, {"run", "bvp_checks", "kinematics_checks"}) == [
        "test_criterion_02", "test_criterion_03"]


#: the acceptance criteria that no command ships, each with what it checks instead
_BESPOKE_CRITERIA = {
    "test_criterion_05_printed_counterexample": "the paper's printed field, which no command "
                                                "takes, against the FD oracle",
    "test_criterion_10_solver_round_trip": "a manufactured right-hand side, which bvp-solve "
                                           "does not build",
}


def test_every_acceptance_criterion_runs_a_cli_check():
    # one definition of each guarantee: the gate runs the CLI's checks, not a copy
    cli = importlib.import_module("costress.cli")
    checks = {name for name in cli.__all__ if inspect.isfunction(getattr(cli, name))}
    source = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
    assert criteria_without_a_cli_check(source, checks) == sorted(_BESPOKE_CRITERIA)


def last_two_axes_reductions(source: str) -> list[str]:
    """The innermost function (or ``<module>``) of each call of the module that
    takes ``axis=(-2, -1)`` or ``axis=(-1, -2)``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            found.extend(where for kw in node.keywords if kw.arg == "axis"
                         and isinstance(kw.value, ast.Tuple)
                         and sorted(ast.unparse(e) for e in kw.value.elts) == ["-1", "-2"])
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_flags_a_last_two_axes_reduction():
    source = ("import numpy as np\nn = np.sum(x, axis=(-1, -2))\n"
              "def f(X):\n    def g(Y):\n        return np.linalg.norm(Y, axis=(-2, -1))\n"
              "    return np.sum(X, axis=-1) + g(X) + np.sum(X, axis=(0, -1))\n")
    assert last_two_axes_reductions(source) == ["<module>", "g"]


#: the functions that may reduce over the last two axes, each with its reason
_LAST_TWO_AXES_SUMS = {
    "tensors:contract_E_X": "an einsum, as in inner, rounds a batch of its broadcast "
                            "operands unlike each item alone",
}


def test_no_reduction_over_the_last_two_axes():
    # numpy reduces two tiny trailing axes at several times the cost of one
    # elementwise pass over the batch; tensors' kernels make one contiguous pass
    found = {f"{path.stem}:{fn}" for path in sorted(SRC.glob("*.py"))
             for fn in last_two_axes_reductions(path.read_text(encoding="utf-8"))}
    assert found == set(_LAST_TWO_AXES_SUMS)


def matrix_inverse_calls(source: str) -> list[str]:
    """The innermost function (or ``<module>``) of each call of the module to
    ``inv`` through an attribute chain ending in ``linalg``, as
    ``np.linalg.inv`` or ``linalg.inv``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "inv" and ast.unparse(node.func.value).endswith("linalg")):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_flags_a_matrix_inverse():
    source = ("import numpy as np\nfrom numpy import linalg\nA = np.linalg.inv(B)\n"
              "def f(X):\n    def g(Y):\n        return linalg.inv(Y)\n"
              "    return np.linalg.solve(X, X) + g(X) + X.inv()\n")
    assert matrix_inverse_calls(source) == ["<module>", "g"]


#: the functions that may call np.linalg.inv, each with its reason
_MATRIX_INVERSES = {
    "solver:mass_factors": "the inverse Cholesky factor of a mass block, reused by every "
                           "eigen-solve of its operators",
    "solver:korn": "the inverse Cholesky factor of a sym-grad block, for one eigen-solve",
}


def test_no_general_matrix_inverse():
    # a 2x2 inverse (the surface metric) is its adjugate over its determinant:
    # LAPACK's batched inverse costs several times that closed form
    found = {f"{path.stem}:{fn}" for path in sorted(SRC.glob("*.py"))
             for fn in matrix_inverse_calls(path.read_text(encoding="utf-8"))}
    assert found == set(_MATRIX_INVERSES)
