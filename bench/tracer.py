"""Per-layer tracing of the costress package, installed from outside it.

:meth:`Tracer.install` replaces every public function of the seven
package modules, and every public method of their public classes (public:
no leading underscore), with a timing wrapper, in the defining module and
in every module that imported the name (``costress.boundary.stresses_batch``
is the same function as ``costress.constitutive.stresses_batch``).  In
``costress.solver`` it also wraps the dof-table construction and the LAPACK
calls, and counts the flops of the Gram-matrix ``einsum`` calls from their
operand shapes.  :meth:`Tracer.uninstall` restores the originals; no
source file changes.

Every call adds to its span name's call count, point count, total time
and self time; calls are aggregated, not kept one by one.  Self time is
the call's duration minus the part covered by wrapped calls made inside
it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
import types

import numpy as np
import scipy.linalg

LAYERS = ("tensors", "fields", "constitutive", "surfaces", "boundary", "solver", "cli")
_FIELD_EVAL = ("value", "grad", "grad2", "grad3")
_LINALG = {"cho_factor": "factor", "cho_solve": "factor", "eigh": "eigen"}

# stats entry: [calls, points, total_s, self_s]
CALLS, POINTS, TOTAL, SELF = range(4)


def _batch(shape, tail: int) -> int:
    return math.prod(shape[:-tail]) if len(shape) >= tail else 1


def _point_counter(fn):
    """A function (args, kwargs) -> number of material or chart points the
    call evaluates, read off its argument shapes, or None."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    kinds = (
        (("x", "X"), lambda a: _batch(np.shape(a), 1)),       # points, (..., 3)
        (("grad_u", "grad_curl_u"), lambda a: _batch(np.shape(a), 2)),  # (..., 3, 3)
        (("s", "S"), lambda a: int(getattr(a, "size", 1))),   # chart coordinates
    )
    for params, count in kinds:
        for p in params:
            if p in names:
                i = names.index(p)

                def points(args, kwargs, p=p, i=i, count=count):
                    if p in kwargs:
                        return count(kwargs[p])
                    return count(args[i]) if i < len(args) else 0

                return points
    return None


def _gram_flops(subscripts, operands) -> int:
    """Multiply-add flops of an einsum that contracts operands into a
    2-D (Gram-shaped) matrix: 2 x the product of all index extents."""
    if not isinstance(subscripts, str) or "->" not in subscripts or "." in subscripts:
        return 0
    inputs, output = subscripts.replace(" ", "").split("->")
    terms = inputs.split(",")
    if len(terms) < 2 or len(output) != 2:
        return 0
    extent = {}
    for term, op in zip(terms, operands):
        extent.update(zip(term, np.shape(op)))
    if not set(extent) - set(output):
        return 0
    return 2 * math.prod(extent.values())


class _Namespace(types.SimpleNamespace):
    """Attribute proxy: overridden names first, the wrapped module after."""

    def __init__(self, target, **overrides):
        super().__init__(**overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Wraps the costress layers; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        #: label of the job the next calls belong to
        self.job = None
        #: per job: largest dof-table build and summed Gram flops
        self.solver_counts: dict = {}
        self._child = [0.0]
        self._patches: list[tuple] = []

    # -- results ---------------------------------------------------------

    def reset(self):
        """Zero the aggregated statistics."""
        for entry in self.stats.values():
            entry[:] = [0, 0, 0.0, 0.0]
        self.solver_counts = {}

    def total(self, what: int, match) -> float:
        """Sum of one stats column over the span names ``match`` accepts."""
        return sum(v[what] for name, v in self.stats.items() if match(name))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        points = _point_counter(fn)
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = child.pop()
                child[-1] += dt
                stat[CALLS] += 1
                stat[TOTAL] += dt
                stat[SELF] += dt - inner
                if points is not None:
                    stat[POINTS] += points(args, kwargs)
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _wrap_class(self, layer, cls, field_base):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn):
                continue  # properties and constants
            if layer == "fields" and attr in _FIELD_EVAL and issubclass(cls, field_base):
                name = f"fields.eval.{cls.__name__}.{attr}"
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            wrapped = self._wrap(name, fn)
            if fn is not raw:
                wrapped = type(raw)(wrapped)
            self._patch(cls, attr, wrapped)

    def _count_tables(self, tables):
        """After one dof-table build: record its size from array shapes."""
        arrays = [a for a in vars(tables).values() if isinstance(a, np.ndarray)]
        dofs, quad = arrays[0].shape[:2]
        mb = sum(a.nbytes for a in arrays) / 1e6
        counts = self.solver_counts.setdefault(self.job, {"gram_flop": 0})
        if mb > counts.get("tables_mb", 0.0):
            counts.update(dofs=dofs, quad_points=quad, tables_mb=mb)

    def _solver_extras(self, solver):
        def einsum(subscripts, *operands, **kwargs):
            flops = _gram_flops(subscripts, operands)
            if flops:
                counts = self.solver_counts.setdefault(self.job, {"gram_flop": 0})
                counts["gram_flop"] += flops
            return np.einsum(subscripts, *operands, **kwargs)

        linalg = {name: self._wrap(f"solver.linalg.{kind}.{name}", getattr(scipy.linalg, name))
                  for name, kind in _LINALG.items()}
        for attr, val in list(vars(solver).items()):
            if val is np:
                self._patch(solver, attr, _Namespace(np, einsum=einsum))
            elif val is scipy:
                self._patch(solver, attr, _Namespace(scipy, linalg=_Namespace(scipy.linalg, **linalg)))
        if inspect.isfunction(getattr(solver, "_dof_tables", None)):
            self._patch(solver, "_dof_tables",
                        self._wrap("solver._dof_tables", solver._dof_tables,
                                   after=self._count_tables))

    # -- install -------------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"costress.{layer}") for layer in LAYERS}
        field_base = modules["fields"].DisplacementField
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, field_base)
        self._solver_extras(modules["solver"])
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    self._patch(mod, attr, replaced[val])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
