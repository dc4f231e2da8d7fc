"""Ungated scaling report: solver and surface layers at growing sizes.

    python3 bench/scaling.py

Prints two markdown tables, each case timed once (single wall-clock runs,
so order-of-magnitude figures; the gated numbers come from run.py):

* solver, N = 2 .. 6 (gkmt, L_c = 0.5, unit load): assembly,
  discrete Korn constant and Cholesky solve times, dof-table size and Gram
  flops computed from array shapes, and cond(K);
* surfaces and boundary on the hemisphere and the z+ face of the unit cube
  at quadrature orders 8, 16 and 32: time and gap of the surface
  divergence theorem, the Stokes check and the boundary work identity.

It is not part of any workload.  Run it from the repository root.
"""

from __future__ import annotations

import time

import numpy as np

import run
from tracer import Tracer


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def solver_table():
    from costress.constitutive import LoadData, MaterialParams
    from costress import solver

    params = MaterialParams.for_regime("gkmt", L_c=0.5)
    loads = LoadData(f=lambda x: np.broadcast_to([0.0, 0.0, 1.0], x.shape).copy())
    print("| N | dofs | quad points | tables (computed) | Gram GFLOP (computed) "
          "| assemble | korn | solve | cond(K) |")
    print("|---|---|---|---|---|---|---|---|---|")
    for n in range(2, 7):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.job = "assemble"
            system, t_asm = timed(solver.assemble, params, loads, n)
            tracer.job = "korn"
            _, t_korn = timed(solver.korn_constant, n)
            tracer.job = "solve"
            _, t_solve = timed(solver.solve, system)
        finally:
            tracer.uninstall()
        asm = tracer.solver_counts["assemble"]
        gflop = sum(c["gram_flop"] for c in tracer.solver_counts.values()) / 1e9
        print(f"| {n} | {asm['dofs']} | {asm['quad_points']} | {asm['tables_mb']:.1f} MB "
              f"| {gflop:.2f} | {t_asm:.3g} s | {t_korn:.3g} s | {t_solve * 1e3:.3g} ms "
              f"| {np.linalg.cond(system.K):.2g} |")


def surface_table():
    from costress.boundary import boundary_work_identity
    from costress.constitutive import MaterialParams
    from costress.fields import make_polynomial
    from costress.surfaces import (BoxFace, SphericalCap, stokes_flux_check,
                                   surface_divergence_check)

    params = MaterialParams.for_regime("gkmt", L_c=0.5)
    u, du = make_polynomial(0, 3), make_polynomial(1, 3)
    print("| patch | order | divergence | gap | stokes | gap | work identity | gap |")
    print("|---|---|---|---|---|---|---|---|")
    for name, patch in (("hemisphere", SphericalCap()), ("box z+", BoxFace.unit_cube_face("z+"))):
        for order in (8, 16, 32):
            (_, _, g_div), t_div = timed(surface_divergence_check, u.value, patch, order)
            (_, _, g_st), t_st = timed(stokes_flux_check, u, patch, order)
            rep, t_wi = timed(boundary_work_identity, params, u, du, patch, order)
            print(f"| {name} | {order} | {t_div:.3g} s | {g_div:.2g} | {t_st:.3g} s "
                  f"| {g_st:.2g} | {t_wi:.3g} s | {rep.gap:.2g} |")


def main() -> int:
    run.import_cli()
    print(f"BLAS threads {run.blas_threads()}\n")
    solver_table()
    print()
    surface_table()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
