"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
shipped guarantee, at the stated tolerances.  Each test prints its worst
observed gap for the record."""

import json
from dataclasses import replace

import numpy as np
import pytest

from costress.cli import (
    cosserat_checks,
    energy_checks,
    hd_postulate_checks,
    operator_checks,
    run as cli_run,
    work_identity_check,
)
from costress.constitutive import (
    LoadData,
    MaterialParams,
    couple_stress,
    stresses,
    w_curv,
)
from costress.fields import (
    ConformalField,
    ConformalParams,
    fd_derivative_oracle,
    grad_curl_from_grad2,
    kinematics,
    make_polynomial,
)
from costress import solver
from costress.solver import assemble, coercivity_evidence, korn_constant, solve
from costress.surfaces import BoxFace, SphericalCap, surface_divergence_check
from costress.tensors import EPS3, anti, axl, dev, skw, sym
from oracles import PointwiseField

HEMI = SphericalCap(center=np.zeros(3), radius=1.0, axis=(0.0, 0.0, 1.0),
                    theta_max=np.pi / 2.0)
FACE = BoxFace.unit_cube_face("z+")


def _record(name, gap, tol):
    print(f"{name}: gap={gap:.3e} tolerance={tol:.0e}")


def test_criterion_01_operator_suite():
    checks = operator_checks(seed=1, cases=1000, tolerances={"operators": 1e-12})
    worst = max(c.gap for c in checks)
    _record("operator suite (1000 cases)", worst, 1e-12)
    assert [c.name for c in checks if not c.passed] == []
    assert "contraction_vs_loop" in {c.name for c in checks}


def test_criterion_02_kinematic_identities():
    rng = np.random.default_rng(2)
    tol_closed, tol_fd = 1e-12, 1e-8
    worst_closed = worst_fd = 0.0
    for seed in rng.integers(0, 2 ** 31, size=100):
        u = make_polynomial(int(seed), 4)
        for x in rng.uniform(-0.9, 0.9, (20, 3)):
            state = kinematics(u, x)
            worst_closed = max(
                worst_closed,
                float(np.max(np.abs(state.curl_u - 2.0 * state.axl_skw_grad))),
                abs(float(np.trace(state.grad_curl))),
            )
        # FD cross-check at one point per field
        x = rng.uniform(-0.9, 0.9, 3)
        G_fd = fd_derivative_oracle(u, x, 1)
        curl_fd = np.einsum("ijk,kj->i", EPS3, G_fd)
        M_fd = grad_curl_from_grad2(fd_derivative_oracle(u, x, 2))
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(curl_fd - 2.0 * axl(skw(G_fd))))),
            abs(float(np.trace(M_fd))),
        )
    _record("kinematic identities closed-form", worst_closed, tol_closed)
    _record("kinematic identities FD", worst_fd, tol_fd)
    assert worst_closed <= tol_closed
    assert worst_fd <= tol_fd


def test_criterion_03_energy_form_equivalence():
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.6)
    checks = {c.name: c for c in energy_checks(seed=3, cases=1000, material=p,
                                               tolerances={"energy_forms": 1e-12})}
    worst = checks["curvature_three_forms"].gap
    _record("curvature energy three forms (1000 inputs)", worst, 1e-12)
    assert worst <= 1e-12
    assert [c.name for c in checks.values() if not c.passed] == []


def test_criterion_04_conformal_invariance():
    rng = np.random.default_rng(4)
    tol, worst = 1e-12, 0.0
    p_mod = MaterialParams.for_regime("modified", mu=1.1, lam=0.9, L_c=0.8)
    p_hd = MaterialParams.for_regime("hd", mu=1.1, lam=0.9, L_c=0.8)
    for _ in range(100):
        cp = ConformalParams(
            w_axial=rng.uniform(-1, 1, 3), a_hat=anti(rng.uniform(-1, 1, 3)),
            b_hat=rng.uniform(-1, 1, 3), p_hat=float(rng.uniform(-1, 1)),
        )
        u = ConformalField(cp)
        W = anti(np.asarray(cp.w_axial))
        pts = rng.uniform(-1, 1, (20, 3))
        m_expect = p_hd.mu * p_hd.L_c ** 2 * p_hd.alpha2 * 2.0 * W
        for x in pts:
            G = u.grad(x)
            M = grad_curl_from_grad2(u.grad2(x))
            worst = max(worst, float(np.max(np.abs(sym(M)))))          # torsion free
            worst = max(worst, float(np.max(np.abs(dev(sym(G))))))     # conformal Jacobian
            worst = max(worst, abs(float(w_curv(p_mod, M))))           # modified blind
            worst = max(worst, float(np.max(np.abs(couple_stress(p_mod, M)))))
            worst = max(worst, float(np.max(np.abs(couple_stress(p_hd, M) - m_expect))))
    _record("conformal invariance (100 params x 20 points)", worst, tol)
    assert worst <= tol


def test_criterion_05_printed_counterexample():
    # the printed quadratic field is inhomogeneous yet torsion free
    u = PointwiseField(lambda x: np.array([x[0] ** 2 - x[1] ** 2 - x[2] ** 2,
                                           2.0 * x[0] * x[1], 2.0 * x[0] * x[2]]))

    rng = np.random.default_rng(5)
    tol, worst = 1e-10, 0.0
    for x in rng.uniform(-1, 1, (50, 3)):
        M = grad_curl_from_grad2(fd_derivative_oracle(u, x, 2))
        worst = max(worst, float(np.max(np.abs(sym(M)))))
    G0 = fd_derivative_oracle(u, np.zeros(3), 1)
    G1 = fd_derivative_oracle(u, np.array([0.5, 0.5, 0.5]), 1)
    _record("printed counterexample torsion (50 points, FD)", worst, tol)
    assert worst <= tol
    assert np.max(np.abs(G0 - G1)) > 0.5  # genuinely inhomogeneous


def test_criterion_06_surface_divergence_theorem():
    u = make_polynomial(6, 4)
    tol, worst = 1e-6, 0.0
    for patch in (FACE, HEMI):
        gaps = [surface_divergence_check(u, patch, order=o)[2]
                for o in (4, 8, 16)]
        worst = max(worst, gaps[2])
        # monotone decrease; flat faces plateau at round-off, hence the slack
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12
    _record("surface divergence theorem at order 16", worst, tol)
    assert worst <= tol


def test_criterion_07_boundary_work_identity():
    tol, checks = 1e-6, []
    for k in range(10):
        u = make_polynomial(100 + k, 3)
        du = make_polynomial(200 + k, 2)
        for regime in ("gkmt", "modified", "hd"):
            p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.4)
            for patch in (FACE, HEMI):
                checks.append(work_identity_check(p, u, du, patch, 16, tol))
    _record("boundary work identity (3 regimes x 2 patches x 10 pairs)",
            max(c.gap for c in checks), tol)
    assert all(c.passed for c in checks)


def test_criterion_08_hd_postulate_refutation():
    p = MaterialParams.for_regime("hd", mu=1.0, lam=1.0, L_c=0.5)
    cp = ConformalParams(w_axial=(1.0, -0.5, 0.25), a_hat=anti((0.2, 0.1, -0.3)),
                         b_hat=(0.0, 0.0, 0.0), p_hat=0.4)
    checks = {c.name: c for c in hd_postulate_checks(
        field=ConformalField(cp), patch=HEMI, quadrature_order=16, material=p,
        tolerances={"normal_moment": 1e-14})}
    sup, residual = checks["normal_moment_sup"], checks["residual_work_norm"]
    _record("hd postulate sup|<m.n,n>|", sup.value, 1e-14)
    print(f"hd postulate residual work norm: {residual.value:.6e}")
    assert sup.passed and sup.value <= 1e-14
    assert residual.passed and residual.value > 1e3 * 1e-14


def test_criterion_09_well_posedness_evidence():
    loads = LoadData()
    lam_mins = {}
    for regime in ("gkmt", "modified", "hd"):
        p = MaterialParams.for_regime(regime, mu=1.0, lam=1.0, L_c=0.1)
        lam_mins[regime] = coercivity_evidence(assemble(p, loads, 3))
    korns = [korn_constant(n) for n in (2, 3, 4)]
    print(f"lambda_min per regime: {lam_mins}; Korn N=2..4: {korns}")
    assert all(v > 0.0 for v in lam_mins.values())
    # Korn's inequality from below, Korn's equality on the clamped span from above
    assert all(np.isfinite(k) and 1.0 <= k <= np.sqrt(2.0) * (1.0 + 1e-9) for k in korns)
    assert max(korns) - min(korns) <= 0.05  # stable under refinement


def test_criterion_10_solver_round_trip():
    p = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=0.1)
    loads = LoadData(f=lambda x: np.stack(
        [np.ones(x.shape[0]), x[:, 0], -x[:, 1]], axis=-1))
    system = assemble(p, loads, 3)
    rng = np.random.default_rng(10)
    z_true = rng.normal(size=system.ops.basis.n_dofs)
    rhs = system.ops.basis.apply(system.K, z_true)
    gap = float(np.max(np.abs(solve(replace(system, b=rhs)).coeffs - z_true)))
    _record("manufactured round trip", gap, 1e-10)
    assert gap <= 1e-10
    assert np.all(solve(replace(system, b=np.zeros_like(system.b))).coeffs == 0.0)
    s1, s3 = solve(system), solve(replace(system, b=3.0 * system.b))
    lin = float(np.max(np.abs(s3.coeffs - 3.0 * s1.coeffs)))
    _record("load-scaling linearity", lin, 1e-10)
    assert lin <= 1e-10


@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_criterion_11_cosserat_limit(regime):
    p = MaterialParams.for_regime(regime, mu=1.0, lam=1.0, L_c=0.1)
    loads = LoadData(
        f=lambda x: np.stack([np.ones(x.shape[0]), x[:, 0], -x[:, 1]], axis=-1),
        m_body=lambda x: np.stack([x[:, 1], np.ones(x.shape[0]),
                                   np.zeros(x.shape[0])], axis=-1),
    )
    mu_cs = [10.0, 100.0, 1000.0, 10000.0]
    checks = {c.name: c for c in cosserat_checks(
        n_modes=3, quadrature_order=None, load=loads, mu_c_values=mu_cs, material=p)}
    errors = checks["errors_strictly_decreasing"].details["errors"]
    order = checks["convergence_order"].value
    print(f"cosserat sweep errors ({regime}): {errors}; observed order {order:.3f}")
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert abs(order - 1.0) <= 0.3
    assert [c.name for c in checks.values() if not c.passed] == []
    # the limit is bvp-solve's solution: the errors against the clamped system
    system = assemble(p, loads, 3)
    ref = solve(system).coeffs
    for mc, err in zip(mu_cs, errors):
        pc = replace(p, mu_c=mc)
        [(sol, _)] = solver._reduced_solves(pc, solver._problem(pc, loads, 3, None), [mc])
        d = sol.coeffs - ref
        mass = lambda v: v @ system.ops.basis.apply(system.ops.value, v)
        assert err == pytest.approx(np.sqrt(mass(d) / mass(ref)), rel=1e-9)


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 12, "cases": 200}), encoding="utf-8")
    for command in ("verify-operators", "energy-report"):
        cli_run(command, str(cfg), str(tmp_path / "a"))
        cli_run(command, str(cfg), str(tmp_path / "b"))
        a = (tmp_path / "a" / f"{command}.csv").read_bytes()
        b = (tmp_path / "b" / f"{command}.csv").read_bytes()
        assert a == b, f"{command} CSV not byte-identical"
    print("determinism: byte-identical CSV for repeated runs")
