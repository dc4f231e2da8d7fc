"""Acceptance gate: one test (one pass/fail line under ``pytest -v``) per
shipped guarantee, at the stated tolerances.  Each test prints its worst
observed gap for the record."""

import json
from dataclasses import replace

import numpy as np
import pytest

from costress.cli import (
    bc_audit_checks,
    bvp_checks,
    conformal_checks,
    cosserat_checks,
    energy_checks,
    hd_postulate_checks,
    kinematics_checks,
    operator_checks,
    run as cli_run,
    work_identity_check,
)
from costress.constitutive import LoadData, MaterialParams
from costress.fields import (
    ConformalField,
    fd_derivative_oracle,
    grad_curl_from_grad2,
    make_polynomial,
)
from costress import solver
from costress.solver import assemble, solve
from costress.surfaces import BoxFace, SphericalCap
from costress.tensors import anti, sym
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
    tol_closed, tol_fd = 1e-12, 1e-8
    checks = {c.name: c for c in kinematics_checks(
        seed=2, fields=100, points=20, degree=4, fd_fields=100,
        tolerances={"kinematics_closed": tol_closed, "kinematics_fd": tol_fd})}
    closed = max(checks["curl_vs_axl_skw_grad"].gap, checks["grad_curl_trace_free"].gap)
    _record("kinematic identities closed-form (100 fields x 20 points)", closed, tol_closed)
    _record("kinematic identities FD (100 fields)", checks["grad_curl_fd_oracle"].gap, tol_fd)
    assert [c.name for c in checks.values() if not c.passed] == []
    assert closed <= tol_closed and checks["grad_curl_fd_oracle"].gap <= tol_fd


def test_criterion_03_energy_form_equivalence():
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.6)
    checks = {c.name: c for c in energy_checks(seed=3, cases=1000, material=p,
                                               tolerances={"energy_forms": 1e-12})}
    worst = checks["curvature_three_forms"].gap
    _record("curvature energy three forms (1000 inputs)", worst, 1e-12)
    assert worst <= 1e-12
    assert [c.name for c in checks.values() if not c.passed] == []


def test_criterion_04_conformal_invariance():
    tol, worst = 1e-12, 0.0
    for regime in ("modified", "hd"):
        p = MaterialParams.for_regime(regime, mu=1.1, lam=0.9, L_c=0.8)
        for seed in range(100):
            checks, metrics = conformal_checks(seed=seed, points=20, material=p,
                                               tolerances={"conformal": tol})
            assert [c.name for c in checks if not c.passed] == [], (regime, seed)
            worst = max([worst] + [c.gap for c in checks])
            if regime == "modified":    # the modified energy is blind to the field
                w = float(np.max(np.abs(metrics["points"]["w_curv"])))
                worst = max(worst, w)
                assert w <= tol, seed
    _record("conformal invariance (2 regimes x 100 fields x 20 points)", worst, tol)
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
    # the divergence rows only: with quartic fields the work identity needs
    # an order above 16 on the hemisphere
    u, du = make_polynomial(6, 4), make_polynomial(7, 4)
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    tols = {"surface_divergence": 1e-6, "stokes": 1e-6, "work_identity": 1e-6}
    worst = 0.0
    for patch in (FACE, HEMI):
        checks = {c.name: c for c in bc_audit_checks(u, du, patch, 16, p, tols)}
        div, ladder = checks["surface_divergence"], checks["surface_divergence_monotone"]
        worst = max(worst, div.gap)
        # monotone decrease over the order ladder, ending at order 16 or finer
        assert div.passed and ladder.passed, (div, ladder)
    _record("surface divergence theorem at order 16", worst, 1e-6)
    assert worst <= 1e-6


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
    u = ConformalField(w_axial=(1.0, -0.5, 0.25), a_hat=anti((0.2, 0.1, -0.3)), p_hat=0.4)
    checks = {c.name: c for c in hd_postulate_checks(
        field=u, patch=HEMI, quadrature_order=16, material=p,
        tolerances={"normal_moment": 1e-14})}
    sup, residual = checks["normal_moment_sup"], checks["residual_work_norm"]
    _record("hd postulate sup|<m.n,n>|", sup.value, 1e-14)
    print(f"hd postulate residual work norm: {residual.value:.6e}")
    assert sup.passed and sup.value <= 1e-14
    assert residual.passed and residual.value > 1e3 * 1e-14


def test_criterion_09_well_posedness_evidence():
    def rows(regime, n_modes):
        p = MaterialParams.for_regime(regime, mu=1.0, lam=1.0, L_c=0.1)
        return {c.name: c for c in bvp_checks(seed=9, n_modes=n_modes, load=LoadData(),
                                              material=p, tolerances={"solver_residual": 1e-10})}

    lam_mins = [rows(regime, 3)["coercivity_lambda_min"] for regime in ("gkmt", "modified", "hd")]
    korns = [rows("gkmt", n)["korn_constant"] for n in (2, 3, 4)]
    kappa = [c.value for c in korns]
    print(f"lambda_min gkmt/modified/hd: {[c.value for c in lam_mins]}; Korn N=2..4: {kappa}")
    assert all(c.passed and c.value > 0.0 for c in lam_mins)
    # Korn's inequality from below, Korn's equality on the clamped span from above
    assert all(c.passed and 1.0 <= k <= np.sqrt(2.0) * (1.0 + 1e-9) for c, k in zip(korns, kappa))
    assert max(kappa) - min(kappa) <= 0.05  # stable under refinement


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
        n_modes=3, load=loads, mu_c_values=mu_cs, material=p)}
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
        [(sol, _)] = solver._reduced_solves(p, solver._problem(p, loads, 3), [mc])
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
