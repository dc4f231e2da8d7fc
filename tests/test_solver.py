from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from costress import solver
from costress.constitutive import LoadData, MaterialParams, equilibrium_residual, w_curv, w_lin
from costress.fields import fd_derivative_oracle, grad_curl_from_grad2
from costress.tensors import EPS3, skw, sym, tr
from costress.solver import (
    ClampedBasis,
    DegenerateCosseratError,
    WellPosednessError,
    assemble,
    coercivity_evidence,
    cosserat_constrained_solve,
    cosserat_limit_sweep,
    cosserat_solve,
    korn_constant,
    solve,
)

PARAMS = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=0.1)


def _loads():
    return LoadData(f=lambda x: np.stack(
        [np.ones(x.shape[0]), x[:, 0], -x[:, 1] * x[:, 2]], axis=-1))


@pytest.fixture(scope="module")
def system():
    return assemble(PARAMS, _loads(), 3)


class TestBasis:
    def test_clamped_boundary_values(self):
        basis = ClampedBasis(3)
        z = np.random.default_rng(0).normal(size=basis.n_dofs)
        u = basis.solution_field(z)
        for x in [np.array([0.0, 0.5, 0.5]), np.array([0.5, 1.0, 0.5]),
                  np.array([0.3, 0.2, 0.0])]:
            assert np.allclose(u.value(x), 0.0, atol=1e-12)
            # the normal derivative also vanishes (squared bubble)
            assert np.allclose(u.grad(x), 0.0, atol=1e-12)

    def test_quadrature_exactness_floor(self):
        with pytest.raises(ValueError, match="below the exactness minimum"):
            assemble(PARAMS, _loads(), 3, quadrature_order=5)

    def test_dof_count(self):
        assert ClampedBasis(2).n_dofs == 24
        assert ClampedBasis(3).n_dofs == 81

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_solution_field_matches_fd_and_the_tables(self, n):
        # each derivative of sum_p z_p u_p against the FD oracle, and the
        # value, gradient and second gradient against the scalar tables
        # contracted with z
        basis = ClampedBasis(n)
        z = np.random.default_rng(n).normal(size=basis.n_dofs)
        u = basis.solution_field(z)
        x = np.random.default_rng(10 + n).uniform(0.05, 0.95, (5, 3))
        derivs = [u.value(x), u.grad(x), u.grad2(x), u.grad3(x)]
        zc = z.reshape(3, basis.n_scalar)
        for order, (got, table) in enumerate(zip(derivs, basis.scalar_tables(x))):
            ref = np.moveaxis(np.tensordot(zc, table, axes=(1, 0)), 0, 1)
            assert got.shape == (5,) + (3,) * (order + 1)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), order
        for order, tol in ((1, 1e-11), (2, 1e-9), (3, 1e-6)):
            ref = fd_derivative_oracle(u, x, order)
            assert np.max(np.abs(derivs[order] - ref)) <= tol * np.max(np.abs(ref)), order


def _tables(n):
    basis = ClampedBasis(n)
    pts, W = basis.quadrature(basis.min_quadrature_order)
    return basis, pts, W, solver._dof_tables(basis, pts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curl_tables_match_levi_civita_contraction(n):
    basis, pts, _, tables = _tables(n)
    _, dB, d2B = basis.scalar_tables(pts)
    M = basis.n_scalar
    for c in range(3):
        sl = slice(c * M, (c + 1) * M)
        half_curl = 0.5 * np.einsum("ij,mqj->mqi", EPS3[:, :, c], dB)
        grad_curl = np.einsum("ij,mqja->mqia", EPS3[:, :, c], d2B)
        assert np.array_equal(tables.half_curl[sl], half_curl)
        assert np.array_equal(tables.grad_curl[sl], grad_curl)


def _kinds(t):
    """The tables the solver forms Grams of, and sym/skw ones it no longer does."""
    C = t.grad_curl
    return {
        "val": t.val, "grad": t.grad, "sym_grad": 0.5 * (t.grad + np.swapaxes(t.grad, -1, -2)),
        "div": np.einsum("pqii->pq", t.grad), "half_curl": t.half_curl,
        "sym_grad_curl": 0.5 * (C + np.swapaxes(C, -1, -2)),
        "skw_grad_curl": 0.5 * (C - np.swapaxes(C, -1, -2)), "curl_curl": t.curl_curl,
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_matches_plain_einsum(n):
    # the Gram of the sqrt-weighted tables against the plain weighted sum
    # over the unweighted ones
    basis, pts, W, t = _tables(n)
    weighted = _kinds(solver._dof_tables(basis, pts, np.sqrt(W)))
    for name, X in _kinds(t).items():
        X3 = X.reshape(X.shape[0], X.shape[1], -1)
        ref = np.einsum("pqi,rqi->pr", X3, X3 * W[None, :, None])
        got = solver._gram(weighted[name])
        assert np.array_equal(got, got.T), name
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 1e-13, name


class TestSolve:
    def test_round_trip_manufactured(self, system):
        rng = np.random.default_rng(5)
        z_true = rng.normal(size=system.basis.n_dofs)
        sol = solve(system, rhs=system.K @ z_true)
        assert np.max(np.abs(sol.coeffs - z_true)) <= 1e-10

    def test_zero_load_gives_zero(self, system):
        sol = solve(system, rhs=np.zeros(system.basis.n_dofs))
        assert np.all(sol.coeffs == 0.0)

    def test_linearity(self, system):
        s1 = solve(system)
        s3 = solve(system, rhs=3.0 * system.b)
        assert np.allclose(s3.coeffs, 3.0 * s1.coeffs, atol=1e-10)

    def test_residual_and_energy_identity(self, system):
        sol = solve(system)
        assert sol.residual <= 1e-10
        assert sol.energy == pytest.approx(-0.5 * system.b @ sol.coeffs, rel=1e-12)

    def test_stiffness_symmetry(self, system):
        gap = np.linalg.norm(system.K - system.K.T) / np.linalg.norm(system.K)
        assert gap <= 1e-12

    def test_minimality_against_perturbations(self, system):
        sol = solve(system)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=sol.coeffs.size)
            z = sol.coeffs + 1e-3 * v / np.linalg.norm(v)
            pert = 0.5 * z @ (system.K @ z) - system.b @ z
            assert sol.energy < pert

    def test_solution_field_reconstruction(self, system):
        sol = solve(system)
        x = np.array([0.3, 0.6, 0.2])
        B, _, _ = system.basis.scalar_tables(x[None, :])
        M = system.basis.n_scalar
        direct = np.array([sol.coeffs[c * M:(c + 1) * M] @ B[:, 0] for c in range(3)])
        assert np.allclose(system.basis.solution_field(sol.coeffs).value(x), direct, atol=1e-12)

    def test_non_spd_raises_with_eigenvalue(self, system):
        bad = assemble(PARAMS, _loads(), 2)
        bad.K = bad.K - 2.0 * np.max(np.linalg.eigvalsh(bad.K)) * np.eye(bad.K.shape[0])
        with pytest.raises(WellPosednessError) as exc:
            solve(bad)
        assert exc.value.eigenvalue < 0.0


@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_coercivity_positive_all_regimes(regime):
    p = MaterialParams.for_regime(regime, mu=1.0, lam=1.0, L_c=0.1)
    s = assemble(p, _loads(), 3)
    assert coercivity_evidence(s) > 0.0


@lru_cache
def _reference_grams(n):
    """Grams of the constitutive law's own terms, by a general weighted
    product over unweighted tables at the lowest exact order:
    grad u, sym grad u, div u, sym grad curl u and skw grad curl u."""
    basis = ClampedBasis(n)
    pts, W = basis.quadrature(basis.min_quadrature_order)
    t = solver._dof_tables(basis, pts)

    def gram(X):
        X = X.reshape(X.shape[0], X.shape[1], -1)
        return np.einsum("pqi,rqi->pr", X, X * W[None, :, None], optimize=True)

    return (gram(t.grad), gram(sym(t.grad)), gram(tr(t.grad)),
            gram(sym(t.grad_curl)), gram(skw(t.grad_curl)))


def _rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_stiffness_is_the_constitutive_form_and_depends_on_alpha1_plus_alpha2(regime, n):
    grad, E, div, S, A = _reference_grams(n)
    # the null Lagrangian: |sym grad curl u|^2 and |skw grad curl u|^2 integrate
    # alike over the clamped span; Korn's equality for grad u
    assert _rel_gap(S, A) <= 1e-12
    assert _rel_gap(2.0 * E - div, grad) <= 1e-12
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    k = p.mu * p.L_c ** 2
    ref = 2.0 * p.mu * E + p.lam * div + 0.5 * k * (p.alpha1 * S + p.alpha2 * A)
    system = assemble(p, _loads(), n)
    assert _rel_gap(system.K, ref) <= 1e-12
    mean = 0.5 * (p.alpha1 + p.alpha2)
    K_mean = assemble(replace(p, alpha1=mean, alpha2=mean), _loads(), n).K
    assert _rel_gap(system.K, K_mean) <= 1e-12
    korn = np.sqrt(scipy.linalg.eigh(grad, E, eigvals_only=True)[-1])
    assert system.korn == pytest.approx(korn, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_solution_energy_equals_the_constitutive_integral(regime, n):
    # z'Kz/2 at the solution against the quadrature of w_lin + w_curv on the
    # solution field at the solver's points: solver against constitutive
    # with nothing shared but the basis
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    system = assemble(p, _loads(), n)
    z = solve(system).coeffs
    u = system.basis.solution_field(z)
    pts, W = system.basis.quadrature(system.quadrature_order)
    M = grad_curl_from_grad2(u.grad2(pts))
    assert np.max(np.abs(tr(M))) <= 1e-15
    density = w_lin(p, u.grad(pts)).value + w_curv(p, M).value
    assert 0.5 * z @ system.K @ z == pytest.approx(W @ density, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_load_of_a_manufactured_solution_is_its_stiffness_image(regime, n):
    # the strong force f* = -Div(sigma - tau)(u*) of a field u* in the span,
    # integrated against the basis, is K z*: the load vector and K against
    # the field equations, and solve recovers z*
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    basis = ClampedBasis(n)
    z_star = np.random.default_rng(n).normal(size=basis.n_dofs)
    u_star = basis.solution_field(z_star)
    loads = LoadData(f=lambda x: -equilibrium_residual(p, u_star, LoadData(), x))
    system = assemble(p, loads, n)
    Kz = system.K @ z_star
    assert np.linalg.norm(system.b - Kz) <= 1e-12 * np.linalg.norm(Kz)
    z = solve(system).coeffs
    assert np.linalg.norm(z - z_star) <= 1e-12 * np.linalg.norm(z_star)


class TestKorn:
    @pytest.mark.parametrize("n", [2, 3])
    def test_assembly_reports_the_same_constant(self, n):
        assert assemble(PARAMS, _loads(), n).korn == pytest.approx(korn_constant(n), rel=1e-12)

    def test_value_regression_n2(self):
        # frozen: discrete Korn constant of the N = 2 clamped basis
        assert korn_constant(2) == pytest.approx(1.4071950894605856, rel=1e-10)

    def test_stable_and_bounded(self):
        vals = [korn_constant(n) for n in (2, 3, 4)]
        assert all(np.isfinite(v) and v >= 1.0 for v in vals)
        # converges towards sqrt(2) from below-ish; stable to a few percent
        assert max(vals) - min(vals) <= 0.05
        assert vals[1] == pytest.approx(np.sqrt(2.0), abs=1e-6)


class TestCosserat:
    def test_degenerate_coupling_rejected(self):
        p = MaterialParams.for_regime("gkmt", L_c=0.1, mu_c=0.0)
        with pytest.raises(DegenerateCosseratError):
            cosserat_solve(p, _loads(), 2)

    def test_penalty_approaches_constraint(self):
        g = lambda x: np.stack([x[:, 1], np.ones(x.shape[0]),
                                np.zeros(x.shape[0])], axis=-1)
        loads = LoadData(f=_loads().f, m_body=g)
        errors, slope = cosserat_limit_sweep(PARAMS, loads, 2,
                                             [10.0, 100.0, 1000.0])
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert slope == pytest.approx(1.0, abs=0.3)

    def test_large_penalty_matches_constrained(self):
        loads = _loads()
        ref = cosserat_constrained_solve(PARAMS, loads, 2)
        p = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=0.1, mu_c=1e8)
        sol = cosserat_solve(p, loads, 2)
        rel = (np.linalg.norm(sol.u_coeffs - ref.coeffs)
               / np.linalg.norm(ref.coeffs))
        assert rel <= 1e-6

    def test_microrotation_tracks_half_curl(self):
        # at large mu_c the microrotation coefficients converge to the
        # representation of curl u / 2 in the rotation basis
        p = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=0.1, mu_c=1e8)
        sol = cosserat_solve(p, _loads(), 2)
        assert np.linalg.norm(sol.a_coeffs) > 0.0

    def test_sweep_tabulates_once(self, monkeypatch):
        calls = []

        def counting(basis, pts, *weights):
            calls.append(pts.shape[0])
            return raw(basis, pts, *weights)

        raw = solver._dof_tables
        monkeypatch.setattr(solver, "_dof_tables", counting)
        cosserat_limit_sweep(PARAMS, _loads(), 2, [10.0, 100.0, 1000.0, 10000.0])
        assert len(calls) == 1

    def test_sweep_matches_independent_solves(self):
        g = lambda x: np.stack([x[:, 1], np.ones(x.shape[0]), x[:, 0] * x[:, 2]], axis=-1)
        loads = LoadData(f=_loads().f, m_body=g)
        mu_cs = [10.0, 100.0, 1000.0, 10000.0]
        errors, _ = cosserat_limit_sweep(PARAMS, loads, 2, mu_cs)
        ref = cosserat_constrained_solve(PARAMS, loads, 2).coeffs
        mass = assemble(PARAMS, loads, 2).M
        for mc, err in zip(mu_cs, errors):
            d = cosserat_solve(replace(PARAMS, mu_c=mc), loads, 2).u_coeffs - ref
            assert err == pytest.approx(np.sqrt(d @ mass @ d / (ref @ mass @ ref)), rel=1e-12)

    def test_sweep_rejects_degenerate_coupling_before_tabulating(self, monkeypatch):
        monkeypatch.setattr(solver, "_dof_tables", None)
        with pytest.raises(DegenerateCosseratError):
            cosserat_limit_sweep(PARAMS, _loads(), 2, [10.0, 0.0])

    @pytest.mark.parametrize("mu_cs", [[], [100.0], [100.0, 100.0]])
    def test_sweep_needs_two_distinct_couplings_before_tabulating(self, monkeypatch, mu_cs):
        monkeypatch.setattr(solver, "_dof_tables", None)
        with pytest.raises(ValueError, match="two distinct"):
            cosserat_limit_sweep(PARAMS, _loads(), 2, mu_cs)


@pytest.mark.parametrize("n, rank", [(1, 3), (2, 24), (3, 80), (4, 184), (5, 348)])
def test_half_curl_gram_is_the_skew_half_of_korns_equality(n, rank):
    # ||curl u||^2 = ||grad u||^2 - ||div u||^2 on the clamped span, so the
    # forms take G(curl u / 2) from the elastic Grams; against the direct Gram
    forms = solver._cosserat_forms(PARAMS, _loads(), n, None)
    *_, tables = solver._tabulate(ClampedBasis(n), None)
    assert _rel_gap(forms.half_curl, solver._gram(tables.half_curl)) <= 1e-13
    # the rotation basis keeps the same rank, with the null floor far below
    # the 1e-10 cutoff and the kept spectrum far above it
    vals = scipy.linalg.eigh(forms.half_curl, eigvals_only=True)
    kept = vals > 1e-10 * vals[-1]
    assert forms.C.shape == (rank, 3 * n ** 3) and kept.sum() == rank
    assert np.all(np.abs(vals[~kept]) <= 1e-12 * vals[-1])
    assert vals[kept][0] >= 1e-8 * vals[-1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_penalty_matrix_is_exactly_symmetric(monkeypatch, n):
    # Cholesky reads one triangle, so a penalty matrix symmetric only to
    # round-off would make the solution depend on which
    forms = solver._cosserat_forms(PARAMS, _loads(), n, None)
    assert np.array_equal(forms.curl_a, forms.curl_a.T)
    systems = []

    def capturing(system):
        systems.append(system)
        return raw(system)

    raw = solver.solve
    monkeypatch.setattr(solver, "solve", capturing)
    sol = solver._penalty_solve(forms, replace(PARAMS, mu_c=1e4))
    K = systems[0].K
    assert np.array_equal(K, K.T)
    flipped = raw(replace(systems[0], K=K.T))
    assert np.array_equal(flipped.coeffs, np.concatenate([sol.u_coeffs, sol.a_coeffs]))
