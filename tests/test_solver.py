import itertools
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import Legendre
from numpy.polynomial.legendre import legder, legval

from costress import solver
from costress.constitutive import LoadData, MaterialParams, equilibrium_residual, w_curv, w_lin
from costress.fields import fd_derivative_oracle, fd_partial, grad_curl_from_grad2, make_polynomial
from costress.tensors import EPS3, skw, sym, tr
from costress.solver import (
    ClampedBasis,
    DegenerateCosseratError,
    WellPosednessError,
    assemble,
    coercivity_evidence,
    cosserat_limit_sweep,
    korn_constant,
    solve,
)
from oracles import cube_gauss

PARAMS = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=0.1)


def _loads():
    return LoadData(f=lambda x: np.stack(
        [np.ones(x.shape[0]), x[:, 0], -x[:, 1] * x[:, 2]], axis=-1))


@pytest.fixture(scope="module")
def system():
    return assemble(PARAMS, _loads(), 3)


class TestBasis:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_table_second_derivatives_are_scaled_legendre(self, n):
        # Shen's beta_k'' = sqrt(2k + 5) P_{k+2}(2x - 1); a repeated coordinate reads the
        # entries of its first occurrence
        x = np.linspace(0.0, 1.0, 7)
        T = ClampedBasis(n).table(np.concatenate([x, x[::-1]]), 2)
        assert T.shape == (3, n, 14)
        want = [np.sqrt(2 * k + 5) * Legendre.basis(k + 2)(2.0 * x - 1.0) for k in range(n)]
        assert np.max(np.abs(T[2, :, :7] - want)) <= 1e-12
        assert np.array_equal(T[..., 7:], T[..., 6::-1])

    def test_clamped_boundary_values(self):
        basis = ClampedBasis(3)
        z = np.random.default_rng(0).normal(size=basis.n_dofs)
        u = basis.solution_field(z)
        for x in [np.array([0.0, 0.5, 0.5]), np.array([0.5, 1.0, 0.5]),
                  np.array([0.3, 0.2, 0.0])]:
            assert np.allclose(u.value(x), 0.0, atol=1e-12)
            # the normal derivative also vanishes (each mode has a double root at 0 and 1)
            assert np.allclose(u.grad(x), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_shen_modes(self, n):
        # Shen's modes: the Gram of beta'' is the identity (measured <= 1.6e-14 off it
        # up to N = 14), each mode and its derivative vanish at x = 0, 1, and the span is
        # that of the bubble x Legendre modes x^2 (1-x)^2 P_k(2x - 1)
        basis = ClampedBasis(n)
        A22 = solver._tabulate(basis, n + 4)[2][2, 2]
        assert np.max(np.abs(A22 - np.eye(n))) <= 3e-14
        for k in (0, 1):
            ends = legval(np.array([-1.0, 1.0]), legder(basis._coef, k, scl=2.0))
            assert np.max(np.abs(ends)) <= 1e-15, k
        bubble = Legendre.fromroots([0.0, 0.0, 1.0, 1.0], domain=[0.0, 1.0])
        old = np.zeros_like(basis._coef)
        for k in range(n):
            c = (bubble * Legendre.basis(k, domain=[0.0, 1.0])).coef
            old[: len(c), k] = c
        X = np.linalg.lstsq(basis._coef, old, rcond=None)[0]
        assert np.max(np.abs(basis._coef @ X - old)) <= 1e-14 * np.max(np.abs(old))

    def test_shen_modes_do_not_depend_on_n(self):
        # the basis is hierarchical: span(N - 1) is a subspace of span(N), bit for bit
        small, large = ClampedBasis(4)._coef, ClampedBasis(8)._coef
        assert np.array_equal(large[:, :4], np.pad(small, [(0, 4), (0, 0)]))

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
        derivs = [u.value(x), u.grad(x), u.grad2(x), u.grad3(x), u.grad4(x)]
        zc = z.reshape(3, basis.n_scalar)
        for order, got in enumerate(derivs[:3]):
            ref = np.moveaxis(np.tensordot(zc, basis.derivatives(x, order), axes=(1, 0)), 0, 1)
            assert got.shape == (5,) + (3,) * (order + 1)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), order
        for order, tol in ((1, 1e-11), (2, 1e-9), (3, 1e-6), (4, 1e-8)):
            ref = fd_derivative_oracle(u, x, order)
            assert np.max(np.abs(derivs[order] - ref)) <= tol * np.max(np.abs(ref)), order
        ref = np.stack([fd_partial(u.grad3, x, (a,), 1e-3) for a in range(3)], axis=-1)
        assert np.max(np.abs(derivs[4] - ref)) <= 1e-12 * np.max(np.abs(ref))


def _oracle_tables(basis, pts, sqrt_w=None):
    """Tables of every vector mode at the points, each point's entries times
    ``sqrt_w``, from the 3d tabulation of the scalar modes: the value, gradient,
    curl / 2, gradient of the curl and curl curl, (D, Q, 3) or (D, Q, 3, 3)."""
    B, dB, d2B = (basis.derivatives(pts, k) for k in range(3))
    if sqrt_w is not None:
        B *= sqrt_w
        dB *= sqrt_w[:, None]
        d2B *= sqrt_w[:, None, None]
    M, Q = B.shape
    D = 3 * M
    val, half_curl, curl_curl = (np.zeros((D, Q, 3)) for _ in range(3))
    grad, grad_curl = (np.zeros((D, Q, 3, 3)) for _ in range(2))
    lap = np.einsum("mqaa->mq", d2B)
    for c in range(3):
        sl = slice(c * M, (c + 1) * M)
        val[sl, :, c] = B
        grad[sl, :, c, :] = dB
        # curl(b e_c)_i = eps_ijc d_j b: eps_abc = 1 = -eps_bac, zero else
        a, b = (c + 1) % 3, (c + 2) % 3
        half_curl[sl, :, a] = 0.5 * dB[:, :, b]
        half_curl[sl, :, b] = -0.5 * dB[:, :, a]
        grad_curl[sl, :, a] = d2B[:, :, b]
        grad_curl[sl, :, b] = -d2B[:, :, a]
        # curl curl (b e_c) = grad d_c b - lap b e_c
        curl_curl[sl] = d2B[:, :, :, c]
        curl_curl[sl, :, c] -= lap
    return SimpleNamespace(val=val, grad=grad, half_curl=half_curl, grad_curl=grad_curl,
                           curl_curl=curl_curl)


def _tables(n):
    basis = ClampedBasis(n)
    pts, W = cube_gauss(basis.n_modes + 4)
    return basis, pts, W, _oracle_tables(basis, pts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curl_tables_match_levi_civita_contraction(n):
    basis, pts, _, tables = _tables(n)
    dB, d2B = basis.derivatives(pts, 1), basis.derivatives(pts, 2)
    M = basis.n_scalar
    for c in range(3):
        sl = slice(c * M, (c + 1) * M)
        half_curl = 0.5 * np.einsum("ij,mqj->mqi", EPS3[:, :, c], dB)
        grad_curl = np.einsum("ij,mqja->mqia", EPS3[:, :, c], d2B)
        assert np.array_equal(tables.half_curl[sl], half_curl)
        assert np.array_equal(tables.grad_curl[sl], grad_curl)


def _kinds(t):
    """The oracle tables, the divergence and the sym/skw parts of the two gradients."""
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
    weighted = _kinds(_oracle_tables(basis, pts, np.sqrt(W)))
    for name, X in _kinds(t).items():
        X3 = X.reshape(X.shape[0], X.shape[1], -1)
        ref = np.einsum("pqi,rqi->pr", X3, X3 * W[None, :, None])
        got = solver._gram(weighted[name].reshape(1, len(X), -1))[0]
        assert np.array_equal(got, got.T), name
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 1e-13, name


@pytest.mark.parametrize("n", range(2, 8))
def test_load_work_is_the_optimized_einsum_bit_for_bit(n):
    # the fixed tensordot chain of ``_work`` against einsum's own optimized path over
    # every partial of both load operators
    ops = solver._operators(n)
    q = ops.wT.shape[2]
    F = np.random.default_rng(n).normal(size=(q ** 3, 3))
    for op in ("value", "half_curl"):
        ref = np.zeros((3, n, n, n))
        for c in range(3):
            for i, s, a in solver._OPS[op](c):
                ref[c] += s * np.einsum("aq,br,gs,qrsi->iabg", *(ops.wT[a.count(d)] for d in range(3)),
                                        F.reshape(q, q, q, 3), optimize=True)[i]
        assert np.array_equal(solver._work(ops.wT, op, F), ref.ravel()), op


def test_gram_of_a_stack_is_each_matrix_optimized_einsum_bit_for_bit():
    X = np.random.default_rng(0).normal(size=(3, 24, 23))
    assert all(np.array_equal(g, np.einsum("pq,rq->pr", x, x, optimize=True))
               for g, x in zip(solver._gram(X), X))


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_solves_equal_the_per_member_loop(monkeypatch, n):
    # solve factors each orbit's matrix once and solves for all its members in one LU
    # call, their loads as columns; apply multiplies all members at once.  Against one
    # solve and one product per member: measured <= 1.4e-15 apart, N <= 8
    system = assemble(PARAMS, _couple_loads(), n)
    basis, K, b = system.ops.basis, system.K, system.b
    factored, raw = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: (factored.append(a), raw(a))[1])
    z = solve(system).coeffs
    monkeypatch.undo()
    assert len(factored) == len(basis.orbits) and all(map(np.array_equal, factored, K))
    ref, Kz = np.empty_like(z), np.empty_like(z)
    for i, x in zip(_members(basis), _per_member(basis, K)):
        ref[i] = np.linalg.solve(x, b[i])
        Kz[i] = x @ z[i]
    assert _rel_gap(z, ref) <= 1e-13 and _rel_gap(basis.apply(K, z), Kz) <= 1e-13
    assert solver._extreme_eig(K, top=True) == max(np.linalg.eigvalsh(x)[-1] for x in K)


class TestSolve:
    def test_round_trip_manufactured(self, system):
        rng = np.random.default_rng(5)
        z_true = rng.normal(size=system.ops.basis.n_dofs)
        sol = solve(replace(system, b=system.ops.basis.apply(system.K, z_true)))
        assert np.max(np.abs(sol.coeffs - z_true)) <= 1e-10

    def test_zero_load_gives_zero(self, system):
        sol = solve(replace(system, b=np.zeros(system.ops.basis.n_dofs)))
        assert np.all(sol.coeffs == 0.0)

    def test_linearity(self, system):
        s1 = solve(system)
        s3 = solve(replace(system, b=3.0 * system.b))
        assert np.allclose(s3.coeffs, 3.0 * s1.coeffs, atol=1e-10)

    def test_residual_and_energy_identity(self, system):
        sol = solve(system)
        assert sol.residual <= 1e-10
        assert sol.energy == pytest.approx(-0.5 * system.b @ sol.coeffs, rel=1e-12)

    def test_stiffness_symmetry(self, system):
        gap = np.linalg.norm([np.linalg.norm(K - _T(K)) for K in system.K]) \
            / np.linalg.norm([np.linalg.norm(K) for K in system.K])
        assert gap <= 1e-12

    def test_minimality_against_perturbations(self, system):
        sol = solve(system)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=sol.coeffs.size)
            z = sol.coeffs + 1e-3 * v / np.linalg.norm(v)
            pert = 0.5 * z @ system.ops.basis.apply(system.K, z) - system.b @ z
            assert sol.energy < pert

    def test_solution_field_reconstruction(self, system):
        sol = solve(system)
        x = np.array([0.3, 0.6, 0.2])
        B = system.ops.basis.derivatives(x[None, :], 0)
        M = system.ops.basis.n_scalar
        direct = np.array([sol.coeffs[c * M:(c + 1) * M] @ B[:, 0] for c in range(3)])
        assert np.allclose(system.ops.basis.solution_field(sol.coeffs).value(x), direct, atol=1e-12)

    def test_non_spd_raises_with_eigenvalue(self, system):
        bad = assemble(PARAMS, _loads(), 2)
        shift = 2.0 * max(np.linalg.eigvalsh(K).max() for K in bad.K)
        bad.K = [K - shift * np.eye(K.shape[-1]) for K in bad.K]
        with pytest.raises(WellPosednessError) as exc:
            solve(bad)
        assert exc.value.eigenvalue < 0.0


@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_coercivity_positive_all_regimes(regime):
    p = MaterialParams.for_regime(regime, mu=1.0, lam=1.0, L_c=0.1)
    s = assemble(p, _loads(), 3)
    assert coercivity_evidence(s) > 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_coercivity_from_the_held_mass_factors_is_bit_identical(n):
    # lambda_min from the operators' held inverse factors of the mass, cold and warm,
    # against the pencil reduced on freshly factored representative blocks, bit for bit
    solver._operators.cache_clear()
    system = assemble(PARAMS, _couple_loads(), n)
    fresh = []
    for K, M in zip(system.K, system.ops.value):
        inv_L = np.linalg.inv(np.linalg.cholesky(M))
        fresh.append(np.linalg.eigvalsh(inv_L @ K @ inv_L.T)[0])
    assert coercivity_evidence(system) == coercivity_evidence(system) == min(fresh)


def _couple_loads():
    g = lambda x: np.stack([x[:, 1], np.ones(x.shape[0]), x[:, 0] * x[:, 2]], axis=-1)
    return LoadData(f=_loads().f, m_body=g)


@lru_cache
def _oracle(n):
    """Grams of the vector modes by a general weighted product over the
    unweighted oracle tables at the lowest exact order: of u, grad u, sym grad u,
    div u, curl u / 2 (H), curl curl u / 2, sym grad curl u and skw grad curl u;
    the force and couple works of ``_couple_loads``; and an L2-orthonormal basis
    C of the rotations curl u / 2, one mode per row."""
    basis = ClampedBasis(n)
    pts, W = cube_gauss(basis.n_modes + 4)
    t = _oracle_tables(basis, pts)

    def gram(X):
        X = X.reshape(X.shape[0], X.shape[1], -1)
        return np.einsum("pqi,rqi->pr", X, X * W[None, :, None], optimize=True)

    def work(X, F):
        return np.einsum("pqi,qi->p", X, F * W[:, None])

    loads = _couple_loads()
    H = gram(t.half_curl)
    vals, vecs = scipy.linalg.eigh(H)
    keep = vals > 1e-10 * vals[-1]
    return dict(
        mass=gram(t.val), grad=gram(t.grad), sym_grad=gram(sym(t.grad)), div=gram(tr(t.grad)),
        H=H, curl=0.25 * gram(t.curl_curl), sym_grad_curl=gram(sym(t.grad_curl)),
        skw_grad_curl=gram(skw(t.grad_curl)),
        f=work(t.val, loads.force(pts)), g=work(t.half_curl, loads.couple(pts)),
        C=(vecs[:, keep] / np.sqrt(vals[keep])).T)


def _T(X):
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(X, -1, -2)


def _members(basis):
    """The dofs of each parity class, member after member of orbit after orbit."""
    return [row for i in basis.orbits for row in i]


def _per_member(basis, form):
    """A form held as one matrix per orbit, that matrix once per member, in the order
    of ``_members``."""
    return [x for i, x in zip(basis.orbits, form) for _ in i]


def _flat(x):
    return np.concatenate([y.ravel() for y in x]) if isinstance(x, (list, tuple)) else x


def _rel_gap(a, b):
    """max |a - b| / max |b|, over all the blocks of two lists of parity blocks."""
    a, b = _flat(a), _flat(b)
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _on_blocks(basis, X):
    """The diagonal parity block of every class of an oracle's D x D form, in the order
    of ``_members``."""
    return [X[np.ix_(i, i)] for i in _members(basis)]


def _dense(basis, form):
    """The D x D oracle matrix of a form held as one matrix per orbit."""
    X = np.zeros((basis.n_dofs,) * 2)
    for i, x in zip(_members(basis), _per_member(basis, form)):
        X[np.ix_(i, i)] = x
    return X


def _dense_columns(basis, form):
    """The (D, R) oracle matrix of W or B held as one matrix per orbit, the members'
    columns one member after another."""
    blocks = _per_member(basis, form)
    X = np.zeros((basis.n_dofs, sum(x.shape[1] for x in blocks)))
    X[np.concatenate(_members(basis))] = scipy.linalg.block_diag(*blocks)
    return X


def _outside_blocks(basis):
    """Mask of the (dof, dof) pairs in different parity classes."""
    key = np.zeros(basis.n_dofs, dtype=int)
    for b, i in enumerate(_members(basis)):
        key[i] = b
    return key[:, None] != key[None, :]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_stiffness_is_the_constitutive_form_and_depends_on_alpha1_plus_alpha2(regime, n):
    G = _oracle(n)
    grad, E, div = G["grad"], G["sym_grad"], G["div"]
    S, A = G["sym_grad_curl"], G["skw_grad_curl"]
    # the null Lagrangian: |sym grad curl u|^2 and |skw grad curl u|^2 integrate
    # alike over the clamped span; Korn's equality for grad u
    assert _rel_gap(S, A) <= 1e-12
    assert _rel_gap(2.0 * E - div, grad) <= 1e-12
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    k = p.mu * p.L_c ** 2
    ref = 2.0 * p.mu * E + p.lam * div + 0.5 * k * (p.alpha1 * S + p.alpha2 * A)
    system = assemble(p, _loads(), n)
    assert _rel_gap(_per_member(system.ops.basis, system.K), _on_blocks(system.ops.basis, ref)) <= 1e-12
    mean = 0.5 * (p.alpha1 + p.alpha2)
    K_mean = assemble(replace(p, alpha1=mean, alpha2=mean), _loads(), n).K
    assert _rel_gap(system.K, K_mean) <= 1e-12
    korn = np.sqrt(scipy.linalg.eigh(grad, E, eigvals_only=True)[-1])
    assert system.ops.korn == pytest.approx(korn, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_sum_factorized_forms_match_the_3d_quadrature_oracle(regime, n):
    # every Kronecker-product Gram and sum-factorized load work against plain
    # 3d quadrature over the oracle tables, on every member of every orbit, and each
    # orbit's matrix exactly symmetric; the oracle's entries outside the parity blocks
    # are round-off
    G = _oracle(n)
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    basis = ClampedBasis(n)
    *_, A = solver._tabulate(basis, basis.n_modes + 6)
    forms = {name: solver._form(basis, A, op) for name, op in (
        ("mass", "value"), ("grad", "grad"), ("div", "div"), ("curl", "curl_curl"))}
    forms["curl"] = [0.25 * X for X in forms["curl"]]
    system = assemble(p, _couple_loads(), n)
    cosserat, elastic, force, couple = solver._problem(p, _couple_loads(), n)
    W, B, _ = zip(*system.ops.rotations)
    E = p.mu * G["grad"] + (p.mu + p.lam) * G["div"]
    pairs = {
        **{name: (X, G[name]) for name, X in forms.items()},
        "K": (system.K, E + (p.alpha1 + p.alpha2) * p.mu * p.L_c ** 2 * G["curl"]),
        "M": (system.ops.value, G["mass"]), "E": (elastic, E),
    }
    pairs = {name: (_per_member(basis, X), _on_blocks(basis, ref)) for name, (X, ref) in pairs.items()}
    pairs.update({
        "b": (system.b, G["f"] + G["g"]), "force": (force, G["f"]), "couple": (couple, G["g"]),
        "B": (_per_member(basis, B),
              [H @ w for H, w in zip(_on_blocks(basis, G["H"]), _per_member(basis, W))]),
    })
    for name, (got, ref) in pairs.items():
        assert _rel_gap(got, ref) <= 1e-12, name
    for X in (*forms.values(), system.K, system.ops.value, elastic):
        assert all(np.array_equal(x, _T(x)) for x in X)
    outside = _outside_blocks(basis)
    for name in ("mass", "grad", "sym_grad", "div", "H", "curl", "sym_grad_curl", "skw_grad_curl"):
        assert np.max(np.abs(G[name][outside])) <= 1e-14 * np.max(np.abs(G[name])), name
    # both solvers start from one clamped problem
    assert cosserat.ops is system.ops
    assert all(map(np.array_equal, cosserat.K, system.K)) and np.array_equal(cosserat.b, system.b)
    assert system.ops.korn == korn_constant(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_solver_gauss_order_is_exact_for_the_forms_and_the_cli_loads(n):
    # the solver's order is N + 6 for every job: the modes have degree <= N + 3 and every
    # CLI load degree <= 6, so no higher order changes a Gram or a load work beyond
    # round-off.  At N = 1 a degree-6 load needs more than the stiffness's minimum N + 4
    basis, floor = ClampedBasis(n), n + 4
    ops = ("value", "grad", "div", "curl_curl")

    def grams(order):
        A = solver._tabulate(basis, order)[2]
        return [solver._form(basis, A, op) for op in ops]

    ref = grams(n + 6)
    for order in range(floor + 1, floor + 13):
        for op, got, want in zip(ops, grams(order), ref):
            assert _rel_gap(got, want) <= 3e-14, (order, op)

    def work(order, F):
        pts, wT, _ = solver._tabulate(basis, order)
        return [solver._work(wT, op, F(pts)) for op in ("value", "half_curl")]

    for degree in range(7):
        # the couple work of a constant load vanishes: both works on the force work's scale
        F = make_polynomial(degree, degree).value
        got, want = np.stack(work(n + 6, F)), np.stack(work(n + 20, F))
        assert np.max(np.abs(got - want)) <= 3e-14 * np.max(np.abs(want)), degree
    if n == 1:
        F = make_polynomial(6, 6).value
        got, want = work(floor, F)[0], work(n + 20, F)[0]
        assert np.max(np.abs(got - want)) > 1e-8 * np.max(np.abs(want))


def _kron_form(A, op):
    """The np.kron oracle of ``solver._form``: the D x D form, each Kronecker product
    as nested np.kron."""
    n = A.shape[-1]
    F = np.zeros((3, n ** 3, 3, n ** 3))
    for c, d in itertools.product(range(3), repeat=2):
        for (i, s, a), (j, r, b) in itertools.product(solver._OPS[op](c), solver._OPS[op](d)):
            if i == j:
                F[c, :, d] += s * r * np.kron(A[a.count(0), b.count(0)], np.kron(
                    A[a.count(1), b.count(1)], A[a.count(2), b.count(2)]))
    return 0.5 * (F + F.transpose(2, 3, 0, 1)).reshape(3 * n ** 3, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_broadcast_kronecker_products_are_np_kron(n):
    # the oracle's entries outside the parity blocks are exact zeros, and the
    # builder's representative blocks are the oracle's, bit for bit
    basis = ClampedBasis(n)
    *_, A = solver._tabulate(basis, basis.n_modes + 6)
    outside = _outside_blocks(basis)
    for op in solver._OPS:
        F = _kron_form(A, op)
        assert not F[outside].any(), op
        forms = solver._form(basis, A, op)
        assert len(forms) == len(basis.orbits), op
        assert all(np.array_equal(x, F[np.ix_(i[0], i[0])]) for x, i in zip(forms, basis.orbits)), op


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_parity_blocks_are_the_reflection_symmetries_of_the_modes(n):
    # a mode of the block (px, py, pz) satisfies R u(R x) = s u(x) for the reflection
    # R: x_d -> 1 - x_d of each axis, with s = +1 for an even axis and -1 for an odd
    basis = ClampedBasis(n)
    blocks, D = _members(basis), basis.n_dofs
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(D))
    assert len(blocks) == (3 if n == 1 else 8)
    assert max(map(len, blocks)) <= -(-D // 8) + 3 * n ** 2
    x = np.random.default_rng(n).uniform(0.0, 1.0, (7, 3))
    values = np.zeros((D, 7, 3))   # vector mode p at the points
    for c in range(3):
        values[c * n ** 3:(c + 1) * n ** 3, :, c] = basis.derivatives(x, 0)
    for d in range(3):
        y = x.copy()
        y[:, d] = 1.0 - y[:, d]
        reflected = np.zeros((D, 7, 3))
        for c in range(3):
            reflected[c * n ** 3:(c + 1) * n ** 3, :, c] = basis.derivatives(y, 0)
        reflected[:, :, d] *= -1.0
        for i in blocks:
            signs = np.sign(np.einsum("pqi,pqi->p", reflected[i], values[i]))
            assert len(set(signs)) == 1, (d, i)
            assert np.allclose(reflected[i], signs[0] * values[i], atol=1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_each_member_block_is_its_orbits_matrix(n):
    # the members' dofs partition the dofs, and through its dof map each member's block of
    # every form of the np.kron oracle is its orbit's matrix: on all 8 classes, not only on
    # the representatives (measured <= 2.3e-16 of the largest entry, N <= 8)
    basis = ClampedBasis(n)
    assert np.array_equal(np.sort(np.concatenate(_members(basis))), np.arange(basis.n_dofs))
    *_, A = solver._tabulate(basis, basis.n_modes + 6)
    for op in solver._OPS:
        F = _kron_form(A, op)
        assert _rel_gap(_per_member(basis, solver._form(basis, A, op)), _on_blocks(basis, F)) <= 1e-14, op


def test_orbits_of_the_diagonal_rotation():
    # {000}, {001, 100, 010}, {011, 101, 110}, {111}; at N = 1 only the classes e_c hold
    # a mode, one each: one orbit of three 1-dof members.  Alike in size at even N
    assert [i.shape for i in ClampedBasis(1).orbits] == [(3, 1)]
    assert [i.shape for i in ClampedBasis(3).orbits] == [(1, 12), (3, 12), (3, 9), (1, 6)]
    assert [i.shape for i in ClampedBasis(4).orbits] == [(1, 24), (3, 24), (3, 24), (1, 24)]
    assert [i.shape for i in ClampedBasis(5).orbits] == [(1, 54), (3, 51), (3, 44), (1, 36)]


def _capture_solves(monkeypatch):
    """The list that every system passed to ``solver.solve`` is appended to."""
    systems, raw = [], solver.solve

    def capturing(system):
        systems.append(system)
        return raw(system)

    monkeypatch.setattr(solver, "solve", capturing)
    return systems


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_form_is_held_as_its_parity_blocks(monkeypatch, n):
    # each square form one (d, d) matrix per orbit i (members, d), W and B one (d, R)
    # matrix, Lambda (R,): no matrix on all the dofs, and none per member.  A mu_c sweep
    # is one stack of systems: one (S, d, d) stack per orbit, S the number of mu_c
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.5)
    system = assemble(p, _couple_loads(), n)
    problem = solver._problem(p, _couple_loads(), n)
    systems = _capture_solves(monkeypatch)
    solver._reduced_solves(p, problem, [10.0, np.inf])
    orbits, D = system.ops.basis.orbits, system.ops.basis.n_dofs
    square = {"K": system.K, "M": system.ops.value, "E": problem[1], "Cosserat K": problem[0].K}
    for name, X in square.items():
        assert [x.shape for x in X] == [(i.shape[1],) * 2 for i in orbits], name
    [sweep] = systems
    assert [x.shape for x in sweep.K] == [(2,) + (i.shape[1],) * 2 for i in orbits]
    W, B, lam = zip(*system.ops.rotations)
    ranks = [w.shape[1] for w in W]
    for X in (W, B):
        assert [x.shape for x in X] == [(i.shape[1], r) for i, r in zip(orbits, ranks)]
    assert [v.shape for v in lam] == [(r,) for r in ranks]
    assert system.b.shape == problem[2].shape == problem[3].shape == (D,) and sweep.b.shape == (2, D)


@lru_cache
def _dense_cosserat(regime, n):
    """Dense oracle of the Cosserat forms: one eigen-solve of the whole H for an
    orthonormal rotation basis C (cutoff 1e-10 of the largest eigenvalue), one of
    C curl C', and (E, B = H W, d, W' g, f) on the solver's clamped problem."""
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    system, E, force, couple = solver._problem(p, _couple_loads(), n)
    ops = system.ops
    E, grad, div, curl = (_dense(ops.basis, X) for X in (E, ops.grad, ops.div, ops.curl))
    H = 0.25 * (grad - div)
    vals, vecs = scipy.linalg.eigh(H)
    keep = vals > 1e-10 * vals[-1]
    C = (vecs[:, keep] / np.sqrt(vals[keep])).T
    lam, V = scipy.linalg.eigh(C @ curl @ C.T)
    B = H @ C.T @ V
    return p, system, grad, div, E, B, (p.alpha1 + p.alpha2) * p.mu * p.L_c ** 2 * lam, \
        V.T @ C @ couple, force


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_block_solves_match_a_dense_oracle(monkeypatch, regime, n):
    # every factorization and eigen-solve runs per parity block: against dense
    # solves and eigen-solves of the whole forms
    p, system, grad, div, E, B, d, Wg, f = _dense_cosserat(regime, n)
    basis = system.ops.basis
    K, M = _dense(basis, system.K), _dense(basis, system.ops.value)
    z = scipy.linalg.solve(K, system.b, assume_a="pos")
    assert _m_gap(solve(system).coeffs, z, M) <= 1e-12
    lam_min = scipy.linalg.eigh(K, M, eigvals_only=True)[0]
    assert coercivity_evidence(system) == pytest.approx(lam_min, rel=1e-12)
    korn = np.sqrt(scipy.linalg.eigh(grad, 0.5 * (grad + div), eigvals_only=True)[-1])
    assert korn_constant(n) == pytest.approx(korn, rel=1e-12)
    # the mu_c sweep: each reduced system, and the sweep's relative errors.  The
    # reduced systems do not depend on the choice of rotation basis; their
    # solutions do at round-off amplified by the basis's 1 / sqrt(eigenvalue)
    mu_cs = [10.0, 100.0, 1e3, 1e4]
    systems, dense = _capture_solves(monkeypatch), []
    errors, _ = cosserat_limit_sweep(p, _couple_loads(), n, mu_cs)
    [sweep] = systems  # one stack of systems, one per mu_c
    for k, mu_c in enumerate([np.inf, *mu_cs]):
        s = 1.0 / (1.0 + d / (2.0 * mu_c))
        K, b = E + (B * (d * s)) @ B.T, f + B @ (s * Wg)
        got = [X[k] for X in sweep.K]
        assert _rel_gap(_per_member(basis, got), _on_blocks(basis, K)) <= 1e-12, mu_c
        assert _rel_gap(sweep.b[k], b) <= 1e-12, mu_c
        dense.append(scipy.linalg.solve(K, b, assume_a="pos"))
    ref_errors = [_m_gap(z_mu, dense[0], M) for z_mu in dense[1:]]
    assert np.max(np.abs(np.subtract(errors, ref_errors))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_solution_energy_equals_the_constitutive_integral(regime, n):
    # z'Kz/2 at the solution against the quadrature of w_lin + w_curv on the
    # solution field at the solver's points: solver against constitutive
    # with nothing shared but the basis
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    system = assemble(p, _loads(), n)
    z = solve(system).coeffs
    u = system.ops.basis.solution_field(z)
    pts, W = cube_gauss(system.ops.wT.shape[-1])
    assert np.array_equal(pts, system.ops.pts)  # the solver's Gauss rule, bit for bit
    M = grad_curl_from_grad2(u.grad2(pts))
    assert np.max(np.abs(tr(M))) <= 1e-15
    density = w_lin(p, u.grad(pts)).value + w_curv(p, M).value
    assert 0.5 * z @ system.ops.basis.apply(system.K, z) == pytest.approx(W @ density, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
@pytest.mark.parametrize("g_seed", [None, 7], ids=["force", "force_and_couple"])
def test_load_of_a_manufactured_solution_is_its_stiffness_image(g_seed, regime, n):
    # the strong force f* = -Div(sigma - tau)(u*) - curl g / 2 of a field u* in the
    # span and a polynomial body couple g, integrated against the basis with g's work
    # against curl u / 2, is K z*: the load vector and K against the field
    # equations, and solve recovers z*
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    basis = ClampedBasis(n)
    z_star = np.random.default_rng(n).normal(size=basis.n_dofs)
    u_star = basis.solution_field(z_star)
    g = None if g_seed is None else make_polynomial(g_seed, 2)
    loads = LoadData(f=lambda x: -equilibrium_residual(p, u_star, LoadData(m_body=g), x),
                     m_body=g)
    system, *_, force, couple = solver._problem(p, loads, n)
    # b = force + couple, and with a couple the two parts cancel down to K z*
    gap = np.linalg.norm(system.b - system.ops.basis.apply(system.K, z_star))
    assert gap <= 2e-14 * (np.linalg.norm(force) + np.linalg.norm(couple))
    z = solve(system).coeffs
    assert np.linalg.norm(z - z_star) <= 1e-10 * np.linalg.norm(z_star)


class TestKorn:
    @pytest.mark.parametrize("n", [2, 3])
    def test_assembly_reports_the_same_constant(self, n):
        assert assemble(PARAMS, _loads(), n).ops.korn == pytest.approx(korn_constant(n), rel=1e-12)

    def test_value_regression_n2(self):
        # frozen: discrete Korn constant of the N = 2 clamped basis
        assert korn_constant(2) == pytest.approx(1.4071950894605856, rel=1e-10)

    def test_stable_and_bounded(self):
        vals = [korn_constant(n) for n in (2, 3, 4)]
        assert all(np.isfinite(v) and v >= 1.0 for v in vals)
        # converges towards sqrt(2) from below-ish; stable to a few percent
        assert max(vals) - min(vals) <= 0.05
        assert vals[1] == pytest.approx(np.sqrt(2.0), abs=1e-6)


def _cosserat_solve(p, loads, n, mu_c):
    """The Cosserat solution for u at mu_c, by one reduced solve of its own."""
    [(sol, _)] = solver._reduced_solves(p, solver._problem(p, loads, n), [mu_c])
    return sol.coeffs


class TestCosserat:
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
        ref = solve(assemble(PARAMS, loads, 2))
        p = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=0.1)
        rel = (np.linalg.norm(_cosserat_solve(p, loads, 2, 1e8) - ref.coeffs)
               / np.linalg.norm(ref.coeffs))
        assert rel <= 1e-6

    def test_sweep_tabulates_once(self, monkeypatch):
        solver._operators.cache_clear()  # a cold cache: the sweep's one tabulation is its own
        calls = _counting_tabulate(monkeypatch)
        cosserat_limit_sweep(PARAMS, _loads(), 2, [10.0, 100.0, 1000.0, 10000.0])
        assert len(calls) == 1

    def test_sweep_matches_independent_solves(self):
        loads = _couple_loads()
        mu_cs = [10.0, 100.0, 1000.0, 10000.0]
        errors, _ = cosserat_limit_sweep(PARAMS, loads, 2, mu_cs)
        system = assemble(PARAMS, loads, 2)
        ref, mass = solve(system).coeffs, _dense(system.ops.basis, system.ops.value)
        for mc, err in zip(mu_cs, errors):
            d = _cosserat_solve(PARAMS, loads, 2, mc) - ref
            assert err == pytest.approx(np.sqrt(d @ mass @ d / (ref @ mass @ ref)), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_sweep_rejects_degenerate_coupling_before_tabulating(self, monkeypatch, bad):
        solver._operators.cache_clear()  # a cold cache: a tabulation would fail
        monkeypatch.setattr(solver, "_tabulate", None)
        with pytest.raises(DegenerateCosseratError, match="0 < mu_c < inf"):
            cosserat_limit_sweep(PARAMS, _loads(), 2, [10.0, bad])

    @pytest.mark.parametrize("mu_cs", [[], [100.0], [100.0, 100.0]])
    def test_sweep_needs_two_distinct_couplings_before_tabulating(self, monkeypatch, mu_cs):
        solver._operators.cache_clear()  # a cold cache: a tabulation would fail
        monkeypatch.setattr(solver, "_tabulate", None)
        with pytest.raises(ValueError, match="two distinct"):
            cosserat_limit_sweep(PARAMS, _loads(), 2, mu_cs)


@pytest.mark.parametrize("n, rank", [(1, 3), (2, 24), (3, 80), (4, 184), (5, 348)])
def test_half_curl_gram_is_the_skew_half_of_korns_equality(n, rank):
    # ||curl u||^2 = ||grad u||^2 - ||div u||^2 on the clamped span, so the
    # forms take H = G(curl u / 2) from the elastic Grams; against the direct
    # Gram, through B = H W on the blocks of W
    ops = solver._operators(n)
    basis, H, (W, B, _) = ops.basis, _oracle(n)["H"], zip(*ops.rotations)
    inside = _dense_columns(basis, [np.ones(w.shape) for w in W]) > 0.0
    W, B = _dense_columns(basis, W), _dense_columns(basis, B)
    assert _rel_gap(B[inside], (H @ W)[inside]) <= 1e-13
    # the rotation basis keeps the same rank, with the null floor far below
    # the 1e-10 cutoff and the kept spectrum far above it
    vals = scipy.linalg.eigh(H, eigvals_only=True)
    kept = vals > 1e-10 * vals[-1]
    assert W.shape == (3 * n ** 3, rank) and kept.sum() == rank
    assert np.all(np.abs(vals[~kept]) <= 1e-12 * vals[-1])
    assert vals[kept][0] >= 1e-8 * vals[-1]


@pytest.mark.parametrize("n", range(1, 11))
def test_rotation_rank_is_the_span_less_the_curl_kernel(n):
    # curl u = 0 on the clamped span exactly for u = grad phi, phi vanishing to third
    # order on the boundary: (N - 2)^3 such phi, so W has 3 N^3 - (N - 2)^3 columns
    try:
        ops = solver._operators(n)
        orbits = ops.basis.orbits
        assert sum(len(i) * W.shape[1] for i, (W, _, _) in zip(orbits, ops.rotations)) \
            == 3 * n ** 3 - max(0, n - 2) ** 3
        # each member of an orbit holds the kernel modes of its H, the eigenvalues it drops
        kernel = [np.sum(vals < 1e-10 * vals.max()) for vals in
                  (np.linalg.eigvalsh(0.25 * (g - d)) for g, d in zip(ops.grad, ops.div))]
        assert sum(len(i) * k for i, k in zip(orbits, kernel)) == max(0, n - 2) ** 3
    finally:
        solver._operators.cache_clear()  # the N = 10 operators hold about 50 MB


@pytest.mark.parametrize("mu_c", [1e4, np.inf])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduced_stiffness_is_exactly_symmetric(monkeypatch, n, mu_c):
    # Cholesky reads one triangle, so a stiffness symmetric only to
    # round-off would make the solution depend on which
    problem = solver._problem(PARAMS, _loads(), n)
    systems = _capture_solves(monkeypatch)
    [(sol, _)] = solver._reduced_solves(PARAMS, problem, [mu_c])
    K = systems[0].K
    assert all(np.array_equal(x, _T(x)) for x in K)
    assert np.array_equal(solve(replace(systems[0], K=[_T(x) for x in K])).coeffs[0], sol.coeffs)


def _m_gap(z, ref, mass):
    d = z - ref
    return np.sqrt(d @ mass @ d / (ref @ mass @ ref))


@lru_cache
def _block_system_parts(regime, n):
    """The mu_c-independent parts of the oracle of
    ``test_reduced_solve_matches_the_block_system`` and the solver's material and
    clamped problem, shared by its mu_c values."""
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    G = _oracle(n)
    C = G["C"]
    return dict(
        E=p.mu * G["grad"] + (p.mu + p.lam) * G["div"], H=G["H"], HC=G["H"] @ C.T,
        curl=(p.alpha1 + p.alpha2) * p.mu * p.L_c ** 2 * C @ G["curl"] @ C.T,
        load=np.concatenate([G["f"], C @ G["g"]]),
        params=p, problem=solver._problem(p, _couple_loads(), n))


@pytest.mark.parametrize("mu_c", [10.0, 100.0, 1e3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_reduced_solve_matches_the_block_system(regime, n, mu_c):
    # the oracle: the Cosserat functional
    # Pi = u'Eu/2 + mu_c ||curl u / 2 - a||^2 + (alpha1 + alpha2) mu L_c^2 ||curl a||^2 / 2
    #      - f.u - int g.a
    # in (u, a), a on the orthonormal rotation modes C, factored as one
    # (D + R)-square block system
    G, parts, D = _oracle(n), _block_system_parts(regime, n), 3 * n ** 3
    A = np.block([[parts["E"] + 2.0 * mu_c * parts["H"], -2.0 * mu_c * parts["HC"]],
                  [-2.0 * mu_c * parts["HC"].T,
                   2.0 * mu_c * np.eye(len(G["C"])) + parts["curl"]]])
    z = np.linalg.solve(A, parts["load"])
    [(sol, a)] = solver._reduced_solves(parts["params"], parts["problem"], [mu_c])
    assert _m_gap(sol.coeffs, z[:D], G["mass"]) <= 1e-12
    # the microrotations as combinations of the curl u_p / 2, in the H-norm; the
    # block system's own round-off in a grows linearly with mu_c
    ops = parts["problem"][0].ops
    W = _dense_columns(ops.basis, [w for w, _, _ in ops.rotations])
    assert _m_gap(W @ a, G["C"].T @ z[D:], G["H"]) <= max(1e-12, 1e-14 * mu_c)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
@pytest.mark.parametrize("loads", [_loads, _couple_loads], ids=["force", "force_and_couple"])
def test_infinite_coupling_is_the_constrained_system(loads, regime, n):
    # microrotation = curl u / 2: stiffness E + (alpha1 + alpha2) mu L_c^2 G(curl curl u / 2),
    # and the couple works against curl u / 2; the clamped problem of assemble
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.5)
    G = _oracle(n)
    K = p.mu * G["grad"] + (p.mu + p.lam) * G["div"] \
        + (p.alpha1 + p.alpha2) * p.mu * p.L_c ** 2 * G["curl"]
    g = G["g"] if loads is _couple_loads else 0.0
    ref = np.linalg.solve(K, G["f"] + g)
    [(sol, _)] = solver._reduced_solves(p, solver._problem(p, loads(), n), [np.inf])
    assert _m_gap(sol.coeffs, ref, G["mass"]) <= 1e-12
    assert _m_gap(sol.coeffs, solve(assemble(p, loads(), n)).coeffs, G["mass"]) <= 1e-12


def _counting_tabulate(monkeypatch):
    """The list that every ``solver._tabulate`` call is appended to."""
    calls, raw = [], solver._tabulate

    def counting(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(solver, "_tabulate", counting)
    return calls


def _cold(job):
    """``job()`` on an empty operator cache."""
    solver._operators.cache_clear()
    return job()


class TestOperatorCache:
    def test_a_warm_assembly_tabulates_nothing_and_is_bit_identical(self, monkeypatch):
        calls = _counting_tabulate(monkeypatch)
        job = lambda: assemble(PARAMS, _couple_loads(), 3)
        _cold(job)
        assert len(calls) == 1
        warm = job()
        assert len(calls) == 1
        cold = _cold(job)   # its own, fresh entry
        assert all(map(np.array_equal, warm.K, cold.K))
        assert all(map(np.array_equal, warm.ops.value, cold.ops.value))
        assert np.array_equal(warm.b, cold.b) and warm.ops.korn == cold.ops.korn

    def test_a_cold_build_forms_only_the_representative_classes(self, monkeypatch):
        # one matrix per orbit and form, of its representative class: the builder sizes
        # its products by the classes it is given, one per orbit
        built, raw = [], solver._form
        monkeypatch.setattr(solver, "_form", lambda *a: (built.append(raw(*a)), built[-1])[1])
        ops = _cold(lambda: solver._operators(5))
        orbits = ops.basis.orbits
        assert len(ops.basis._parities) == len(ops.basis._slots) == len(orbits) == 4
        assert len(built) == 4  # grad, div, curl curl and the mass
        for forms in built:
            assert [x.shape for x in forms] == [(i.shape[1],) * 2 for i in orbits]
        ops.rotations, ops.mass_factors, ops.korn
        solver._operators(5)
        assert len(built) == 4

    def test_a_warm_sweep_is_bit_identical(self):
        mu_cs = [10.0, 100.0, 1e3]
        job = lambda: cosserat_limit_sweep(PARAMS, _couple_loads(), 3, mu_cs)
        cold = _cold(job)
        assert job() == cold
        assert _cold(lambda: (assemble(PARAMS, _loads(), 3), job())[1]) == cold

    def test_materials_share_one_entry(self, monkeypatch):
        # the operators are material-free, and K depends on alpha1 + alpha2 only
        calls = _counting_tabulate(monkeypatch)
        hd, modified = (MaterialParams.for_regime(r, mu=1.3, lam=0.7, L_c=0.5) for r in ("hd", "modified"))
        a = _cold(lambda: assemble(hd, _loads(), 3))
        b = assemble(modified, _loads(), 3)
        assert len(calls) == 1 and solver._operators.cache_info().currsize == 1
        assert all(map(np.array_equal, a.K, b.K))

    def test_at_most_two_entries_are_kept(self):
        # and the last two N stay warm, as for the two N of a galerkin run
        solver._operators.cache_clear()
        for n in (2, 3, 4):
            korn_constant(n)
        assert solver._operators.cache_info().currsize == 2
        misses = solver._operators.cache_info().misses
        korn_constant(3), korn_constant(4)
        assert solver._operators.cache_info().misses == misses

    def test_every_shared_array_is_read_only(self):
        ops = solver._operators(3)
        W, B, lam = zip(*ops.rotations)
        arrays = [ops.pts, ops.wT, *ops.basis.orbits, *W, *B, *lam,
                  *ops.grad, *ops.div, *ops.curl, *ops.value, *ops.mass_factors]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0

    def test_a_job_gets_fresh_writable_arrays(self):
        # mutating what a job gets back leaves the next job's system as it was; the
        # operators it holds are shared and read-only
        def job():
            return solver._problem(PARAMS, _couple_loads(), 3)

        ref, ref_elastic, ref_force, ref_couple = job()
        system, elastic, force, couple = job()
        assert system.ops is ref.ops
        for X in (*system.K, system.b, *elastic, force, couple):
            X[...] = np.nan
        again, again_elastic, again_force, again_couple = job()
        assert all(map(np.array_equal, again.K, ref.K)) and np.array_equal(again.b, ref.b)
        assert all(map(np.array_equal, again_elastic, ref_elastic))
        assert np.array_equal(again_force, ref_force) and np.array_equal(again_couple, ref_couple)
