"""Galerkin solver on the unit cube for the fourth-order couple stress
problem and its Cosserat penalty approximation.

The displacement ansatz is a tensor product of squared-bubble times
Legendre polynomials, which is conforming for the clamped problem
(u = 0 and grad u . n = 0 on the boundary).  One tabulation of its 1d
Legendre series by Clenshaw recurrence, with no power coefficients, gives
both the quadrature tables and the solution fields.  Everything is assembled
with tensorized Gauss quadrature that is exact for the polynomial
integrands at the default order, from tables that carry the square roots
of the weights.  On the clamped span, ||grad u||^2 = 2 ||sym grad u||^2 -
||div u||^2 (Korn's equality), and v = curl u vanishes on the boundary
and is divergence free, so ||sym grad v||^2 = ||skw grad v||^2 =
||curl v||^2 / 2 (a null Lagrangian).
"""

from __future__ import annotations

import functools
import importlib
import itertools
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy  # not scipy.linalg: _tabulate loads it, so commands that never solve skip it
from numpy.polynomial import Legendre
from numpy.polynomial.legendre import legder, leggauss, legval
from numpy.typing import NDArray

from .constitutive import LoadData, MaterialParams
from .fields import DisplacementField
from .tensors import tr

__all__ = [
    "ClampedBasis",
    "CosseratSolution",
    "DegenerateCosseratError",
    "GalerkinSolution",
    "GalerkinSystem",
    "WellPosednessError",
    "assemble",
    "coercivity_evidence",
    "cosserat_constrained_solve",
    "cosserat_limit_sweep",
    "cosserat_solve",
    "korn_constant",
    "solve",
]

class WellPosednessError(RuntimeError):
    """The assembled stiffness matrix is not positive definite."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateCosseratError(ValueError):
    """The Cosserat rotational coupling is absent or negative."""


class ClampedBasis:
    """Tensor-product polynomial basis with clamped boundary values.

    One-dimensional modes are beta_k(x) = x^2 (1-x)^2 P_k(2x - 1) for
    k = 0..N-1, as Legendre series on [0, 1]; every mode and its first
    derivative vanish at x = 0, 1.
    Scalar modes are the N^3 tensor products, vector modes attach a
    Cartesian direction (component-major ordering).
    """

    def __init__(self, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode per direction")
        self.n_modes = int(n_modes)
        self.n_scalar = self.n_modes ** 3
        self.n_dofs = 3 * self.n_scalar
        bubble = Legendre.fromroots([0.0, 0.0, 1.0, 1.0], domain=[0.0, 1.0])
        #: Legendre coefficients of the 1d modes in t = 2x - 1, one column per mode
        self._coef = np.zeros((self.n_modes + 4, self.n_modes))
        for k in range(self.n_modes):
            c = (bubble * Legendre.basis(k, domain=[0.0, 1.0])).coef
            self._coef[: len(c), k] = c

    # -- quadrature ---------------------------------------------------------

    @property
    def min_quadrature_order(self) -> int:
        """Smallest Gauss order exact for the stiffness integrands."""
        return self.n_modes + 4

    def quadrature(self, order: int):
        """Tensorized Gauss rule on the unit cube: (points, weights)."""
        x, w = leggauss(order)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        return pts, np.einsum("i,j,k->ijk", w, w, w).ravel()

    # -- tabulation ----------------------------------------------------------

    def derivatives(self, pts: NDArray, order: int, z: NDArray | None = None) -> NDArray:
        """Partial derivatives of one order (0: values) at points (..., 3): of every
        scalar mode, shape (M, ...) + (3,) * order with M = N^3, or, given coefficients
        z (3 M), of the field sum_p z_p u_p, shape (..., 3) + (3,) * order.  Each distinct
        partial is one tensor product of 1d tables; its symmetric entries are copies."""
        pts = np.asarray(pts, dtype=float)
        lead, x, n = pts.shape[:-1], pts.reshape(-1, 3), self.n_modes
        # tabs[d][k]: k-th derivative of each 1d mode at coordinate d, (N, Q); a Gauss grid
        # has only Q^(1/3) distinct values per coordinate, so the series run on those
        tabs = []
        for d in range(3):
            nodes, at = np.unique(x[:, d], return_inverse=True)
            tabs.append([legval(2.0 * nodes - 1.0, legder(self._coef, k, scl=2.0)).take(at, axis=1)
                         for k in range(order + 1)])
        if z is None:  # every scalar mode
            spec, head, flat, shape = "aq,bq,gq->abgq", (), (n ** 3, len(x)), (n ** 3,) + lead
        else:          # one vector field
            spec, head, flat, shape = "cabg,aq,bq,gq->qc", (np.reshape(z, (3, n, n, n)),), \
                (len(x), 3), lead + (3,)
        out = np.empty(flat + (3,) * order)
        for combo in itertools.combinations_with_replacement(range(3), order):
            v = np.einsum(spec, *head, *(tabs[d][combo.count(d)] for d in range(3)), optimize=True)
            for perm in set(itertools.permutations(combo)):
                out[(..., *perm)] = v.reshape(flat)
        return out.reshape(shape + (3,) * order)

    def scalar_tables(self, pts: NDArray):
        """Scalar mode tables (B, dB, d2B) at points (Q, 3): (M, Q), (M, Q, 3), (M, Q, 3, 3)."""
        return tuple(self.derivatives(pts, k) for k in range(3))

    def solution_field(self, z: NDArray) -> DisplacementField:
        """Displacement field sum_p z_p u_p of a coefficient vector (3 M)."""
        return _BasisField(self, np.asarray(z, dtype=float))


class _BasisField(DisplacementField):
    """The field sum_p z_p u_p of a clamped basis: its value and each gradient
    contract z with the basis tabulation."""

    def __init__(self, basis: ClampedBasis, z: NDArray):
        self.value, self.grad, self.grad2, self.grad3 = (
            functools.partial(basis.derivatives, order=k, z=z) for k in range(4))


@dataclass
class _DofTables:
    """Quadrature-point tables of all vector degrees of freedom."""

    val: NDArray        # (D, Q, 3)
    grad: NDArray       # (D, Q, 3, 3)
    half_curl: NDArray  # (D, Q, 3)   axl(skw grad u) = curl u / 2
    grad_curl: NDArray  # (D, Q, 3, 3)
    curl_curl: NDArray  # (D, Q, 3)


def _dof_tables(basis: ClampedBasis, pts: NDArray, sqrt_w: NDArray | None = None) -> _DofTables:
    """Vector dof tables at the points, each point's entries times ``sqrt_w``."""
    B, dB, d2B = basis.scalar_tables(pts)
    if sqrt_w is not None:  # on the scalar tables, before the 27-component scatter
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
    return _DofTables(val=val, grad=grad, half_curl=half_curl,
                      grad_curl=grad_curl, curl_curl=curl_curl)


def _tabulate(basis: ClampedBasis, quadrature_order: int | None):
    """(order, pts, sqrt_w, tables) of a basis, the tables weighted.  The Gauss order
    defaults to two above the exactness minimum; one below it is rejected."""
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    if order < basis.min_quadrature_order:
        raise ValueError(f"quadrature order {order} below the exactness minimum "
                         f"{basis.min_quadrature_order} for N = {basis.n_modes}")
    # load LAPACK here, before the first Gram: loaded later, while numpy's BLAS
    # threads still spin after a product, it took 25-60 ms longer on two cores
    importlib.import_module("scipy.linalg")
    pts, W = basis.quadrature(order)
    sqrt_w = np.sqrt(W)
    return order, pts, sqrt_w, _dof_tables(basis, pts, sqrt_w)


def _gram(X: NDArray) -> NDArray:
    """L2 Gram matrix sum_q <X_p(q), X_r(q)> of a weighted (D, Q, ...) table.
    On one flat operand (no unit axis, which einsum would copy), einsum with
    ``optimize`` runs a BLAS symmetric rank-k update: half the flops of a
    general product, and an exactly symmetric result."""
    X = X.reshape(X.shape[0], -1)
    return np.einsum("pq,rq->pr", X, X, optimize=True)


def _work(X: NDArray, F: NDArray, sqrt_w: NDArray) -> NDArray:
    """Load work sum_q W_q <X_p(q), F(q)> of a weighted (D, Q, 3) table against F."""
    return np.einsum("pqi,qi->p", X, F * sqrt_w[:, None])


def _elastic_form(params: MaterialParams, tables: _DofTables):
    """Classical stiffness mu G(grad u) + (mu + lam) G(div u), by Korn's equality
    2 mu G(sym grad u) + lam G(div u), and the two Grams it is built from."""
    grad, div = _gram(tables.grad), _gram(tr(tables.grad))
    return params.mu * grad + (params.mu + params.lam) * div, grad, div


def _korn(grad_gram: NDArray, div_gram: NDArray) -> float:
    """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the span,
    with G(sym grad u) = (G(grad u) + G(div u)) / 2 by Korn's equality."""
    top = scipy.linalg.eigh(grad_gram, 0.5 * (grad_gram + div_gram), eigvals_only=True,
                            subset_by_index=[len(grad_gram) - 1] * 2)
    return float(np.sqrt(top[0]))


@dataclass
class GalerkinSystem:
    """Assembled discrete problem: K z = b minimizes I = z'Kz/2 - b'z."""

    params: MaterialParams
    basis: ClampedBasis
    K: NDArray
    M: NDArray          # L2 mass matrix of the vector basis
    b: NDArray
    quadrature_order: int
    #: discrete Korn constant of the basis span from the same tabulation;
    #: set by ``assemble``, None for systems built directly
    korn: float | None = dc_field(default=None, init=False)


def assemble(params: MaterialParams, loads: LoadData, n_modes: int,
             quadrature_order: int | None = None) -> GalerkinSystem:
    """Assemble stiffness, mass and load for the clamped problem.

    By the null Lagrangian the curvature block is (alpha1 + alpha2) mu L_c^2 / 4
    times the curl curl Gram: K depends on alpha1 + alpha2 only, so ``hd`` and
    ``modified`` materials with equal sums share one stiffness.
    """
    basis = ClampedBasis(n_modes)
    order, pts, sqrt_w, tables = _tabulate(basis, quadrature_order)
    K, grad, div = _elastic_form(params, tables)
    K += 0.25 * (params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2 \
        * _gram(tables.curl_curl)
    system = GalerkinSystem(params=params, basis=basis, K=K, M=_gram(tables.val),
                            b=_work(tables.val, loads.force(pts), sqrt_w),
                            quadrature_order=order)
    system.korn = _korn(grad, div)
    return system


@dataclass
class GalerkinSolution:
    coeffs: NDArray
    energy: float
    residual: float


def solve(system: GalerkinSystem, rhs: NDArray | None = None) -> GalerkinSolution:
    """Solve K z = b by Cholesky factorization, which reads one triangle of
    the symmetric K.

    Raises
    ------
    WellPosednessError
        If K is not symmetric positive definite; the smallest
        eigenvalue is attached to the exception.
    """
    # the transpose view of the symmetric K is the same matrix, C-ordered
    # for an assembled K, so K @ z below runs as row dot products
    K = system.K.T
    b = system.b if rhs is None else np.asarray(rhs, dtype=float)
    try:
        cf = scipy.linalg.cho_factor(K)
    except np.linalg.LinAlgError as exc:
        lam_min = float(scipy.linalg.eigh(K, eigvals_only=True, subset_by_index=[0, 0])[0])
        raise WellPosednessError(
            f"stiffness not positive definite (lambda_min = {lam_min:.3e})", lam_min
        ) from exc
    z = scipy.linalg.cho_solve(cf, b)
    res = np.linalg.norm(K @ z - b) / max(1.0, np.linalg.norm(b))
    energy = float(0.5 * z @ (K @ z) - b @ z)
    return GalerkinSolution(coeffs=z, energy=energy, residual=float(res))


def coercivity_evidence(system: GalerkinSystem) -> float:
    """Smallest generalized eigenvalue of (K, M): the discrete coercivity
    constant with respect to the L2 norm."""
    vals = scipy.linalg.eigh(system.K, system.M, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])


def korn_constant(n_modes: int, quadrature_order: int | None = None) -> float:
    """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the
    clamped basis span (unit cube, L2 norms); ``assemble`` reports the same
    value as ``GalerkinSystem.korn``."""
    _, _, _, tables = _tabulate(ClampedBasis(n_modes), quadrature_order)
    return _korn(_gram(tables.grad), _gram(tr(tables.grad)))


# -- Cosserat penalty problem -------------------------------------------------


@dataclass
class CosseratSolution:
    u_coeffs: NDArray
    a_coeffs: NDArray
    energy: float


@dataclass
class _CosseratForms:
    """The mu_c-independent parts of the Cosserat problem, from one
    tabulation.  Row r of ``C`` gives the microrotation mode
    a_r = sum_p C[r, p] curl(u_p)/2; the modes are L2-orthonormal."""

    params: MaterialParams
    basis: ClampedBasis
    order: int
    elastic: NDArray    # classical stiffness form
    half_curl: NDArray  # Gram of curl u / 2
    curl: NDArray       # Gram of curl (curl u / 2)
    mass: NDArray
    force: NDArray      # force work against u
    couple: NDArray     # couple work against curl u / 2
    C: NDArray
    half_curl_a: NDArray  # half_curl @ C.T: pairing of curl u / 2 with a
    curl_a: NDArray       # C @ curl @ C.T: Gram of curl a


def _cosserat_forms(params: MaterialParams, loads: LoadData, n_modes: int,
                    quadrature_order: int | None) -> _CosseratForms:
    basis = ClampedBasis(n_modes)
    order, pts, sqrt_w, tables = _tabulate(basis, quadrature_order)
    elastic, grad, div = _elastic_form(params, tables)
    # ||curl u||^2 = ||grad u||^2 - ||div u||^2 on the clamped span, the skew
    # half of Korn's equality
    half_curl = 0.25 * (grad - div)
    curl = 0.25 * _gram(tables.curl_curl)
    # orthonormal basis of {curl u / 2 : u in span}, relative cutoff 1e-10
    vals, vecs = scipy.linalg.eigh(half_curl)
    keep = vals > 1e-10 * vals[-1]
    C = (vecs[:, keep] / np.sqrt(vals[keep])).T
    # two GEMMs leave C curl C' symmetric to round-off only; Cholesky reads one triangle
    curl_a = C @ curl @ C.T
    return _CosseratForms(
        params=params, basis=basis, order=order, elastic=elastic,
        half_curl=half_curl, curl=curl, mass=_gram(tables.val),
        force=_work(tables.val, loads.force(pts), sqrt_w),
        couple=_work(tables.half_curl, loads.couple(pts), sqrt_w),
        C=C, half_curl_a=half_curl @ C.T, curl_a=0.5 * (curl_a + curl_a.T),
    )


def _coupled(params: MaterialParams) -> MaterialParams:
    """``params``, once its Cosserat couple modulus is checked positive."""
    if params.mu_c <= 0.0:
        raise DegenerateCosseratError(
            f"mu_c = {params.mu_c} gives no rotational coupling; "
            "the microrotation field is indeterminate"
        )
    return params


def _penalty_solve(forms: _CosseratForms, params: MaterialParams) -> CosseratSolution:
    """Minimize the Cosserat functional with the couple modulus of
    ``params`` over the forms' span."""
    mu, mu_c, L = params.mu, params.mu_c, params.L_c
    C, D = forms.C, forms.basis.n_dofs
    # quadratic form z' A z with z = (u, a); curl a from curl curl u / 2
    A_ua = -2.0 * mu_c * forms.half_curl_a
    A = np.block([
        [forms.elastic + 2.0 * mu_c * forms.half_curl, A_ua],
        [A_ua.T, 2.0 * mu_c * np.eye(len(C)) + 2.0 * mu * L ** 2 * forms.curl_a],
    ])
    rhs = np.concatenate([forms.force, C @ forms.couple])
    sol = solve(GalerkinSystem(params=params, basis=forms.basis, K=2.0 * A,
                               M=np.eye(len(rhs)), b=rhs, quadrature_order=forms.order))
    z_u, z_a = sol.coeffs[:D], sol.coeffs[D:]
    return CosseratSolution(u_coeffs=z_u, a_coeffs=z_a, energy=sol.energy)


def _constrained_solve(forms: _CosseratForms) -> GalerkinSolution:
    p = forms.params
    K = 2.0 * (forms.elastic + 2.0 * p.mu * p.L_c ** 2 * forms.curl)
    return solve(GalerkinSystem(params=p, basis=forms.basis, K=K, M=forms.mass,
                                b=forms.force + forms.couple,
                                quadrature_order=forms.order))


def cosserat_solve(params: MaterialParams, loads: LoadData, n_modes: int,
                   quadrature_order: int | None = None) -> CosseratSolution:
    """Minimize the Cosserat functional with penalty modulus mu_c.

    The microrotation is discretized on the curl span of the
    displacement basis, so that the mu_c -> infinity limit of the
    discrete problem is exactly the constrained discrete problem.
    """
    forms = _cosserat_forms(_coupled(params), loads, n_modes, quadrature_order)
    return _penalty_solve(forms, params)


def cosserat_constrained_solve(params: MaterialParams, loads: LoadData,
                               n_modes: int,
                               quadrature_order: int | None = None) -> GalerkinSolution:
    """Solve the constrained limit problem (microrotation = curl u / 2).

    The couple load enters through the constraint: it performs work
    against curl u / 2.
    """
    return _constrained_solve(_cosserat_forms(params, loads, n_modes, quadrature_order))


def cosserat_limit_sweep(params: MaterialParams, loads: LoadData, n_modes: int,
                         mu_c_values, quadrature_order: int | None = None):
    """Relative L2 errors against the constrained solution over a mu_c
    sweep, plus the least-squares convergence order in 1/mu_c.

    All solves share one tabulation.  Returns (errors, order_estimate).
    """
    penalized = [_coupled(replace(params, mu_c=float(mc))) for mc in mu_c_values]
    if len({p.mu_c for p in penalized}) < 2:
        raise ValueError(f"a convergence order needs two distinct mu_c values, got {mu_c_values!r}")
    forms = _cosserat_forms(params, loads, n_modes, quadrature_order)
    ref = _constrained_solve(forms).coeffs
    ref_norm = float(np.sqrt(ref @ (forms.mass @ ref)))
    errors = []
    for p in penalized:
        d = _penalty_solve(forms, p).u_coeffs - ref
        errors.append(float(np.sqrt(d @ (forms.mass @ d))) / ref_norm)
    x = np.log(1.0 / np.asarray(mu_c_values, dtype=float))
    slope = float(np.polyfit(x, np.log(errors), 1)[0])
    return errors, slope
