"""Galerkin solver on the unit cube for the fourth-order couple stress
problem and its Cosserat penalty approximation.

The displacement ansatz is a tensor product of squared-bubble times
Legendre polynomials, which is conforming for the clamped problem
(u = 0 and grad u . n = 0 on the boundary).  Everything is assembled
with tensorized Gauss quadrature that is exact for the polynomial
integrands at the default order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly
from numpy.typing import NDArray

from .constitutive import LoadData, MaterialParams
from .fields import PolynomialField

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

#: coefficients of the clamping window x^2 (1 - x)^2 in the power basis
_BUBBLE = np.array([0.0, 0.0, 1.0, -2.0, 1.0])


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
    k = 0..N-1; every mode and its first derivative vanish at x = 0, 1.
    Scalar modes are the N^3 tensor products, vector modes attach a
    Cartesian direction (component-major ordering).
    """

    def __init__(self, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode per direction")
        self.n_modes = int(n_modes)
        self.n_scalar = self.n_modes ** 3
        self.n_dofs = 3 * self.n_scalar
        #: 1d power-basis coefficients, shape (N, N + 4)
        self.coeffs_1d = np.zeros((self.n_modes, self.n_modes + 4))
        for k in range(self.n_modes):
            leg = nleg.Legendre.basis(k, domain=[0.0, 1.0]).convert(kind=np.polynomial.Polynomial)
            self.coeffs_1d[k, : k + 5] = npoly.polymul(_BUBBLE, leg.coef)
        self.degree = self.n_modes + 3

    # -- quadrature ---------------------------------------------------------

    @property
    def min_quadrature_order(self) -> int:
        """Smallest Gauss order exact for the stiffness integrands."""
        return self.n_modes + 4

    def quadrature(self, order: int):
        """Tensorized Gauss rule on the unit cube: (points, weights)."""
        x, w = np.polynomial.legendre.leggauss(order)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
        W = np.einsum("i,j,k->ijk", w, w, w).ravel()
        return pts, W

    # -- tabulation ----------------------------------------------------------

    def _tables_1d(self, nodes: NDArray):
        """(values, d1, d2) of all 1d modes at the nodes, each (N, len)."""
        V = np.array([npoly.polyval(nodes, c) for c in self.coeffs_1d])
        D1 = np.array([npoly.polyval(nodes, npoly.polyder(c)) for c in self.coeffs_1d])
        D2 = np.array([npoly.polyval(nodes, npoly.polyder(c, 2)) for c in self.coeffs_1d])
        return V, D1, D2

    def scalar_tables(self, pts: NDArray):
        """Scalar mode tables at arbitrary points of the cube.

        Returns (B, dB, d2B) with shapes (M, Q), (M, Q, 3), (M, Q, 3, 3)
        where M = N^3.
        """
        tabs = [self._tables_1d(pts[:, d]) for d in range(3)]
        V = [t[0] for t in tabs]
        D1 = [t[1] for t in tabs]
        D2 = [t[2] for t in tabs]
        N, Q = self.n_modes, pts.shape[0]
        M = self.n_scalar

        def prod(fx, fy, fz):
            return np.einsum("aq,bq,cq->abcq", fx, fy, fz).reshape(M, Q)

        B = prod(V[0], V[1], V[2])
        dB = np.empty((M, Q, 3))
        dB[:, :, 0] = prod(D1[0], V[1], V[2])
        dB[:, :, 1] = prod(V[0], D1[1], V[2])
        dB[:, :, 2] = prod(V[0], V[1], D1[2])
        d2B = np.empty((M, Q, 3, 3))
        d2B[:, :, 0, 0] = prod(D2[0], V[1], V[2])
        d2B[:, :, 1, 1] = prod(V[0], D2[1], V[2])
        d2B[:, :, 2, 2] = prod(V[0], V[1], D2[2])
        d2B[:, :, 0, 1] = d2B[:, :, 1, 0] = prod(D1[0], D1[1], V[2])
        d2B[:, :, 0, 2] = d2B[:, :, 2, 0] = prod(D1[0], V[1], D1[2])
        d2B[:, :, 1, 2] = d2B[:, :, 2, 1] = prod(V[0], D1[1], D1[2])
        return B, dB, d2B

    def solution_field(self, z: NDArray) -> PolynomialField:
        """Displacement field of a coefficient vector, as a closed-form
        polynomial field."""
        z = np.asarray(z, dtype=float).reshape(3, self.n_modes, self.n_modes, self.n_modes)
        P = self.coeffs_1d
        coeffs = np.einsum("cabg,ai,bj,gk->cijk", z, P, P, P)
        return PolynomialField(coeffs, degree=self.degree)


@dataclass
class _DofTables:
    """Quadrature-point tables of all vector degrees of freedom."""

    val: NDArray        # (D, Q, 3)
    grad: NDArray       # (D, Q, 3, 3)
    half_curl: NDArray  # (D, Q, 3)   axl(skw grad u) = curl u / 2
    grad_curl: NDArray  # (D, Q, 3, 3)
    curl_curl: NDArray  # (D, Q, 3)


def _dof_tables(basis: ClampedBasis, pts: NDArray) -> _DofTables:
    B, dB, d2B = basis.scalar_tables(pts)
    M, Q = B.shape
    D = 3 * M
    val = np.zeros((D, Q, 3))
    grad = np.zeros((D, Q, 3, 3))
    half_curl = np.zeros((D, Q, 3))
    grad_curl = np.zeros((D, Q, 3, 3))
    curl_curl = np.zeros((D, Q, 3))
    lap = np.einsum("mqaa->mq", d2B)
    eye = np.eye(3)
    from .tensors import EPS3

    for c in range(3):
        sl = slice(c * M, (c + 1) * M)
        val[sl, :, c] = B
        grad[sl, :, c, :] = dB
        # curl(b e_c)_i = eps_ijc d_j b
        half_curl[sl] = 0.5 * np.einsum("ij,mqj->mqi", EPS3[:, :, c], dB)
        grad_curl[sl] = np.einsum("ij,mqja->mqia", EPS3[:, :, c], d2B)
        # curl curl (b e_c) = grad d_c b - lap b e_c
        curl_curl[sl] = d2B[:, :, :, c] - np.einsum("mq,i->mqi", lap, eye[c])
    return _DofTables(val=val, grad=grad, half_curl=half_curl,
                      grad_curl=grad_curl, curl_curl=curl_curl)


@dataclass
class GalerkinSystem:
    """Assembled discrete problem: K z = b minimizes I = z'Kz/2 - b'z."""

    params: MaterialParams
    basis: ClampedBasis
    K: NDArray
    M: NDArray          # L2 mass matrix of the vector basis
    b: NDArray
    quadrature_order: int


def _grams(tables: _DofTables, W: NDArray):
    """Elastic building-block Gram matrices from dof tables."""
    S = 0.5 * (tables.grad + np.swapaxes(tables.grad, -1, -2))
    t = np.einsum("pqii->pq", tables.grad)
    Sw = S * W[None, :, None, None]
    sym_gram = np.einsum("pqia,rqia->pr", S, Sw)
    tr_gram = np.einsum("pq,rq,q->pr", t, t, W)
    return sym_gram, tr_gram


def assemble(params: MaterialParams, loads: LoadData, n_modes: int,
             quadrature_order: int | None = None,
             curvature_via_curl_curl: bool = False) -> GalerkinSystem:
    """Assemble stiffness, mass and load for the clamped problem.

    ``curvature_via_curl_curl`` switches the curvature block to the
    equivalent curl curl quadratic form, valid only when alpha1 = alpha2
    (the two assemblies then agree to round-off).
    """
    basis = ClampedBasis(n_modes)
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    if order < basis.min_quadrature_order:
        raise ValueError(
            f"quadrature order {order} below the exactness minimum "
            f"{basis.min_quadrature_order} for N = {n_modes}"
        )
    if curvature_via_curl_curl and params.alpha1 != params.alpha2:
        raise ValueError("curl curl curvature assembly requires alpha1 = alpha2")

    pts, W = basis.quadrature(order)
    tables = _dof_tables(basis, pts)
    sym_gram, tr_gram = _grams(tables, W)
    K = 2.0 * params.mu * sym_gram + params.lam * tr_gram

    k = params.mu * params.L_c ** 2
    if curvature_via_curl_curl:
        cc = tables.curl_curl
        ccw = cc * W[None, :, None]
        K = K + 0.5 * params.alpha1 * k * np.einsum("pqi,rqi->pr", cc, ccw)
    else:
        C = tables.grad_curl
        Cs = 0.5 * (C + np.swapaxes(C, -1, -2))
        Ca = 0.5 * (C - np.swapaxes(C, -1, -2))
        Wq = W[None, :, None, None]
        K = K + 0.5 * params.alpha1 * k * np.einsum("pqia,rqia->pr", Cs, Cs * Wq)
        K = K + 0.5 * params.alpha2 * k * np.einsum("pqia,rqia->pr", Ca, Ca * Wq)

    mass = np.einsum("pqi,rqi,q->pr", tables.val, tables.val, W)
    F = loads.force(pts)
    b = np.einsum("pqi,qi,q->p", tables.val, F, W)
    return GalerkinSystem(params=params, basis=basis, K=K, M=mass, b=b,
                          quadrature_order=order)


@dataclass
class GalerkinSolution:
    coeffs: NDArray
    field: PolynomialField | None
    energy: float
    residual: float


def solve(system: GalerkinSystem, rhs: NDArray | None = None) -> GalerkinSolution:
    """Solve K z = b by Cholesky factorization.

    Raises
    ------
    WellPosednessError
        If K is not symmetric positive definite; the smallest
        eigenvalue is attached to the exception.
    """
    K = 0.5 * (system.K + system.K.T)
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
    # mixed systems carry extra dofs; only a pure displacement vector
    # reconstructs to a field
    field = system.basis.solution_field(z) if z.size == system.basis.n_dofs else None
    return GalerkinSolution(coeffs=z, field=field,
                            energy=energy, residual=float(res))


def coercivity_evidence(system: GalerkinSystem) -> float:
    """Smallest generalized eigenvalue of (K, M): the discrete coercivity
    constant with respect to the L2 norm."""
    K = 0.5 * (system.K + system.K.T)
    vals = scipy.linalg.eigh(K, system.M, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])


def korn_constant(n_modes: int, quadrature_order: int | None = None) -> float:
    """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the
    clamped basis span (unit cube, L2 norms)."""
    basis = ClampedBasis(n_modes)
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    pts, W = basis.quadrature(order)
    tables = _dof_tables(basis, pts)
    Wq = W[None, :, None, None]
    G = np.einsum("pqia,rqia->pr", tables.grad, tables.grad * Wq)
    S = 0.5 * (tables.grad + np.swapaxes(tables.grad, -1, -2))
    E = np.einsum("pqia,rqia->pr", S, S * Wq)
    vals = scipy.linalg.eigh(G, E, eigvals_only=True)
    return float(np.sqrt(vals[-1]))


# -- Cosserat penalty problem -------------------------------------------------


@dataclass
class CosseratSolution:
    u_coeffs: NDArray
    a_coeffs: NDArray
    field: PolynomialField
    energy: float


def _cosserat_tables(basis: ClampedBasis, order: int):
    pts, W = basis.quadrature(order)
    return pts, W, _dof_tables(basis, pts)


def _rotation_basis(tables: _DofTables, W: NDArray, cutoff: float = 1e-10):
    """Orthonormal microrotation basis spanning {curl u / 2 : u in span}.

    Built from the Gram matrix of the half-curl dof fields; directions
    below the relative eigenvalue cutoff are pruned.  Returns (C, R)
    where row r of C gives mode a_r = sum_p C[r, p] curl(u_p)/2 and the
    modes are L2-orthonormal.
    """
    gram = np.einsum("pqi,rqi,q->pr", tables.half_curl, tables.half_curl, W)
    vals, vecs = scipy.linalg.eigh(gram)
    keep = vals > cutoff * vals[-1]
    C = (vecs[:, keep] / np.sqrt(vals[keep])).T
    return C, gram


def cosserat_solve(params: MaterialParams, loads: LoadData, n_modes: int,
                   quadrature_order: int | None = None) -> CosseratSolution:
    """Minimize the Cosserat functional with penalty modulus mu_c.

    The microrotation is discretized on the curl span of the
    displacement basis, so that the mu_c -> infinity limit of the
    discrete problem is exactly the constrained discrete problem.
    """
    if params.mu_c <= 0.0:
        raise DegenerateCosseratError(
            f"mu_c = {params.mu_c} gives no rotational coupling; "
            "the microrotation field is indeterminate"
        )
    basis = ClampedBasis(n_modes)
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    if order < basis.min_quadrature_order:
        raise ValueError(
            f"quadrature order {order} below the exactness minimum "
            f"{basis.min_quadrature_order} for N = {n_modes}"
        )
    pts, W, tables = _cosserat_tables(basis, order)
    sym_gram, tr_gram = _grams(tables, W)
    C, hc_gram = _rotation_basis(tables, W)
    R = C.shape[0]
    D = basis.n_dofs

    mu, lam, mu_c, L = params.mu, params.lam, params.mu_c, params.L_c
    # quadratic form z' A z with z = (u, a); curl a from curl curl u / 2
    A_uu = 2.0 * mu * sym_gram + lam * tr_gram + 2.0 * mu_c * hc_gram
    A_ua = -2.0 * mu_c * hc_gram @ C.T
    curl_hc = 0.5 * tables.curl_curl
    curl_gram = np.einsum("pqi,rqi,q->pr", curl_hc, curl_hc, W)
    A_aa = 2.0 * mu_c * np.eye(R) + 2.0 * mu * L ** 2 * (C @ curl_gram @ C.T)

    F = loads.force(pts)
    Gc = loads.couple(pts)
    b_u = np.einsum("pqi,qi,q->p", tables.val, F, W)
    b_hc = np.einsum("pqi,qi,q->p", tables.half_curl, Gc, W)
    b_a = C @ b_hc

    K = np.zeros((D + R, D + R))
    K[:D, :D] = 2.0 * A_uu
    K[:D, D:] = 2.0 * A_ua
    K[D:, :D] = 2.0 * A_ua.T
    K[D:, D:] = 2.0 * A_aa
    rhs = np.concatenate([b_u, b_a])
    sysm = GalerkinSystem(params=params, basis=basis, K=K,
                          M=np.eye(D + R), b=rhs, quadrature_order=order)
    sol = solve(sysm)
    z_u, z_a = sol.coeffs[:D], sol.coeffs[D:]
    return CosseratSolution(u_coeffs=z_u, a_coeffs=z_a,
                            field=basis.solution_field(z_u), energy=sol.energy)


def cosserat_constrained_solve(params: MaterialParams, loads: LoadData,
                               n_modes: int,
                               quadrature_order: int | None = None) -> GalerkinSolution:
    """Solve the constrained limit problem (microrotation = curl u / 2).

    The couple load enters through the constraint: it performs work
    against curl u / 2.
    """
    basis = ClampedBasis(n_modes)
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    pts, W, tables = _cosserat_tables(basis, order)
    sym_gram, tr_gram = _grams(tables, W)
    curl_hc = 0.5 * tables.curl_curl
    curl_gram = np.einsum("pqi,rqi,q->pr", curl_hc, curl_hc, W)
    K = 2.0 * (2.0 * params.mu * sym_gram + params.lam * tr_gram
               + 2.0 * params.mu * params.L_c ** 2 * curl_gram)
    F = loads.force(pts)
    Gc = loads.couple(pts)
    b = (np.einsum("pqi,qi,q->p", tables.val, F, W)
         + np.einsum("pqi,qi,q->p", tables.half_curl, Gc, W))
    mass = np.einsum("pqi,rqi,q->pr", tables.val, tables.val, W)
    sysm = GalerkinSystem(params=params, basis=basis, K=K, M=mass, b=b,
                          quadrature_order=order)
    return solve(sysm)


def l2_distance(mass: NDArray, z1: NDArray, z2: NDArray) -> float:
    """L2 norm of the difference of two coefficient vectors."""
    d = z1 - z2
    return float(np.sqrt(d @ (mass @ d)))


def cosserat_limit_sweep(params: MaterialParams, loads: LoadData, n_modes: int,
                         mu_c_values, quadrature_order: int | None = None):
    """Relative L2 errors against the constrained solution over a mu_c
    sweep, plus the least-squares convergence order in 1/mu_c.

    Returns (errors, order_estimate).
    """
    ref = cosserat_constrained_solve(params, loads, n_modes, quadrature_order)
    basis = ClampedBasis(n_modes)
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    pts, W, tables = _cosserat_tables(basis, order)
    mass = np.einsum("pqi,rqi,q->pr", tables.val, tables.val, W)
    ref_norm = float(np.sqrt(ref.coeffs @ (mass @ ref.coeffs)))
    errors = []
    for mc in mu_c_values:
        p = MaterialParams(mu=params.mu, lam=params.lam, L_c=params.L_c,
                           alpha1=params.alpha1, alpha2=params.alpha2, mu_c=float(mc))
        sol = cosserat_solve(p, loads, n_modes, quadrature_order)
        errors.append(l2_distance(mass, sol.u_coeffs, ref.coeffs) / ref_norm)
    x = np.log(1.0 / np.asarray(mu_c_values, dtype=float))
    y = np.log(np.asarray(errors))
    slope = float(np.polyfit(x, y, 1)[0])
    return errors, slope
