"""Galerkin solver on the unit cube for the fourth-order couple stress
problem and its Cosserat penalty approximation.

The displacement ansatz is a tensor product of squared-bubble times
Legendre polynomials, which is conforming for the clamped problem
(u = 0 and grad u . n = 0 on the boundary).  One tabulation of its 1d
Legendre series by Clenshaw recurrence, with no power coefficients, gives
both the 1d quadrature tables and the solution fields.  Every Gram matrix is
a short sum of Kronecker products of the 1d Grams A^ij = int beta^(i) beta^(j),
i, j <= 2, and a load on the tensor Gauss rule (exact for the polynomial
integrands at the default order) is contracted one axis at a time (sum
factorization): no 3d table of the modes is formed.  On the clamped span,
||grad u||^2 = 2 ||sym grad u||^2 - ||div u||^2 (Korn's equality), and
v = curl u vanishes on the boundary and is divergence free, so
||sym grad v||^2 = ||skw grad v||^2 = ||curl v||^2 / 2 (a null Lagrangian).

The material is isotropic, so the clamped problem on the cube is invariant under
the reflections x_d -> 1 - x_d.  Each 1d mode beta_k is even or odd about x = 1/2,
as (-1)^k, so each vector mode beta_a beta_b beta_g e_c is even or odd under each
reflection, the one of axis c flipping e_c too: 8 parity classes.  Every form of
the problem (K, M, E and the grad, div, curl and curl curl Grams) pairs only modes
of one class, so it is block-diagonal over the classes (``ClampedBasis.blocks``),
and every factorization and eigen-solve runs once per block, at about 1/8 of the
dofs.  The 1d Grams hold the zeros exactly, so the blocks are exact.

The Cosserat functional

  Pi(u, a) = u'Eu/2 + mu_c ||curl u / 2 - a||^2 + (alpha1 + alpha2) mu L_c^2 ||curl a||^2 / 2
             - f.u - int g.a,

E the classical stiffness, f and g the force and couple work, is minimized with
its microrotation a on L2-orthonormal modes W of the rotations curl u / 2 that
diagonalize the Gram of curl a (Lambda), eliminated in closed form: with the
curvature d = (alpha1 + alpha2) mu L_c^2 Lambda and s = 1 / (1 + d / (2 mu_c)),
the reduced stiffness is E + B diag(d s) B', B = G(curl u / 2) W, the load
f + B diag(s) W'g, and the microrotation s (B'u + W'g / (2 mu_c)).  No term
grows with mu_c; mu_c = inf (s = 1) is the clamped problem of ``assemble``,
microrotation = curl u / 2.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy  # not scipy.linalg: it loads on first use, so commands that never solve skip it
from numpy.polynomial import Legendre
from numpy.polynomial.legendre import legder, leggauss, legval
from numpy.typing import NDArray

from .constitutive import LoadData, MaterialParams
from .fields import DisplacementField

__all__ = [
    "ClampedBasis",
    "CosseratSolution",
    "DegenerateCosseratError",
    "GalerkinSolution",
    "GalerkinSystem",
    "WellPosednessError",
    "assemble",
    "coercivity_evidence",
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
    """The Cosserat rotational coupling is absent or negative, or a mu_c sweep
    has no curvature energy to converge with."""


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
        # under x_d -> 1 - x_d the mode (c; a, b, g) = beta_a beta_b beta_g e_c keeps or
        # flips its sign: beta_k has the parity (-1)^k, and the reflection flips e_d
        c, a, b, g = np.indices((3,) + (self.n_modes,) * 3).reshape(4, -1)
        key = 4 * ((a + (c == 0)) % 2) + 2 * ((b + (c == 1)) % 2) + (g + (c == 2)) % 2
        #: the dofs of each non-empty reflection-parity block, ascending: every form of
        #: the isotropic clamped problem is block-diagonal over them
        self.blocks = [i for i in (np.flatnonzero(key == k) for k in range(8)) if i.size]

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

    def solution_field(self, z: NDArray) -> DisplacementField:
        """Displacement field sum_p z_p u_p of a coefficient vector (3 M)."""
        return _BasisField(self, np.asarray(z, dtype=float))


class _BasisField(DisplacementField):
    """The field sum_p z_p u_p of a clamped basis: its value and each gradient
    contract z with the basis tabulation."""

    def __init__(self, basis: ClampedBasis, z: NDArray):
        self.value, self.grad, self.grad2, self.grad3, self.grad4 = (
            functools.partial(basis.derivatives, order=k, z=z) for k in range(5))


def _tabulate(basis: ClampedBasis, quadrature_order: int | None):
    """(Gauss order, tensor Gauss points (q^3, 3), derivatives k = 0..2 of each 1d
    mode times each node's weight (3, N, q), 1d Grams A[i, j] = int beta^(i) beta^(j)
    (3, 3, N, N)).  The order defaults to two above the exactness minimum; one below
    it is rejected."""
    order = basis.min_quadrature_order + 2 if quadrature_order is None else quadrature_order
    if order < basis.min_quadrature_order:
        raise ValueError(f"quadrature order {order} below the exactness minimum "
                         f"{basis.min_quadrature_order} for N = {basis.n_modes}")
    x, w = leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    T = np.stack([legval(2.0 * x - 1.0, legder(basis._coef, k, scl=2.0)) for k in range(3)])
    A = np.einsum("iaq,jbq->ijab", T * w, T)
    # A[j, i] = A[i, j]' exactly: the reduced Cosserat solve amplifies round-off in
    # the forms (N = 5: a gap of 1.5e-12 to the 3d quadrature oracle, 4.5e-13 with it)
    A = 0.5 * (A + A.transpose(1, 0, 3, 2))
    # beta_k^(i) has the parity (-1)^(k+i) about x = 1/2, so A[i, j][k, l] = 0 for odd
    # i + j + k + l; exact zeros make every form exactly block-diagonal
    A[np.indices(A.shape).sum(axis=0) % 2 == 1] = 0.0
    return order, basis.quadrature(order)[0], T * w, A


# Differential operators, c -> the image of the vector mode phi e_c as terms
# (component, coefficient, partial of phi as the axes it differentiates along):
# grad(phi e_c) = e_c (x) grad phi, curl(phi e_c) = grad phi x e_c and
# curl curl(phi e_c) = grad d_c phi - lap phi e_c
_OPS = {
    "value": lambda c: [(c, 1.0, ())],
    "grad": lambda c: [((c, j), 1.0, (j,)) for j in range(3)],
    "div": lambda c: [(0, 1.0, (c,))],
    "half_curl": lambda c: [((c + 1) % 3, 0.5, ((c + 2) % 3,)),
                            ((c + 2) % 3, -0.5, ((c + 1) % 3,))],
    "curl_curl": lambda c: [(i, 1.0, (i, c)) for i in range(3)]
                           + [(c, -1.0, (k, k)) for k in range(3)],
}


def _form(A: NDArray, op: str) -> NDArray:
    """Gram matrix int <op(u_p), op(u_r)> of the vector modes, exactly symmetric: each
    pair of partials a, b of the scalar modes contributes the Kronecker product of the
    1d Grams of the three axes, in the a N^2 + b N + g order of the modes."""
    n = A.shape[-1]

    @functools.cache
    def kron(a, b):
        # X (x) Y (x) Z in one broadcast, entries X * (Y * Z) as np.kron(X, np.kron(Y, Z))
        X, Y, Z = (A[a.count(d), b.count(d)] for d in range(3))
        YZ = Y[:, None, :, None] * Z[None, :, None, :]
        return (X[:, None, None, :, None, None] * YZ[None, :, :, None]).reshape(n ** 3, n ** 3)

    F = np.zeros((3, n ** 3, 3, n ** 3))
    for c, d in itertools.product(range(3), repeat=2):
        for (i, s, a), (j, r, b) in itertools.product(_OPS[op](c), _OPS[op](d)):
            if i == j:
                F[c, :, d] += s * r * kron(a, b)
    return 0.5 * (F + F.transpose(2, 3, 0, 1)).reshape(3 * n ** 3, -1)


def _work(wT: NDArray, op: str, F: NDArray) -> NDArray:
    """Load work int <op(u_p), F> of the vector modes against a vector field F at
    the tensor Gauss points, (q^3, 3), contracted one axis at a time."""
    _, n, q = wT.shape
    moments = functools.cache(lambda a: np.einsum("aq,br,gs,qrsi->iabg", *(
        wT[a.count(d)] for d in range(3)), np.reshape(F, (q, q, q, 3)), optimize=True))
    out = np.zeros((3, n, n, n))
    for c in range(3):
        for i, s, a in _OPS[op](c):
            out[c] += s * moments(a)[i]
    return out.ravel()


def _gram(X: NDArray) -> NDArray:
    """Gram matrix X X' of the rows of a matrix.  On one flat operand (no unit
    axis, which einsum would copy), einsum with ``optimize`` runs a BLAS symmetric
    rank-k update: half the flops of a general product, and an exactly symmetric
    result."""
    return np.einsum("pq,rq->pr", X, X, optimize=True)


def _block(X: NDArray, dofs: NDArray) -> NDArray:
    """The diagonal block of a form on some dofs, as a new array."""
    return X[np.ix_(dofs, dofs)]


def _extreme_eig(blocks, X: NDArray, Y: NDArray | None = None, top: bool = False) -> float:
    """Smallest (``top``: largest) eigenvalue of the block-diagonal form X, or of the
    pencil (X, Y), over the parity blocks: one eigen-solve per block."""
    vals = [scipy.linalg.eigh(_block(X, i), None if Y is None else _block(Y, i),
                              eigvals_only=True, subset_by_index=[len(i) - 1 if top else 0] * 2)[0]
            for i in blocks]
    return float(max(vals) if top else min(vals))


def _korn(blocks, grad_gram: NDArray, div_gram: NDArray) -> float:
    """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the span,
    with G(sym grad u) = (G(grad u) + G(div u)) / 2 by Korn's equality."""
    return float(np.sqrt(_extreme_eig(blocks, grad_gram, 0.5 * (grad_gram + div_gram), top=True)))


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


def _problem(params: MaterialParams, loads: LoadData, n_modes: int,
             quadrature_order: int | None):
    """The clamped problem from one tabulation: its system, with the curvature
    block (alpha1 + alpha2) mu L_c^2 G(curl curl u / 2) and the load f + g; the
    classical stiffness E = mu G(grad u) + (mu + lam) G(div u), by Korn's equality
    2 mu G(sym grad u) + lam G(div u); the Grams of grad u, div u and
    curl curl u / 2; and the force work f and couple work g (against curl u / 2)."""
    basis = ClampedBasis(n_modes)
    order, pts, wT, A = _tabulate(basis, quadrature_order)
    grad, div, curl = _form(A, "grad"), _form(A, "div"), 0.25 * _form(A, "curl_curl")
    elastic = params.mu * grad + (params.mu + params.lam) * div
    force, couple = _work(wT, "value", loads.force(pts)), _work(wT, "half_curl", loads.couple(pts))
    k = (params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2
    system = GalerkinSystem(params=params, basis=basis, K=elastic + k * curl, M=_form(A, "value"),
                            b=force + couple, quadrature_order=order)
    return system, elastic, grad, div, curl, force, couple


def assemble(params: MaterialParams, loads: LoadData, n_modes: int,
             quadrature_order: int | None = None) -> GalerkinSystem:
    """Assemble stiffness, mass and load for the clamped problem.

    By the null Lagrangian the curvature block is (alpha1 + alpha2) mu L_c^2 / 4
    times the curl curl Gram: K depends on alpha1 + alpha2 only, so ``hd`` and
    ``modified`` materials with equal sums share one stiffness.
    """
    system, _, grad, div, *_ = _problem(params, loads, n_modes, quadrature_order)
    system.korn = _korn(system.basis.blocks, grad, div)
    return system


@dataclass
class GalerkinSolution:
    coeffs: NDArray
    energy: float
    residual: float


def solve(system: GalerkinSystem, rhs: NDArray | None = None) -> GalerkinSolution:
    """Solve K z = b by one Cholesky factorization per parity block of the
    basis, each reading one triangle of the symmetric block.

    Raises
    ------
    WellPosednessError
        If a block of K is not symmetric positive definite; the smallest
        eigenvalue over the blocks is attached to the exception.
    """
    K, blocks = system.K, system.basis.blocks
    b = system.b if rhs is None else np.asarray(rhs, dtype=float)
    z = np.zeros(len(b))
    try:
        for i in blocks:
            z[i] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(_block(K, i), overwrite_a=True),
                                          b[i])
    except np.linalg.LinAlgError as exc:
        lam_min = _extreme_eig(blocks, K)
        raise WellPosednessError(
            f"stiffness not positive definite (lambda_min = {lam_min:.3e})", lam_min
        ) from exc
    # against the whole K, so that entries outside the blocks show in the residual
    res = np.linalg.norm(K @ z - b) / max(1.0, np.linalg.norm(b))
    energy = float(0.5 * z @ (K @ z) - b @ z)
    return GalerkinSolution(coeffs=z, energy=energy, residual=float(res))


def coercivity_evidence(system: GalerkinSystem) -> float:
    """Smallest generalized eigenvalue of (K, M): the discrete coercivity
    constant with respect to the L2 norm."""
    return _extreme_eig(system.basis.blocks, system.K, system.M)


def korn_constant(n_modes: int, quadrature_order: int | None = None) -> float:
    """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the
    clamped basis span (unit cube, L2 norms); ``assemble`` reports the same
    value as ``GalerkinSystem.korn``."""
    basis = ClampedBasis(n_modes)
    *_, A = _tabulate(basis, quadrature_order)
    return _korn(basis.blocks, _form(A, "grad"), _form(A, "div"))


# -- Cosserat penalty problem -------------------------------------------------


@dataclass
class CosseratSolution:
    u_coeffs: NDArray
    #: microrotation coefficients s (B'u + W'g / (2 mu_c)) on the modes
    #: psi_r = sum_p W[p, r] curl(u_p) / 2 of ``_CosseratForms.W``: L2-orthonormal,
    #: and orthogonal for the Gram of curl a
    a_coeffs: NDArray


@dataclass
class _CosseratForms:
    """The mu_c-independent parts of the Cosserat problem, from one tabulation."""

    system: GalerkinSystem  # the clamped problem of ``assemble``, the mu_c = inf limit
    elastic: NDArray    # classical stiffness form E
    force: NDArray      # force work f against u
    W: NDArray          # (D, R): column r gives the mode psi_r = sum_p W[p, r] curl(u_p) / 2
    B: NDArray          # H W, the pairing of curl u / 2 with each psi_r (H: Gram of curl u / 2)
    curvature: NDArray  # (R,) d = (alpha1 + alpha2) mu L_c^2 Lambda, Lambda the Gram of curl psi_r
    couple: NDArray     # (R,) W' g, the couple work against each psi_r
    #: the columns of W and B on each parity block of ``system.basis.blocks``; both
    #: are zero outside these (rows, columns) blocks
    columns: list[slice]


def _cosserat_forms(params: MaterialParams, loads: LoadData, n_modes: int,
                    quadrature_order: int | None) -> _CosseratForms:
    system, elastic, grad, div, curl, force, couple = _problem(params, loads, n_modes,
                                                               quadrature_order)
    # ||curl u||^2 = ||grad u||^2 - ||div u||^2 on the clamped span, the skew
    # half of Korn's equality
    half_curl = 0.25 * (grad - div)
    blocks = system.basis.blocks
    # per parity block, an orthonormal basis C of {curl u / 2 : u in span}, cut off at
    # 1e-10 of the largest eigenvalue over all blocks.  C scales eigenvectors by
    # 1 / sqrt(eigenvalue), so it takes the default driver: with divide-and-conquer
    # the mu_c = inf solve drifts from ``solve(assemble(...))`` by 2.2e-12 at N = 8
    # (gkmt, force and couple), against 8.0e-13
    eigs = [scipy.linalg.eigh(_block(half_curl, i)) for i in blocks]
    cutoff = 1e-10 * max(vals[-1] for vals, _ in eigs)
    kept = [(vecs[:, vals > cutoff], np.sqrt(vals[vals > cutoff])) for vals, vecs in eigs]
    ends = np.cumsum([0] + [len(root) for _, root in kept])
    columns = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    W, B = np.zeros((2, len(half_curl), ends[-1]))
    lam = np.zeros(ends[-1])
    for i, r, (U, root) in zip(blocks, columns, kept):
        C = (U / root).T
        # rotated to the eigenbasis of the Gram of curl a (eigh reads one triangle;
        # divide-and-conquer takes half the default's time here)
        lam[r], V = scipy.linalg.eigh(C @ _block(curl, i) @ C.T, driver="evd")
        W[i, r] = C.T @ V
        # H W from the eigenpairs of H, without a product with H: the mu_c = inf
        # drift at N = 8 is 8.0e-13, against 1.9e-12 for H W
        B[i, r] = (U * root) @ V
    return _CosseratForms(
        system=system, elastic=elastic, force=force, W=W, B=B,
        curvature=(params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2 * lam,
        couple=W.T @ couple, columns=columns,
    )


def _coupled(params: MaterialParams) -> MaterialParams:
    """``params``, once its Cosserat couple modulus is checked positive."""
    if params.mu_c <= 0.0:
        raise DegenerateCosseratError(
            f"mu_c = {params.mu_c} gives no rotational coupling; "
            "the microrotation field is indeterminate"
        )
    return params


def _reduced_solves(forms: _CosseratForms, mu_c_values) -> list[tuple[GalerkinSolution, NDArray]]:
    """Minimize the Cosserat functional at each couple modulus mu_c (inf: the
    constrained problem) over the forms' span, with the microrotation
    eliminated: per mu_c, (solution of the reduced system for u, microrotation
    coefficients)."""
    d, B = forms.curvature, forms.B
    out = []
    for mu_c in mu_c_values:
        s = 1.0 / (1.0 + d / (2.0 * mu_c))
        # E + B diag(d s) B', one SYRK per parity block
        K = forms.elastic.copy()
        for i, r in zip(forms.system.basis.blocks, forms.columns):
            K[np.ix_(i, i)] += _gram(B[i, r] * np.sqrt(d[r] * s[r]))
        sol = solve(replace(forms.system, K=K, b=forms.force + B @ (s * forms.couple)))
        out.append((sol, s * (B.T @ sol.coeffs + forms.couple / (2.0 * mu_c))))
    return out


def cosserat_solve(params: MaterialParams, loads: LoadData, n_modes: int,
                   quadrature_order: int | None = None) -> CosseratSolution:
    """Minimize the Cosserat functional with penalty modulus mu_c.

    The microrotation is discretized on the curl span of the
    displacement basis, so that the mu_c -> infinity limit of the
    discrete problem is exactly the clamped problem of ``assemble``.
    """
    forms = _cosserat_forms(_coupled(params), loads, n_modes, quadrature_order)
    [(sol, a)] = _reduced_solves(forms, [params.mu_c])
    return CosseratSolution(u_coeffs=sol.coeffs, a_coeffs=a)


def cosserat_limit_sweep(params: MaterialParams, loads: LoadData, n_modes: int,
                         mu_c_values, quadrature_order: int | None = None):
    """Relative L2 errors against the mu_c = inf solution, that of the clamped
    problem of ``assemble``, over a mu_c sweep, plus the least-squares
    convergence order in 1/mu_c.

    All solves share one tabulation.  Returns (errors, order_estimate).
    """
    penalized = [_coupled(replace(params, mu_c=float(mc))) for mc in mu_c_values]
    if len({p.mu_c for p in penalized}) < 2:
        raise ValueError(f"a convergence order needs two distinct mu_c values, got {mu_c_values!r}")
    if (params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2 == 0.0:
        raise DegenerateCosseratError(
            f"(alpha1 + alpha2) mu L_c^2 = 0 (alpha1 = {params.alpha1}, alpha2 = {params.alpha2}, "
            f"L_c = {params.L_c}): without curvature energy every mu_c gives the mu_c = inf "
            "solution, so there is no convergence to measure")
    forms = _cosserat_forms(params, loads, n_modes, quadrature_order)
    ref, *sols = (sol.coeffs for sol, _ in
                  _reduced_solves(forms, [np.inf, *(p.mu_c for p in penalized)]))
    ref_norm = float(np.sqrt(ref @ (forms.system.M @ ref)))
    errors = [float(np.sqrt((z - ref) @ (forms.system.M @ (z - ref)))) / ref_norm for z in sols]
    x = np.log(1.0 / np.asarray(mu_c_values, dtype=float))
    slope = float(np.polyfit(x, np.log(errors), 1)[0])
    return errors, slope
