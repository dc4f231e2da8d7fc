"""Galerkin solver on the unit cube for the fourth-order couple stress
problem and its Cosserat penalty approximation.

The displacement ansatz is a tensor product of Shen's modes (twice integrated
Legendre polynomials), conforming for the clamped problem (u = 0 and grad u . n = 0
on the boundary).  Every Gram matrix is a short sum of Kronecker products of the 1d
Grams A^ij = int beta^(i) beta^(j), i, j <= 2, and a load on the tensor Gauss rule
is contracted one axis at a time (sum factorization): no 3d table of the modes is
formed.  On the clamped span ||grad u||^2 = 2 ||sym grad u||^2 - ||div u||^2
(Korn's equality), and v = curl u vanishes on the boundary and is divergence free,
so ||sym grad v||^2 = ||skw grad v||^2 = ||curl v||^2 / 2 (a null Lagrangian).

The material is isotropic and each 1d mode beta_k is even or odd about x = 1/2, as
(-1)^k, so each vector mode beta_a beta_b beta_g e_c is even or odd under each
reflection x_d -> 1 - x_d (that of axis c flips e_c too): 8 parity classes.  Every
form of the clamped problem pairs only modes of one class: it is block-diagonal, each
block about 1/8 of the dofs, and no matrix on all the dofs is formed.  The rotations
of the cube about its (1, 1, 1) diagonal map the classes onto each other in 4 orbits,
{000}, {001, 100, 010}, {011, 101, 110} and {111} (``ClampedBasis.orbits``), and map
each mode onto a mode with no sign, so the blocks of an orbit are one matrix up to the
order of their dofs.  Each form is built from strided slices of the 1d Grams for the
orbit's representative class only, held as that one matrix, and factored and
eigen-solved once per orbit; a solve or a product takes every member at once.

The Cosserat functional

  Pi(u, a) = u'Eu/2 + mu_c ||curl u / 2 - a||^2 + (alpha1 + alpha2) mu L_c^2 ||curl a||^2 / 2
             - f.u - int g.a,

E the classical stiffness, f and g the force and couple work, is minimized with
its microrotation a on L2-orthonormal modes W of the rotations curl u / 2 that
diagonalize the Gram of curl a (Lambda), eliminated in closed form: with the
curvature d = (alpha1 + alpha2) mu L_c^2 Lambda and s = 1 / (1 + d / (2 mu_c)),
the reduced stiffness is E + B diag(d s) B', B = G(curl u / 2) W, the load
f + B diag(s) W'g, and the microrotation s (B'u + W'g / (2 mu_c)).  No term
grows with mu_c; mu_c = inf (s = 1) is the clamped problem of ``assemble``.

The material and the load only scale and pair material-free operators (the Grams, the
mass's inverse Cholesky factors, the Korn constant, W, B, Lambda): ``_operators`` builds
them once per N per process, read-only, shared by every job's system, on the Gauss rule
of N + 6 nodes: the modes have degree <= N + 3, so it is exact for every stiffness
integrand and for the work of each polynomial load of degree <= 6 (every load the CLI
builds), which at N = 1 needs more than the N + 4 nodes the stiffness alone needs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import legder, legint, legval
from numpy.typing import NDArray

from .constitutive import LoadData, MaterialParams
from .fields import DisplacementField
from .surfaces import _gauss

__all__ = ["ClampedBasis", "DegenerateCosseratError", "GalerkinSolution", "GalerkinSystem",
           "WellPosednessError", "assemble", "coercivity_evidence", "cosserat_limit_sweep",
           "korn_constant", "solve"]


class WellPosednessError(RuntimeError):
    """The assembled stiffness matrix is not positive definite."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateCosseratError(ValueError):
    """A mu_c sweep holds a coupling outside 0 < mu_c < inf, or has no curvature
    energy to converge with, or errors below its round-off floor."""


def _shared(arrays) -> tuple:
    """The arrays as a tuple, each set read-only: ``_operators`` shares them across jobs."""
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


class ClampedBasis:
    """Tensor-product polynomial basis with clamped boundary values.

    One-dimensional modes are Shen's beta_k, k = 0..N-1 (Shen 1994, SIAM J. Sci.
    Comput. 15): beta_k'' = sqrt(2k + 5) P_{k+2}(2x - 1), beta_k(0) = beta_k'(0) = 0,
    so A^22 = int beta_k'' beta_l'' is the identity; beta_k(1) = beta_k'(1) = 0 by
    orthogonality.  They span the same space as x^2 (1-x)^2 P_k(2x - 1), do not
    depend on N, and are Legendre series on [0, 1].
    Scalar modes are the N^3 tensor products, vector modes attach a
    Cartesian direction (component-major ordering).
    """

    def __init__(self, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode per direction")
        self.n_modes = int(n_modes)
        self.n_scalar = self.n_modes ** 3
        self.n_dofs = 3 * self.n_scalar
        #: Legendre coefficients of the 1d modes in t = 2x - 1, one column per mode:
        #: P_{k+2} integrated twice from t = -1, times sqrt(2k + 5) / 4 (d/dx = 2 d/dt)
        k = np.arange(self.n_modes)
        self._coef = legint(np.eye(self.n_modes + 2)[:, 2:], m=2, lbnd=-1) * (0.25 * np.sqrt(2 * k + 5))
        # under x_d -> 1 - x_d the mode (c; a, b, g) = beta_a beta_b beta_g e_c keeps or flips
        # its sign: beta_k has the parity (-1)^k, and the reflection flips e_d.  The class of
        # signs (s_x, s_y, s_z) holds the modes of component c whose index along axis d has the
        # parity s_d + [c = d], ``_parities[k, c, d]``.  The rotation x -> y -> z, e_c with it,
        # maps the mode (c; a, b, g) to (c + 1; g, a, b) with no sign (curl u -> R curl u(R'x)),
        # and the class s to (s_z, s_x, s_y): turns[k][c, a, b, g], the dof of the k-th image
        turn = lambda t: np.roll(t, -1, axis=0).transpose(0, 2, 3, 1)
        n, m = self.n_modes, (self.n_modes + 1) // 2
        dof = np.full((3,) + (2 * m,) * 3, -1)
        dof[:, :n, :n, :n] = np.arange(self.n_dofs).reshape(3, n, n, n)
        turns = [dof, turn(dof), turn(turn(dof))]
        reps = []  # (parities, dofs of each member) of the orbits' representatives 000, 001, 011, 111
        for s in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
            p = (np.array(s) + np.eye(3, dtype=int)) % 2
            rows = np.stack([np.concatenate([t[c, x::2, y::2, z::2].ravel() for c, (x, y, z) in
                                             enumerate(p)]) for t in turns[:1 + 2 * (0 < sum(s) < 3)]])
            if rows.max() >= 0:  # -1 past N, at the same places in every row
                reps.append((p, rows))
        #: the representative classes' parities and dofs, -1 past N, for ``_form``
        self._parities, self._slots = np.array([p for p, _ in reps]), np.array([r[0] for _, r in reps])
        #: one (members, d) dof array per orbit {000}, {001, 100, 010}, {011, 101, 110}, {111}
        #: of non-empty classes: row k the k-th image of row 0's modes, in its order.  Every
        #: form of the isotropic clamped problem is block-diagonal over the classes, and the
        #: block of each member is that of row 0, entry for entry: one (d, d) matrix per orbit
        self.orbits = tuple(rows[:, rows[0] >= 0] for _, rows in reps)
        _shared([self._coef, self._parities, self._slots, *self.orbits])  # ``_operators`` shares a basis

    # -- tabulation ----------------------------------------------------------

    def table(self, x: NDArray, order: int) -> NDArray:
        """Derivatives k = 0..order of each 1d mode at the coordinates x (Q,) in [0, 1],
        (order + 1, N, Q): one Legendre series per k in t = 2x - 1, run on the distinct
        coordinates only (a Gauss grid has Q^(1/3) per axis)."""
        nodes, at = np.unique(x, return_inverse=True)
        t = 2.0 * nodes - 1.0
        return np.stack([legval(t, legder(self._coef, k, scl=2.0))
                         for k in range(order + 1)]).take(at, axis=2)

    def derivatives(self, pts: NDArray, order: int, z: NDArray | None = None) -> NDArray:
        """Partial derivatives of one order (0: values) at points (..., 3): of every
        scalar mode, shape (M, ...) + (3,) * order with M = N^3, or, given coefficients
        z (3 M), of the field sum_p z_p u_p, shape (..., 3) + (3,) * order.  Each distinct
        partial is one tensor product of 1d tables; its symmetric entries are copies."""
        pts = np.asarray(pts, dtype=float)
        lead, x, n = pts.shape[:-1], pts.reshape(-1, 3), self.n_modes
        # tabs[d][k]: k-th derivative of each 1d mode at coordinate d, (N, Q)
        tabs = [self.table(x[:, d], order) for d in range(3)]
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

    def apply(self, form: list[NDArray], z: NDArray) -> NDArray:
        """The product X z of a symmetric form held as one matrix per orbit (``form[k]``
        on the dofs of each member of ``orbits[k]``) with a coefficient vector (3 M), or with
        each of a stack of them (S, 3 M); a stack of S forms, each ``form[k]`` (S, d, d),
        takes S vectors, one each."""
        out = np.empty(z.shape)
        for i, X in zip(self.orbits, form):
            out[..., i] = z[..., i] @ X
        return out


class _BasisField(DisplacementField):
    """The field sum_p z_p u_p of a clamped basis: its value and each gradient
    contract z with the basis tabulation."""

    def __init__(self, basis: ClampedBasis, z: NDArray):
        self.value, self.grad, self.grad2, self.grad3, self.grad4 = (
            functools.partial(basis.derivatives, order=k, z=z) for k in range(5))


def _tabulate(basis: ClampedBasis, order: int):
    """(tensor Gauss points (q^3, 3), derivatives k = 0..2 of each 1d mode times each
    node's weight (3, N, q), 1d Grams A[i, j] = int beta^(i) beta^(j) (3, 3, N, N)) on
    the Gauss rule of ``order`` nodes on [0, 1], that of the surface patches."""
    x, w = _gauss(order, 0.0, 1.0)
    T = basis.table(x, 2)
    A = np.einsum("iaq,jbq->ijab", T * w, T)
    # A[j, i] = A[i, j]' exactly: the rotations' B = H W reads round-off in the forms
    # (N = 5: a gap of 1.1e-13 to H W of the 3d quadrature oracle, 6.5e-14 with it)
    A = 0.5 * (A + A.transpose(1, 0, 3, 2))
    # beta_k^(i) has the parity (-1)^(k+i) about x = 1/2, so A[i, j][k, l] = 0 for odd
    # i + j + k + l, held exact: the blocks read only even entries, the rest pair blocks
    A[np.indices(A.shape).sum(axis=0) % 2 == 1] = 0.0
    return np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3), T * w, A


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


def _form(basis: ClampedBasis, A: NDArray, op: str) -> list[NDArray]:
    """Gram matrix int <op(u_p), op(u_r)> of the vector modes on the parity block of
    each orbit's representative class, exactly symmetric.  Between the components c and d of a
    block, each pair of partials a, b of the scalar modes contributes X (x) Y (x) Z, X the 1d Gram
    A[a_x, b_x] of axis x on the index parities of c's and d's modes along x (a strided
    slice), and Y, Z likewise: one broadcast product per term for all classes and pairs."""
    n, m, par = basis.n_modes, (basis.n_modes + 1) // 2, basis._parities
    # the 1d Grams padded to 2 m modes: S[i, j, p, q] = A[i, j][p::2, q::2], each (m, m)
    S = np.pad(A, [(0, 0)] * 2 + [(0, 2 * m - n)] * 2).reshape(3, 3, m, 2, m, 2)
    S = S.transpose(0, 1, 3, 5, 2, 4)
    terms = [[(c, d, s * r, a, b) for (i, s, a), (j, r, b)
              in itertools.product(_OPS[op](c), _OPS[op](d)) if i == j]
             for c, d in itertools.product(range(3), repeat=2)]
    F = np.zeros((len(par), 3, 3) + (m,) * 6)
    for products in itertools.zip_longest(*terms):  # the t-th term of each pair that has one
        c, d, coef, a, b = zip(*filter(None, products))
        # (class, pair, m, m) per axis; entries X * (Y * Z) as np.kron(X, np.kron(Y, Z))
        X, Y, Z = (S[[t.count(x) for t in a], [t.count(x) for t in b], par[:, c, x], par[:, d, x]]
                   for x in range(3))
        YZ = Y[..., :, None, :, None] * Z[..., None, :, None, :]
        F[:, c, d] += np.reshape(coef, (-1,) + (1,) * 6) * (
            X[..., :, None, None, :, None, None] * YZ[..., None, :, :, None, :, :])
    F = F.transpose(0, 1, 3, 4, 5, 2, 6, 7, 8).reshape(len(par), 3 * m ** 3, -1)
    F = 0.5 * (F + F.transpose(0, 2, 1))
    # columns first, for C-ordered blocks: BLAS rounds a Fortran-ordered operand otherwise
    return [X[:, i >= 0][i >= 0] for X, i in zip(F, basis._slots)]


def _work(wT: NDArray, op: str, F: NDArray) -> NDArray:
    """Load work int <op(u_p), F> of the vector modes against a vector field F at
    the tensor Gauss points, (q^3, 3), contracted one axis at a time."""
    _, n, q = wT.shape
    F = np.reshape(F, (q, q, q, 3))
    # the BLAS contractions of einsum's optimal path for "aq,br,gs,qrsi->iabg", in its
    # order and with its bits, without planning the path on each call
    moments = functools.cache(lambda a: np.tensordot(wT[a.count(2)], np.tensordot(
        wT[a.count(1)], np.tensordot(wT[a.count(0)], F, (1, 0)), (1, 1)), (1, 2)).transpose(3, 2, 1, 0))
    out = np.zeros((3, n, n, n))
    for c in range(3):
        for i, s, a in _OPS[op](c):
            out[c] += s * moments(a)[i]
    return out.ravel()


def _gram(X: NDArray) -> NDArray:
    """Gram matrix X X' of the rows of X, or of each matrix of a stack.  numpy's matmul
    runs a BLAS symmetric rank-k update for X times its own transpose: half the flops of
    a general product, and an exactly symmetric result."""
    return X @ np.swapaxes(X, -1, -2)


def _extreme_eig(X: list[NDArray], top=False) -> float:
    """Smallest (``top``: largest) eigenvalue of a form held as one matrix (or stack) per
    orbit: one eigen-solve per orbit, whose members share its spectrum.  A pencil (X, Y)
    is reduced first, to L^-1 X L^-T with Y = L L' (the reduction LAPACK's sygst runs)."""
    ends = [np.linalg.eigvalsh(x)[..., -1 if top else 0] for x in X]
    return float(np.max(ends) if top else np.min(ends))


@dataclass(frozen=True, eq=False)
class _Operators:
    """The material-free parts of the clamped problem at one N, read-only:
    the load work's Gauss points and weighted 1d tables, the Grams of grad u, div u, curl curl
    u / 2 and u (the mass) as one parity block per orbit; on first use, the mass factors,
    the Korn constant and the rotations."""

    basis: ClampedBasis
    pts: NDArray
    wT: NDArray
    grad: tuple[NDArray, ...]
    div: tuple[NDArray, ...]
    curl: tuple[NDArray, ...]
    value: tuple[NDArray, ...]

    @functools.cached_property
    def mass_factors(self) -> tuple[NDArray, ...]:
        """L^-1 per orbit of the mass M = L L', for ``coercivity_evidence``."""
        return _shared([np.linalg.inv(np.linalg.cholesky(m)) for m in self.value])

    @functools.cached_property
    def korn(self) -> float:
        """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the span,
        with G(sym grad u) = (G(grad u) + G(div u)) / 2 by Korn's equality."""
        sym_grad = [0.5 * (g + d) for g, d in zip(self.grad, self.div)]
        inv_L = [np.linalg.inv(np.linalg.cholesky(y)) for y in sym_grad]
        return float(np.sqrt(_extreme_eig([f @ g @ f.T for g, f in zip(self.grad, inv_L)], top=True)))

    @functools.cached_property
    def rotations(self) -> tuple[tuple[NDArray, NDArray, NDArray], ...]:
        """Per orbit, (W, B, Lambda) of its representative block, those of each member
        on its own dofs: W (d, R), column r the L2-orthonormal rotation mode psi_r =
        sum_p W[p, r] curl(u_p) / 2; B = H W, the pairing of curl u / 2 with each psi_r
        (H: Gram of curl u / 2); Lambda (R,), the diagonal Gram of curl psi_r on these modes."""
        # per orbit, an orthonormal basis C of {curl u / 2 : u in span} from its Gram
        # H = (G(grad u) - G(div u)) / 4 (the skew half of Korn's equality).  The kernel of
        # curl on the span is {grad phi : phi vanishing to third order on the boundary}, of
        # dimension (N - 2)^3: its eigenvalues, the smallest of all blocks' H, are dropped,
        # each of an orbit's counted once per member
        eigs = [np.linalg.eigh(0.25 * (g - d)) for g, d in zip(self.grad, self.div)]
        null = max(0, self.basis.n_modes - 2) ** 3
        cutoff = np.partition(np.concatenate(
            [np.tile(vals, len(i)) for (vals, _), i in zip(eigs, self.basis.orbits)]), null)[null]
        out = []
        for (vals, vecs), X in zip(eigs, self.curl):
            k = np.count_nonzero(vals < cutoff)  # eigh sorts ascending
            # the kept eigenvectors as rows, C-ordered: BLAS rounds by the operands' layout
            U, root = vecs[:, k:].T.copy(), np.sqrt(vals[k:, None])
            C = U / root
            # rotated to the eigenbasis of the Gram of curl a; B = H W from the eigenpairs of
            # H (the mu_c = inf solution meets ``assemble``'s to 4.7e-13 in the M-norm, N <= 8)
            lam, V = np.linalg.eigh(C @ X @ C.T)
            out.append(_shared([C.T @ V, (U * root).T @ V, lam]))
        return tuple(out)


# two entries: a job at a second N keeps the first; an entry retains about 1.5 MB at
# N = 6 and 89 MB at N = 12, the mass factors 0.2 and 13 MB of it
@functools.lru_cache(maxsize=2)
def _operators(n_modes: int) -> _Operators:
    """The operators at N modes on the Gauss rule of N + 6 nodes, built once and shared by
    every job at that N: the stiffness needs N + 4, a degree-6 load's work at N = 1 six."""
    basis = ClampedBasis(n_modes)
    pts, wT, A = _tabulate(basis, n_modes + 6)
    grad, div, curl, value = (_form(basis, A, op) for op in ("grad", "div", "curl_curl", "value"))
    return _Operators(basis, *_shared([pts, wT]), _shared(grad), _shared(div),
                      _shared([0.25 * X for X in curl]), _shared(value))


@dataclass
class GalerkinSystem:
    """Assembled discrete problem: K z = b minimizes I = z'Kz/2 - b'z.  K is held as one
    parity block per orbit, ``K[k]`` on the dofs of each member of ``ops.basis.orbits[k]``;
    the basis, the L2 mass (``ops.value``) and the Korn constant of the span are those of
    the shared operators ``ops``."""

    ops: _Operators
    K: list[NDArray]
    b: NDArray


def _problem(params: MaterialParams, loads: LoadData, n_modes: int):
    """The clamped problem on the shared operators of N, each form as one parity
    block per orbit: its system, with the curvature block (alpha1 + alpha2) mu L_c^2
    G(curl curl u / 2) and the load f + g; the classical stiffness
    E = mu G(grad u) + (mu + lam) G(div u), by Korn's equality 2 mu G(sym grad u) +
    lam G(div u); and the force work f and couple work g (against curl u / 2).

    Raises ValueError, before any factorization, if the stiffness overflows."""
    ops = _operators(n_modes)
    k = (params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        elastic = [params.mu * g + (params.mu + params.lam) * d for g, d in zip(ops.grad, ops.div)]
        K = [E + k * C for E, C in zip(elastic, ops.curl)]
    if not all(np.isfinite(X).all() for X in K):
        raise ValueError(f"the stiffness overflows the floating-point range (mu = {params.mu:g}, "
                         f"lambda = {params.lam:g}, (alpha1 + alpha2) mu L_c^2 = {k:g})")
    force = _work(ops.wT, "value", loads.force(ops.pts))
    couple = (np.zeros(ops.basis.n_dofs) if loads.m_body is None
              else _work(ops.wT, "half_curl", loads.couple(ops.pts)))
    return GalerkinSystem(ops, K, force + couple), elastic, force, couple


def assemble(params: MaterialParams, loads: LoadData, n_modes: int) -> GalerkinSystem:
    """Assemble stiffness, mass and load for the clamped problem.

    By the null Lagrangian the curvature block is (alpha1 + alpha2) mu L_c^2 / 4
    times the curl curl Gram: K depends on alpha1 + alpha2 only, so ``hd`` and
    ``modified`` materials with equal sums share one stiffness.
    """
    return _problem(params, loads, n_modes)[0]


@dataclass
class GalerkinSolution:
    coeffs: NDArray
    energy: float | NDArray
    residual: float | NDArray


def solve(system: GalerkinSystem) -> GalerkinSolution:
    """Solve K z = b per orbit of K: a Cholesky factorization, reading one triangle of
    its symmetric block, proves it positive definite, and one LU solve gives z on every
    member, their loads the columns of its right-hand side.  numpy has no triangular
    solve, and a general solve on each factor costs more: about 0.26 ms against 0.16-0.20
    per system at N = 5 on 2 cores.  A stack of S systems on one basis, each K[k]
    (S, d, d) and b (S, D), is solved in the same calls, LAPACK running on each system
    as on it alone: coefficients (S, D), energy and residual (S,).

    Raises
    ------
    WellPosednessError
        If a block of K is not symmetric positive definite; the smallest
        eigenvalue over the orbits is attached to the exception.
    """
    K, b, basis = system.K, system.b, system.ops.basis
    z = np.empty(b.shape)
    try:
        for i, X in zip(basis.orbits, K):
            np.linalg.cholesky(X)
            z[..., i] = np.swapaxes(np.linalg.solve(X, np.swapaxes(b[..., i], -1, -2)), -1, -2)
    except np.linalg.LinAlgError as exc:
        lam_min = _extreme_eig(K)
        raise WellPosednessError(f"stiffness not positive definite (lambda_min = {lam_min:.3e})",
                                 lam_min) from exc
    Kz = basis.apply(K, z)
    return GalerkinSolution(coeffs=z, energy=_dot(z, 0.5 * Kz - b),
                            residual=np.sqrt(_dot(Kz - b, Kz - b) / np.maximum(1.0, _dot(b, b))))


def _dot(x: NDArray, y: NDArray) -> float | NDArray:
    """x . y of two vectors, or of each pair of rows of two stacks: one BLAS product each."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def coercivity_evidence(system: GalerkinSystem) -> float:
    """Smallest generalized eigenvalue of (K, M): the discrete coercivity
    constant with respect to the L2 norm.

    Raises ValueError, before any eigen-solve, if the stiffness overflows against
    the mass."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        P = [f @ K @ f.T for K, f in zip(system.K, system.ops.mass_factors)]
    if not all(np.isfinite(X).all() for X in P):
        raise ValueError("the stiffness overflows against the mass: L^-1 K L^-T, M = L L', "
                         "leaves the floating-point range")
    return _extreme_eig(P)


def korn_constant(n_modes: int) -> float:
    """Discrete Korn constant sup ||grad u|| / ||sym grad u|| over the
    clamped basis span (unit cube, L2 norms); an assembled system reads the
    same value from its operators, ``GalerkinSystem.ops.korn``."""
    return _operators(n_modes).korn


# -- Cosserat penalty problem -------------------------------------------------


def _reduced_solves(params: MaterialParams, problem,
                    mu_c_values) -> list[tuple[GalerkinSolution, NDArray]]:
    """Minimize the Cosserat functional at each couple modulus mu_c (inf: the
    constrained problem) over the span of ``_problem``'s clamped problem, with the
    microrotation eliminated on the rotations of its operators: per mu_c, (solution
    of the reduced system for u, microrotation coefficients).  The coefficients are
    s (B'u + W'g / (2 mu_c)) on the modes psi_r = sum_p W[p, r] curl(u_p) / 2 of
    ``_Operators.rotations``, member after member of orbit after orbit: L2-orthonormal,
    and orthogonal for the Gram of curl a."""
    system, elastic, force, couple = problem
    k = (params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2
    mu_c = np.asarray(mu_c_values, dtype=float)[:, None]
    # every mu_c's system, solved as one stack of S: per orbit i, the curvature d = k Lambda,
    # s (S, R), each member's couple work W'g on each psi_r, and the reduced stiffness
    # E + B diag(d s) B', one SYRK per mu_c
    K, b, parts = [], np.tile(force, (len(mu_c), 1)), []
    for i, E, (W, B, lam) in zip(system.ops.basis.orbits, elastic, system.ops.rotations):
        d = k * lam
        s, g = 1.0 / (1.0 + d / (2.0 * mu_c)), couple[i] @ W
        K.append(E + _gram(B * np.sqrt(d * s)[:, None]))
        b[:, i] += (s[:, None] * g) @ B.T
        parts.append((i, B, s[:, None], g))
    sol = solve(replace(system, K=K, b=b))
    rotation = np.concatenate([(s * (sol.coeffs[:, i] @ B + g / (2.0 * mu_c[:, :, None])))
                               .reshape(len(mu_c), -1) for i, B, s, g in parts], axis=1)
    return [(GalerkinSolution(*fields), a)
            for *fields, a in zip(sol.coeffs, sol.energy, sol.residual, rotation)]


def cosserat_limit_sweep(params: MaterialParams, loads: LoadData, n_modes: int, mu_c_values):
    """Relative L2 errors against the mu_c = inf solution, that of the clamped
    problem of ``assemble``, over a mu_c sweep, plus the least-squares
    convergence order in 1/mu_c.

    All solves share one tabulation.  Returns (errors, order_estimate).
    """
    mu_cs = [float(mc) for mc in mu_c_values]
    for mu_c in mu_cs:
        if not 0.0 < mu_c < np.inf:
            raise DegenerateCosseratError(
                f"mu_c = {mu_c} is no Cosserat coupling: every mu_c must satisfy 0 < mu_c < inf")
    if len(set(mu_cs)) < 2:
        raise ValueError(f"a convergence order needs two distinct mu_c values, got {mu_c_values!r}")
    k = (params.alpha1 + params.alpha2) * params.mu * params.L_c ** 2
    if k == 0.0:
        raise DegenerateCosseratError(
            f"(alpha1 + alpha2) mu L_c^2 = 0 (alpha1 = {params.alpha1}, alpha2 = {params.alpha2}, "
            f"L_c = {params.L_c}): without curvature energy every mu_c gives the mu_c = inf "
            "solution, so there is no convergence to measure")
    problem = _problem(params, loads, n_modes)
    ref, *sols = (sol.coeffs for sol, _ in
                  _reduced_solves(params, problem, [np.inf, *mu_cs]))
    basis, M = problem[0].ops.basis, problem[0].ops.value
    ref_norm = float(np.sqrt(ref @ basis.apply(M, ref)))
    errors = [float(np.sqrt((z - ref) @ basis.apply(M, z - ref))) / ref_norm for z in sols]
    # round-off alone reads up to 2 eps, errors of 6-12 eps sit 9-30% off the first-order
    # line C / mu_c, and from 1e-14 (45 eps) on they lie within 1.3% of it (N = 2, 5, 8)
    floor = 100.0 * np.finfo(float).eps
    for mu_c, err in zip(mu_c_values, errors):
        if not floor <= err < np.inf:
            raise DegenerateCosseratError(
                f"the error at mu_c = {mu_c:g} reads {err:g}, not a finite number above the "
                f"round-off floor {floor:.1e}: "
                f"the curvature modulus (alpha1 + alpha2) mu L_c^2 = {k:g} (L_c = {params.L_c:g}) "
                "is too small against mu_c")
    x = np.log(1.0 / np.asarray(mu_c_values, dtype=float))
    slope = float(np.polyfit(x, np.log(errors), 1)[0])
    return errors, slope
