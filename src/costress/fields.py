"""Displacement fields with derivative evaluation up to fourth order.

Two families carry closed-form derivatives: seeded polynomials and
infinitesimal conformal maps, whose presets also give the zero, constant
and rigid-motion fields.  A finite-difference oracle on a field's values
is the independent cross-check for every closed form; no other evaluation
path differentiates a field numerically.

Evaluations take points of shape (..., 3) and broadcast over the leading
axes; a single point is a batch of one.  Polynomials also come in batches
of fields: their coefficients carry leading field axes, which pair with
the leading axes of the points, and a single field is a batch of none.
:func:`fd_partial` is the one finite-difference stencil of the package.

A field states its total ``degree``, None where unknown.  Its third and
fourth gradients vanish at degree 2 or below, so stresses, the boundary
split and the equilibrium residual do not evaluate them there; a conformal
field, of degree 2, does not define them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .tensors import EPS3, ID3, _axial, anti, cross, skw, sym

__all__ = [
    "ConformalField",
    "DisplacementField",
    "KinematicState",
    "NumericDomainError",
    "PolynomialField",
    "curl_from_grad",
    "fd_derivative_oracle",
    "fd_partial",
    "grad_curl_from_grad2",
    "kinematics",
    "make_polynomial",
    "random_conformal",
]


class NumericDomainError(ArithmeticError):
    """A field evaluation produced a non-finite value."""


def _guard_finite(name: str, a: NDArray, x: NDArray) -> None:
    """Raise NumericDomainError unless ``a``, evaluated at the points x
    (..., 3), is finite; the message names ``a``, the first point where it
    is not, the number of points and that point's coordinates."""
    if np.all(np.isfinite(a)):
        return
    pts = np.reshape(x, (-1, 3))
    i = int(np.argmin(np.isfinite(np.reshape(a, (len(pts), -1))).all(axis=1)))
    raise NumericDomainError(f"{name} is not finite at point {i} of {len(pts)}, "
                             f"x = {pts[i].tolist()}")


# Base step per derivative order; tuned so that after one Richardson
# level truncation and roundoff balance in double precision.
_FD_BASE_STEP = {1: 1e-3, 2: 4e-3, 3: 1.5e-2, 4: 1e-2}

# 4th-order central first-derivative stencil (center weight is zero).
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def fd_partial(func, x: NDArray, axes: tuple[int, ...], h) -> NDArray:
    """Mixed partial d^k func / dx_a1 ... dx_ak, k = len(axes), by the
    4th-order central stencil along each axis (their tensor product for a
    mixed partial) with one Richardson level (h, h/2).

    ``x`` holds points of shape (..., d) and ``h`` the step per point,
    broadcastable to ``x.shape[:-1]``.  ``func`` maps points (..., d) to
    values (..., *out) and is called once, on all 2 x 4^k samples of every
    point.  Returns (..., *out), each point bit for bit as it would be alone.
    """
    x = np.asarray(x, dtype=float)
    lead, k = x.ndim - 1, len(axes)
    grid = np.array(list(itertools.product(range(4), repeat=k)))      # (4^k, k)
    unit = np.zeros((len(grid), x.shape[-1]))
    for i, a in enumerate(axes):
        unit[:, a] += _FD_OFFSETS[grid[:, i]]
    weights = np.prod(_FD_WEIGHTS[grid], axis=1)
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape[:-1])
    steps = h[..., None] * np.array([1.0, 0.5])                        # (..., 2)
    samples = x[..., None, None, :] + steps[..., None, None] * unit  # (..., 2, 4^k, d)
    vals = np.asarray(func(samples), dtype=float)                     # (..., 2, 4^k, *out)
    # a summed last axis reduces each element in one order; tensordot's BLAS
    # call rounds a row differently as the batch's row count changes
    diff = np.sum(np.moveaxis(vals, lead + 1, -1) * weights, axis=-1)  # (..., 2, *out)
    diff /= (steps ** k).reshape(steps.shape + (1,) * (diff.ndim - steps.ndim))
    coarse, fine = np.take(diff, 0, axis=lead), np.take(diff, 1, axis=lead)
    return (16.0 * fine - coarse) / 15.0


def fd_derivative_oracle(field: DisplacementField, x: NDArray, order: int) -> NDArray:
    """Central finite differences of formal order 4 plus one Richardson level.

    Returns the derivative tensor D[..., i, a1, ..., a_order] = d^order u_i /
    dx_a1 ... dx_a_order at points x of shape (..., 3).  Serves as the
    independent oracle for every closed-form derivative.

    Parameters
    ----------
    field
        A :class:`DisplacementField`; only its ``value`` is read.
    order
        Derivative order, 1 to 4; the step is a per-order tuned value
        scaled by ``1 + |x|``.
    """
    if order not in _FD_BASE_STEP:
        raise ValueError(f"derivative order must be 1, 2, 3 or 4, got {order}")
    x = np.asarray(x, dtype=float)
    h = _FD_BASE_STEP[order] * (1.0 + np.linalg.norm(x, axis=-1))

    out = np.zeros(x.shape[:-1] + (3,) + (3,) * order)
    for combo in itertools.combinations_with_replacement(range(3), order):
        val = fd_partial(field.value, x, combo, h)
        for perm in set(itertools.permutations(combo)):
            out[(..., slice(None)) + perm] = val
    _guard_finite(f"the FD grad{order if order > 1 else ''}", out, x)
    return out


def _finite(name: str, v, shape: tuple[int, ...]) -> NDArray:
    """v as a float array of the given shape; ValueError unless it is one of
    finite numbers (booleans and strings are not numbers here)."""
    a = np.asarray(v, dtype=object)
    if a.shape != shape or not all(isinstance(e, numbers.Real)
                                   and not isinstance(e, (bool, np.bool_)) for e in a.flat):
        raise ValueError(f"{name} must be numbers of shape {shape}, got {v!r}")
    a = a.astype(float)
    if not all(map(math.isfinite, a.flat)):  # a few entries: a third of np.isfinite's cost
        raise ValueError(f"{name} must be finite, got {v!r}")
    return a


class DisplacementField:
    """A vector-valued field of position with derivatives up to fourth order.

    Subclasses provide ``value`` and the gradients ``grad`` (G[i, j] =
    d u_i / dx_j) to ``grad4`` (Q[i, j, k, l, m] = d^4 u_i / dx_j dx_k dx_l
    dx_m), each at points (..., 3): in closed form, or tabulated in
    :mod:`costress.solver`; one of ``degree`` at most 2 may omit ``grad3``
    and ``grad4``, which vanish.  Fields are immutable after construction
    and safe to evaluate concurrently.
    """

    degree = None   #: total degree as a polynomial; None, unknown: every derivative is evaluated

    def value(self, x: NDArray) -> NDArray:
        raise NotImplementedError

    def __call__(self, x: NDArray) -> NDArray:
        return self.value(x)


@functools.cache
def _shift_tables(D: int) -> tuple[NDArray, NDArray]:
    """(shift, factor) over a flattened (D, D, D) monomial block plus one zero
    slot: d/dx_a takes slot shift[a] (the zero one where p_a + 1 = D) times
    factor[a] = p_a + 1; both (3, D^3)."""
    p = np.indices((D, D, D)).reshape(3, D ** 3)
    stride = D ** np.arange(2, -1, -1)[:, None]                # of p_a in the flat index
    shift = np.where(p + 1 < D, np.arange(D ** 3) + stride, D ** 3)
    factor = (p + 1).astype(float)
    shift.flags.writeable = factor.flags.writeable = False
    return shift, factor


class PolynomialField(DisplacementField):
    """Trivariate vector polynomial with closed-form derivatives.

    The coefficients have shape (..., 3, n, n, n): component, then the
    powers of x1, x2 and x3.  Leading axes are *field* axes, one field per
    index, and pair with the leading axes of the points: field f is
    evaluated at ``x[f]``, so coefficients (F, 3, n, n, n) take points
    (F, P, 3) or (F, 3).  A single field is a batch of none.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim < 4 or coeffs.shape[-4] != 3 or len(set(coeffs.shape[-3:])) != 1:
            raise ValueError(f"coefficients must have shape (..., 3, n, n, n), got {coeffs.shape}")
        self.coeffs = coeffs
        #: derivative order -> its stacked coefficient tensor, see _block
        self._blocks = {0: coeffs}

    @functools.cached_property
    def degree(self) -> int:
        """The largest i + j + k of a nonzero coefficient over the batch, 0 if none."""
        nonzero = np.any(self.coeffs.reshape((-1,) + self.coeffs.shape[-3:]) != 0.0, axis=0)
        return int(np.argwhere(nonzero).sum(axis=1).max(initial=0))

    def _block(self, order: int) -> NDArray:
        """Stacked coefficient tensor of one derivative order, its derivative axes
        after the component, C[..., i, a1, ..., a_order], each entry a (D, D, D)
        monomial block, zero padded so one contraction evaluates every component
        at once.  Built on first use from the order below, all three axes by one
        gather, then cut to the smallest D holding its nonzero powers (d - r + 1
        at order r of degree d); racing threads keep the block stored first."""
        C = self._blocks.get(order)
        if C is None:
            below = self._block(order - 1)
            D = below.shape[-1]
            shift, factor = _shift_tables(D)
            flat = below.reshape(below.shape[:-3] + (D ** 3,))
            padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,))], axis=-1)
            C = (padded[..., shift] * factor).reshape(below.shape[:-3] + (3, D, D, D))
            D = 1 + int(np.argwhere(np.any(C.reshape(-1, D, D, D) != 0.0, axis=0)).max(initial=0))
            C = self._blocks.setdefault(order, np.ascontiguousarray(C[..., :D, :D, :D]))
        return C

    def _contract(self, C: NDArray, x: NDArray) -> NDArray:
        """sum_ijk C[f, ..., i, j, k] x1^i x2^j x3^k at the points x[f] (..., 3)
        of each field f; the axes of C between its field and monomial axes
        become the trailing axes of the result.  The block's own monomial axes
        are contracted one at a time by matrix products, stacked over fields."""
        D, fields = C.shape[-1], self.coeffs.shape[:-4]
        x = np.asarray(x, dtype=float)
        if x.ndim <= len(fields) or x.shape[:len(fields)] != fields:
            raise ValueError(f"points of shape {x.shape} do not lead with the field axes {fields}")
        P = x[..., None] ** np.arange(D)                     # (F..., P..., 3, D)
        lead = P.shape[:-2]
        F = math.prod(fields)
        P = P.reshape(F, -1, 3, D)
        n = P.shape[1]
        v = P[:, :, 2, :] @ C.reshape(F, -1, D).transpose(0, 2, 1)  # (F, n, q * D * D), k summed
        # explicit sizes: with no points, a -1 could not be inferred
        v = v.reshape(F, n, v.shape[2] // D, D) @ P[:, :, 1, :, None]  # (F, n, q * D, 1), j summed
        v = v.reshape(F, n, v.shape[2] // D, D) @ P[:, :, 0, :, None]  # (F, n, q, 1), i summed
        return v.reshape(lead + C.shape[len(fields):-3])

    def value(self, x):
        return self._contract(self.coeffs, x)

    def grad(self, x):
        return self._contract(self._block(1), x)

    def grad2(self, x):
        return self._contract(self._block(2), x)

    def grad3(self, x):
        return self._contract(self._block(3), x)

    def grad4(self, x):
        return self._contract(self._block(4), x)


def make_polynomial(seed: int | NDArray, degree: int) -> PolynomialField:
    """Deterministic random vector polynomial of total degree <= degree.

    ``seed`` is one seed, or a 1-D array of F seeds for a batch of F fields
    (coefficients (F, 3, n, n, n)) whose field f is the polynomial of
    ``seed[f]``, drawn and damped exactly as on its own.
    """
    if not 0 <= degree <= 6:
        raise ValueError(f"polynomial degree must be in [0, 6], got {degree}")
    if np.ndim(seed) > 1:
        raise ValueError(f"seed must be one seed or a 1-D array of seeds, got {np.shape(seed)}")
    n = degree + 1
    seeds = seed if np.ndim(seed) else [seed]
    coeffs = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, size=(3, n, n, n))
                       for s in seeds])
    above, damping = _degree_tables(degree)
    coeffs[..., above] = 0.0
    coeffs /= damping
    return PolynomialField(coeffs if np.ndim(seed) else coeffs[0])


@functools.cache
def _degree_tables(degree: int) -> tuple[NDArray, NDArray]:
    """(mask of the monomials of total degree above ``degree``, damping 1 + total
    degree, which keeps values O(1) on the unit box) over the (n, n, n) powers."""
    total = np.indices((degree + 1,) * 3).sum(axis=0)
    above, damping = total > degree, 1.0 + total
    above.flags.writeable = damping.flags.writeable = False
    return above, damping


class ConformalField(DisplacementField):
    """phi_c(x) = <w, x> x - w |x|^2 / 2 + [p id + A] x + b.

    ``w_axial`` is the axial vector w of the quadratic-part generator,
    ``a_hat`` the exactly skew tensor A, ``b_hat`` the translation b and
    ``p_hat`` the uniform dilation coefficient p; each defaults to zero.
    The Jacobian lies pointwise in R.id + so(3); the torsion tensor
    sym grad curl vanishes identically.
    """

    degree = 2  #: counted as a quadratic, whatever its parameters

    def __init__(self, w_axial=(0.0, 0.0, 0.0), a_hat=((0.0, 0.0, 0.0),) * 3,
                 b_hat=(0.0, 0.0, 0.0), p_hat=0.0):
        self.w = _finite("w_axial", w_axial, (3,))
        self.A = _finite("a_hat", a_hat, (3, 3))
        self.b = _finite("b_hat", b_hat, (3,))
        self.p = float(_finite("p_hat", p_hat, ()))
        if not np.array_equal(self.A, -self.A.T):
            raise ValueError("a_hat must be exactly skew-symmetric")
        # constant second gradient: H[i,j,k] = w_j d_ik + w_k d_ij - w_i d_jk; a finite w
        # near the largest float overflows it, and such a field is refused
        w = self.w
        with np.errstate(over="ignore", invalid="ignore"):
            H = (np.einsum("j,ik->ijk", w, ID3) + np.einsum("k,ij->ijk", w, ID3)
                 - np.einsum("i,jk->ijk", w, ID3))
        if not np.all(np.isfinite(H)):
            raise ValueError(f"w_axial = {w.tolist()} overflows the second gradient")
        self._H = H

    def value(self, x):
        x = np.asarray(x, dtype=float)
        wx = x @ self.w
        r2 = np.sum(x * x, axis=-1)
        quad = wx[..., None] * x - 0.5 * r2[..., None] * self.w
        return quad + self.p * x + x @ self.A.T + self.b

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        wx = x @ self.w
        return (wx + self.p)[..., None, None] * ID3 + anti(cross(self.w, x)) + self.A

    def grad2(self, x):
        return np.broadcast_to(self._H, np.shape(x)[:-1] + (3, 3, 3)).copy()


def random_conformal(seed: int) -> ConformalField:
    """Deterministic random conformal field with O(1) parameters."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, 3)
    return ConformalField(w_axial=rng.uniform(-1.0, 1.0, 3), a_hat=anti(a),
                          b_hat=rng.uniform(-1.0, 1.0, 3), p_hat=float(rng.uniform(-1.0, 1.0)))


@dataclass(frozen=True)
class KinematicState:
    """All first- and second-gradient kinematic quantities at points (..., 3)."""

    grad_u: NDArray
    sym_grad: NDArray
    curl_u: NDArray
    axl_skw_grad: NDArray
    grad_curl: NDArray
    chi_torsion: NDArray
    omega_mean_curv: NDArray


#: eps_ilm as a 3 x 9 matrix over (i, (m, l)); its entries are 0 and +-1, so a
#: product with it rounds once per entry, exactly as the term-by-term sum does
_EPS_I_ML = np.ascontiguousarray(EPS3.transpose(0, 2, 1).reshape(3, 9))


def curl_from_grad(G: NDArray) -> NDArray:
    """curl u from the displacement gradient, c_i = eps_ijk d_j u_k."""
    G = np.asarray(G, dtype=float)
    return G.reshape(G.shape[:-2] + (9,)) @ _EPS_I_ML.T


def grad_curl_from_grad2(H: NDArray) -> NDArray:
    """grad curl u from the second gradient, M_ij = eps_ilm d_j d_l u_m."""
    H = np.asarray(H, dtype=float)
    return _EPS_I_ML @ H.reshape(H.shape[:-3] + (9, 3))


def kinematics(field: DisplacementField, x: NDArray) -> KinematicState:
    """Evaluate the full kinematic state of a field at points x (..., 3)
    from the field's own ``grad`` and ``grad2``.

    Raises
    ------
    NumericDomainError
        If either derivative evaluates to a non-finite value.
    """
    x = np.asarray(x, dtype=float)
    G = field.grad(x)
    H = field.grad2(x)
    _guard_finite("grad", G, x)
    _guard_finite("grad2", H, x)
    M = grad_curl_from_grad2(H)
    return KinematicState(
        grad_u=G,
        sym_grad=sym(G),
        curl_u=curl_from_grad(G),
        axl_skw_grad=_axial(skw(G)),  # skw(G) is exactly skew: a - b = -(b - a)
        grad_curl=M,
        chi_torsion=sym(M),
        omega_mean_curv=skw(M),
    )
