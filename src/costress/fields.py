"""Displacement fields with derivative evaluation up to third order.

Two families carry closed-form derivatives: seeded polynomials and
infinitesimal conformal maps, whose presets also give the zero, constant
and rigid-motion fields.  Arbitrary callables fall back to a
finite-difference oracle.  The same oracle doubles as the independent
cross-check for every closed form.

Evaluations take points of shape (..., 3) and broadcast over the leading
axes; a single point is a batch of one.  Polynomials also come in batches
of fields: their coefficients carry leading field axes, which pair with
the leading axes of the points, and a single field is a batch of none.
:func:`fd_partial` is the one finite-difference stencil of the package.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .tensors import EPS3, ID3, anti, axl, skw, sym

__all__ = [
    "CallableField",
    "ConformalField",
    "ConformalParams",
    "DisplacementField",
    "KinematicState",
    "NumericDomainError",
    "PolynomialField",
    "curl_from_grad",
    "fd_derivative_oracle",
    "fd_partial",
    "field_from_spec",
    "grad_curl_from_grad2",
    "kinematics",
    "make_polynomial",
    "random_conformal",
]


class NumericDomainError(ArithmeticError):
    """A field evaluation produced a non-finite value."""


# Base step per derivative order; tuned so that after one Richardson
# level truncation and roundoff balance in double precision.
_FD_BASE_STEP = {1: 1e-3, 2: 4e-3, 3: 1.5e-2}

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
    point.  Returns (..., *out).
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
    diff = np.tensordot(vals, weights, axes=([lead + 1], [0]))        # (..., 2, *out)
    diff /= (steps ** k).reshape(steps.shape + (1,) * (diff.ndim - steps.ndim))
    coarse, fine = np.take(diff, 0, axis=lead), np.take(diff, 1, axis=lead)
    return (16.0 * fine - coarse) / 15.0


def fd_derivative_oracle(field, x: NDArray, order: int) -> NDArray:
    """Central finite differences of formal order 4 plus one Richardson level.

    Returns the derivative tensor D[..., i, a1, ..., a_order] = d^order u_i /
    dx_a1 ... dx_a_order at points x of shape (..., 3).  Serves as the
    independent oracle for every closed-form derivative.

    Parameters
    ----------
    field
        A :class:`DisplacementField` or a plain callable ``x -> (3,)``,
        which is evaluated point by point through :class:`CallableField`.
    order
        Derivative order, 1, 2 or 3; the step is a per-order tuned value
        scaled by ``1 + |x|``.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    if not isinstance(field, DisplacementField):
        field = CallableField(field)
    x = np.asarray(x, dtype=float)
    h = _FD_BASE_STEP[order] * (1.0 + np.linalg.norm(x, axis=-1))

    out = np.zeros(x.shape[:-1] + (3,) + (3,) * order)
    for combo in itertools.combinations_with_replacement(range(3), order):
        val = fd_partial(field.value, x, combo, h)
        for perm in set(itertools.permutations(combo)):
            out[(..., slice(None)) + perm] = val
    if not np.all(np.isfinite(out)):
        raise NumericDomainError(f"finite differences produced non-finite values at {x}")
    return out


def _finite(name: str, v, shape: tuple[int, ...]) -> NDArray:
    """v as a float array of the given shape; ValueError unless it is one of
    finite numbers (booleans and strings are not numbers here)."""
    a = np.asarray(v, dtype=object)
    if a.shape != shape or not all(isinstance(e, numbers.Real)
                                   and not isinstance(e, (bool, np.bool_)) for e in a.flat):
        raise ValueError(f"{name} must be numbers of shape {shape}, got {v!r}")
    a = a.astype(float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return a


class DisplacementField:
    """A vector-valued field of position with derivatives up to third order.

    Subclasses either provide closed-form derivatives or inherit the
    finite-difference fallbacks.  Fields are immutable after construction
    and safe to evaluate concurrently.
    """

    def value(self, x: NDArray) -> NDArray:
        raise NotImplementedError

    def grad(self, x: NDArray) -> NDArray:
        """Gradient G[i, j] = d u_i / d x_j."""
        return fd_derivative_oracle(self, x, 1)

    def grad2(self, x: NDArray) -> NDArray:
        """Second gradient H[i, j, k] = d^2 u_i / dx_j dx_k."""
        return fd_derivative_oracle(self, x, 2)

    def grad3(self, x: NDArray) -> NDArray:
        """Third gradient T[i, j, k, l] = d^3 u_i / dx_j dx_k dx_l."""
        return fd_derivative_oracle(self, x, 3)

    def __call__(self, x: NDArray) -> NDArray:
        return self.value(x)


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
        self._D = coeffs.shape[-1]

    # stacked coefficient tensors, derivative axes after the component:
    # C1[..., i, a], C2[..., i, a, b], C3[..., i, a, b, c] all hold (D, D, D)
    # monomial blocks, zero padded so one contraction evaluates every
    # component at once; each is built on first use

    @functools.cached_property
    def _C1(self) -> NDArray:
        return np.stack([self._der_block(self.coeffs, a) for a in range(3)], axis=-4)

    @functools.cached_property
    def _C2(self) -> NDArray:
        return np.stack([self._der_block(self._C1, a) for a in range(3)], axis=-4)

    @functools.cached_property
    def _C3(self) -> NDArray:
        return np.stack([self._der_block(self._C2, a) for a in range(3)], axis=-4)

    @staticmethod
    def _der_block(C: NDArray, axis: int) -> NDArray:
        """Differentiate the trailing (D, D, D) monomial block along one
        coordinate, keeping the block shape by zero padding."""
        D = C.shape[-1]
        out = np.zeros_like(C)
        k = np.arange(1, D)
        mover = np.moveaxis(out, axis - 3, -1)
        mover[..., : D - 1] = np.moveaxis(C, axis - 3, -1)[..., 1:] * k
        return out

    def _contract(self, C: NDArray, x: NDArray) -> NDArray:
        """sum_ijk C[f, ..., i, j, k] x1^i x2^j x3^k at the points x[f] (..., 3)
        of each field f; the axes of C between its field and monomial axes
        become the trailing axes of the result.  The monomial axes are
        contracted one at a time by matrix products, stacked over fields."""
        D, fields = self._D, self.coeffs.shape[:-4]
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
        return self._contract(self._C1, x)

    def grad2(self, x):
        return self._contract(self._C2, x)

    def grad3(self, x):
        return self._contract(self._C3, x)


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
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    total = i + j + k
    coeffs[..., total > degree] = 0.0
    # damp high-order terms so values stay O(1) on the unit box
    coeffs /= 1.0 + total
    return PolynomialField(coeffs if np.ndim(seed) else coeffs[0])


def _polynomial(seed, degree) -> PolynomialField:
    """The polynomial of a field spec: one field, so one seed."""
    if np.ndim(seed):
        raise ValueError(f"a polynomial field takes one seed, got {seed!r}")
    return make_polynomial(seed, degree)


@dataclass(frozen=True)
class ConformalParams:
    """Parameters of an infinitesimal conformal map.

    ``w_axial`` is the axial vector of the quadratic-part generator,
    ``a_hat`` a skew tensor, ``b_hat`` a translation and ``p_hat`` the
    uniform dilation coefficient.
    """

    w_axial: NDArray = dc_field(default_factory=lambda: np.zeros(3))
    a_hat: NDArray = dc_field(default_factory=lambda: np.zeros((3, 3)))
    b_hat: NDArray = dc_field(default_factory=lambda: np.zeros(3))
    p_hat: float = 0.0

    def __post_init__(self):
        for name, shape in (("w_axial", (3,)), ("a_hat", (3, 3)), ("b_hat", (3,))):
            object.__setattr__(self, name, _finite(name, getattr(self, name), shape))
        object.__setattr__(self, "p_hat", float(_finite("p_hat", self.p_hat, ())))
        if not np.allclose(self.a_hat, -self.a_hat.T, atol=0.0):
            raise ValueError("a_hat must be exactly skew-symmetric")


class ConformalField(DisplacementField):
    """phi_c(x) = <w, x> x - w |x|^2 / 2 + [p id + A] x + b.

    The Jacobian lies pointwise in R.id + so(3); the torsion tensor
    sym grad curl vanishes identically.
    """

    def __init__(self, params: ConformalParams):
        self.w = params.w_axial
        self.A = params.a_hat
        self.b = params.b_hat
        self.p = params.p_hat
        # constant second gradient: H[i,j,k] = w_j d_ik + w_k d_ij - w_i d_jk
        w = self.w
        H = (
            np.einsum("j,ik->ijk", w, ID3)
            + np.einsum("k,ij->ijk", w, ID3)
            - np.einsum("i,jk->ijk", w, ID3)
        )
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
        cross = np.cross(np.broadcast_to(self.w, x.shape), x)
        out = (wx + self.p)[..., None, None] * ID3
        out = out + anti(cross) + self.A
        return out

    def grad2(self, x):
        return np.broadcast_to(self._H, np.shape(x)[:-1] + (3, 3, 3)).copy()

    def grad3(self, x):
        return np.zeros(np.shape(x)[:-1] + (3, 3, 3, 3))


def random_conformal(seed: int) -> ConformalField:
    """Deterministic random conformal field with O(1) parameters."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, 3)
    return ConformalField(
        ConformalParams(
            w_axial=rng.uniform(-1.0, 1.0, 3),
            a_hat=anti(a),
            b_hat=rng.uniform(-1.0, 1.0, 3),
            p_hat=float(rng.uniform(-1.0, 1.0)),
        )
    )


class CallableField(DisplacementField):
    """Wrap an arbitrary pointwise callable ``x (3,) -> (3,)``; it is
    evaluated row by row over a batch of points, and derivatives come
    from the FD oracle."""

    def __init__(self, func: Callable[[NDArray], NDArray]):
        self._func = func

    def value(self, x):
        x = np.asarray(x, dtype=float)
        rows = [np.asarray(self._func(row), dtype=float) for row in x.reshape(-1, 3)]
        out = np.reshape(rows, x.shape[:-1] + (3,))
        if not np.all(np.isfinite(out)):
            raise NumericDomainError(f"field evaluation non-finite at {x}")
        return out


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
    second_grad: NDArray


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
    """Evaluate the full kinematic state of a field at points x (..., 3).

    Closed-form derivatives are used when the family provides them,
    finite differences otherwise.

    Raises
    ------
    NumericDomainError
        If any derivative evaluates to a non-finite value.
    """
    x = np.asarray(x, dtype=float)
    G = field.grad(x)
    H = field.grad2(x)
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(H))):
        raise NumericDomainError(f"non-finite kinematics at {x}")
    M = grad_curl_from_grad2(H)
    return KinematicState(
        grad_u=G,
        sym_grad=sym(G),
        curl_u=curl_from_grad(G),
        axl_skw_grad=axl(skw(G), tol=np.inf),
        grad_curl=M,
        chi_torsion=sym(M),
        omega_mean_curv=skw(M),
        second_grad=H,
    )


def _rigid(w_axial, b=(0.0, 0.0, 0.0)) -> ConformalField:
    """u(x) = W x + b with W = anti(w_axial): the conformal preset
    a_hat = W, b_hat = b."""
    return ConformalField(ConformalParams(a_hat=anti(_finite("w_axial", w_axial, (3,))),
                                          b_hat=_finite("b", b, (3,))))


#: family -> (builder, the spec keys it reads, each a keyword of the builder)
_FIELD_BUILDERS = {
    "zero": (lambda: _rigid(np.zeros(3)), ()),
    "constant": (lambda c: _rigid(np.zeros(3), _finite("c", c, (3,))), ("c",)),
    "rigid": (_rigid, ("w_axial", "b")),
    "polynomial": (_polynomial, ("seed", "degree")),
    "conformal": (lambda **p: ConformalField(ConformalParams(**p)),
                  ("w_axial", "a_hat", "b_hat", "p_hat")),
}


def field_from_spec(spec: dict | str) -> DisplacementField:
    """Rebuild a field from its JSON specification."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    spec = dict(spec)
    family = spec.pop("family", None)
    if family not in _FIELD_BUILDERS:
        raise ValueError(f"unknown field family {family!r}")
    build, keys = _FIELD_BUILDERS[family]
    unread = set(spec) - set(keys)
    if unread:
        raise ValueError(f"keys a {family} field does not read: {sorted(unread)}")
    return build(**spec)
