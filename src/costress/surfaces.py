"""Parametrized boundary patches, surface quadrature and the intrinsic
surface differential operators used by the traction decompositions.

Two geometries are provided: flat box faces (exact geometry, trivial
surface gradients) and spherical caps (curvature-exercising geometry).
Every method and check takes chart coordinates (s, t) as arrays and
broadcasts over them; a scalar pair is a batch of one.  Each patch has one
geometry method, :meth:`SurfacePatch.chart`, the closed-form chart map:
the position, the chart tangents and the chart derivatives of the unit
normal.  Only :meth:`SurfacePatch.frame` calls it, and a :class:`Frame`
holds everything the surface operators read at one point set: those
three arrays, the normal, the area element and the dual tangents.
:meth:`SurfacePatch.quadrature` returns the frame of its rule and
:meth:`SurfacePatch.edge_quadrature` the frame and outward conormal of its
edge rule, so a caller builds one frame per point set.  The dual tangents
come from the 2x2 inverse metric in closed form, and the surface gradient
and divergence are closed forms on the frame: the gradient acts on chart
derivatives the caller supplies (the moment traction terms of
:mod:`costress.boundary` get theirs by the chain rule), the divergence on
an ambient gradient.  No finite difference is taken here; the tests hold
the chart stencil that cross-checks these closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fields import DisplacementField, _finite, curl_from_grad

__all__ = [
    "BoxFace",
    "Frame",
    "SphericalCap",
    "SurfacePatch",
    "surface_divergence_check",
    "stokes_flux_check",
]


@dataclass(frozen=True)
class Frame:
    """Surface frame at chart points: the patch's chart map (position,
    chart tangents and normal derivatives) with the normal, area element
    and dual tangents built from it, each with the leading shape of the
    chart coordinates.  The tangents are held once, as one (..., 2, 3)
    array that the metric, the edge arc length and the chain rule of
    :mod:`costress.boundary` all read.

    The surface gradient of a chart field f is d_a f x^a, with the dual
    tangents x^a = g^ab x_b.
    """

    x: NDArray
    tangents: NDArray   # chart tangents (x_s, x_t), (..., 2, 3)
    n: NDArray
    dn: NDArray         # chart derivatives (n_s, n_t) of the normal, (..., 2, 3)
    jac: NDArray        # area element |x_s x x_t|
    dual: NDArray       # dual tangents (x^s, x^t), (..., 2, 3)

    @property
    def div_n(self) -> NDArray:
        """div_S n = x^a . d_a n, the surface divergence of the normal."""
        return np.einsum("...aj,...aj->...", self.dual, self.dn)

    def surface_scalar_gradient(self, d_f) -> NDArray:
        """Surface gradient of a scalar chart field with chart derivatives
        d_f (..., 2), as an ambient vector."""
        return np.einsum("...a,...aj->...j", d_f, self.dual)

    def tangential_divergence(self, v, grad_v) -> NDArray:
        """div_S(P v) of an ambient vector field, P = id - n n, from its
        values v (..., 3) and gradient grad_v (..., 3, 3) at the frame
        points: tr(P grad v) - (v.n) div_S n."""
        n = self.n
        n_grad_n = np.einsum("...i,...ij,...j->...", n, grad_v, n)
        return np.trace(grad_v, axis1=-2, axis2=-1) - n_grad_n - _dot(v, n) * self.div_n


@functools.cache
def _leggauss(order: int):
    """The Gauss-Legendre rule on [-1, 1], read-only: every call shares it."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b], fresh arrays over the
    cached reference rule."""
    nodes, weights = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * nodes, half * weights


def _dot(a: NDArray, b: NDArray) -> NDArray:
    return np.einsum("...i,...i->...", a, b)


def _col(a) -> NDArray:
    """Chart coordinates as a column against the trailing ambient axis."""
    return np.asarray(a, dtype=float)[..., None]


class SurfacePatch:
    """Base class; concrete patches supply the parametrization."""

    s_range: tuple[float, float]
    t_range: tuple[float, float]
    #: parameter sides that carry an edge curve (the rest are seams/poles)
    edge_sides: tuple[str, ...]

    def chart(self, s, t) -> tuple[NDArray, NDArray, NDArray]:
        """The chart map at (s, t): the position x (..., 3), the chart
        tangents (x_s, x_t) and the chart derivatives of the unit normal
        (n_s, n_t), each (..., 2, 3)."""
        raise NotImplementedError

    def frame(self, s, t) -> Frame:
        x, tangents, dn = self.chart(s, t)
        nv = np.cross(tangents[..., 0, :], tangents[..., 1, :])
        jac = np.linalg.norm(nv, axis=-1)
        # x^a = g^ab x_b with the 2x2 inverse metric adj(g) / det g in closed form
        x_s, x_t = tangents[..., 0, :], tangents[..., 1, :]
        g_ss, g_st, g_tt = _dot(x_s, x_s), _dot(x_s, x_t), _dot(x_t, x_t)
        det = (g_ss * g_tt - g_st * g_st)[..., None]
        dual = np.stack([(g_tt[..., None] * x_s - g_st[..., None] * x_t) / det,
                         (g_ss[..., None] * x_t - g_st[..., None] * x_s) / det], axis=-2)
        return Frame(x=x, tangents=tangents, n=nv / jac[..., None], dn=dn, jac=jac, dual=dual)

    # -- quadrature -------------------------------------------------------

    def quadrature(self, order: int):
        """Tensor Gauss rule: chart coordinates (S, T) and weights that
        include the area element, each of shape (order**2,), and the
        frame at (S, T)."""
        s_nodes, s_w = _gauss(order, *self.s_range)
        t_nodes, t_w = _gauss(order, *self.t_range)
        S, T = (a.ravel() for a in np.meshgrid(s_nodes, t_nodes, indexing="ij"))
        fr = self.frame(S, T)
        return (S, T), np.outer(s_w, t_w).ravel() * fr.jac, fr

    # -- edges -------------------------------------------------------------

    def edge_quadrature(self, side: str, order: int):
        """Gauss rule along one edge: weights with the arc-length element
        folded in, shape (order,), the frame at the nodes and the outward
        conormal there.  The conormal is the unit dual tangent, +-x^s/|x^s|
        on an s-side and +-x^t/|x^t| on a t-side: tangent to the surface
        and orthogonal to the edge by construction."""
        if side not in ("smin", "smax", "tmin", "tmax"):
            raise ValueError(f"unknown edge side {side!r}")
        across = "st".index(side[0])        # the chart axis the edge holds fixed
        upper = side.endswith("max")
        ranges = (self.s_range, self.t_range)
        along, w = _gauss(order, *ranges[1 - across])
        fixed = np.full_like(along, ranges[across][1 if upper else 0])
        fr = self.frame(*((fixed, along) if across == 0 else (along, fixed)))
        nu = fr.dual[..., across, :]
        nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
        arc = np.linalg.norm(fr.tangents[..., 1 - across, :], axis=-1)
        return w * arc, fr, nu if upper else -nu


class BoxFace(SurfacePatch):
    """Flat rectangular face, x(s, t) = origin + s e1 + t e2."""

    edge_sides = ("smin", "smax", "tmin", "tmax")

    def __init__(self, origin, e1, e2, extent_s: float, extent_t: float):
        self.origin = np.asarray(origin, dtype=float)
        self.e1 = np.asarray(e1, dtype=float) / np.linalg.norm(e1)
        self.e2 = np.asarray(e2, dtype=float) / np.linalg.norm(e2)
        self.s_range = (0.0, float(extent_s))
        self.t_range = (0.0, float(extent_t))

    @classmethod
    def unit_cube_face(cls, which: str) -> "BoxFace":
        """Outward-oriented face of the unit cube: 'x+', 'x-', 'y+', 'y-',
        'z+' or 'z-'."""
        faces = [axis + sign for axis in "xyz" for sign in "+-"]
        if which not in faces:
            raise ValueError(f"unknown unit cube face {which!r}; expected one of {faces}")
        axis = "xyz".index(which[0])
        e = np.eye(3)
        a, b = (axis + 1) % 3, (axis + 2) % 3
        origin = np.zeros(3)
        if which[1] == "+":
            origin[axis] = 1.0
            return cls(origin, e[a], e[b], 1.0, 1.0)
        return cls(origin, e[b], e[a], 1.0, 1.0)

    def chart(self, s, t):
        x = self.origin + _col(s) * self.e1 + _col(t) * self.e2
        tangents = np.broadcast_to(np.stack([self.e1, self.e2]), x.shape[:-1] + (2, 3))
        return x, tangents, np.zeros(tangents.shape)


class SphericalCap(SurfacePatch):
    """Spherical cap of opening angle theta_max about an axis.

    Chart coordinates are (theta, phi); phi is a periodic seam, the pole
    theta = 0 is a chart singularity, and the only edge is the rim
    theta = theta_max.  The normal points radially outward.
    """

    edge_sides = ("smax",)

    def __init__(self, center=(0.0, 0.0, 0.0), radius: float = 1.0,
                 axis=(0.0, 0.0, 1.0), theta_max: float = math.pi / 2.0):
        self.center, e3 = _finite("center", center, (3,)), _finite("axis", axis, (3,))
        self.radius = float(_finite("radius", radius, ()))
        theta_max = float(_finite("theta_max", theta_max, ()))
        norm = np.linalg.norm(e3)
        if not (0.0 < self.radius and 0.0 < theta_max <= math.pi and 0.0 < norm < math.inf):
            raise ValueError(f"need radius > 0, 0 < theta_max <= pi and a non-zero axis, "
                             f"got radius {radius}, theta_max {theta_max}, axis {axis}")
        e3 = e3 / norm
        helper = np.array([1.0, 0.0, 0.0])
        if abs(helper @ e3) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        e1 = helper - (helper @ e3) * e3
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(e3, e1)
        self.e1, self.e2, self.e3 = e1, e2, e3
        self.s_range = (0.0, theta_max)
        self.t_range = (0.0, 2.0 * math.pi)

    def chart(self, s, t):
        s, t = _col(s), _col(t)
        sin_s, cos_s, sin_t, cos_t = np.sin(s), np.cos(s), np.sin(t), np.cos(t)
        r, radial = self.radius, cos_t * self.e1 + sin_t * self.e2
        x = self.center + r * (sin_s * radial + cos_s * self.e3)
        x_s = r * (cos_s * radial - sin_s * self.e3)
        x_t = r * sin_s * (-sin_t * self.e1 + cos_t * self.e2)
        tangents = np.stack([x_s, x_t], axis=-2)
        return x, tangents, tangents / r


def surface_divergence_check(v: DisplacementField, patch: SurfacePatch, order: int):
    """Surface divergence theorem on a patch: the surface integral of
    div_S of the tangential part of the field v against the edge integral
    of the conormal component.  Returns (lhs, rhs, gap)."""
    _, W, fr = patch.quadrature(order)
    lhs = float(W @ fr.tangential_divergence(v.value(fr.x), v.grad(fr.x)))
    rhs = 0.0
    for side in patch.edge_sides:
        W, fr, nu = patch.edge_quadrature(side, order)
        rhs += float(W @ _dot(v.value(fr.x), nu))
    return lhs, rhs, abs(lhs - rhs)


def stokes_flux_check(field, patch: SurfacePatch, order: int):
    """Stokes theorem on a patch: flux of curl u against the circulation
    of u along the edge with tangent tau = n x nu."""

    _, W, fr = patch.quadrature(order)
    flux = float(W @ _dot(curl_from_grad(field.grad(fr.x)), fr.n))
    circ = 0.0
    for side in patch.edge_sides:
        W, fr, nu = patch.edge_quadrature(side, order)
        circ += float(W @ _dot(field.value(fr.x), np.cross(fr.n, nu)))
    return flux, circ, abs(flux - circ)
