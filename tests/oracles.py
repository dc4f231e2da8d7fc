"""Test-side oracles: a field evaluated one point at a time, with derivatives
by finite differences, the finite-difference chart gradient of a patch, the
row-wise surface divergence of a tensor chart field and the tensor Gauss rule
on the unit cube."""

import numpy as np

from costress.fields import DisplacementField, fd_derivative_oracle, fd_partial
from costress.surfaces import SphericalCap


class PointwiseField(DisplacementField):
    """A pointwise callable ``x (3,) -> (3,)`` as a field: ``value`` calls it
    row by row over a batch of points, and every derivative is the FD oracle's."""

    def __init__(self, func):
        self._func = func

    def value(self, x):
        x = np.asarray(x, dtype=float)
        rows = [np.asarray(self._func(row), dtype=float) for row in x.reshape(-1, 3)]
        return np.reshape(rows, x.shape[:-1] + (3,))

    def grad(self, x):
        return fd_derivative_oracle(self, x, 1)

    def grad2(self, x):
        return fd_derivative_oracle(self, x, 2)

    def grad3(self, x):
        return fd_derivative_oracle(self, x, 3)

    def grad4(self, x):
        return fd_derivative_oracle(self, x, 4)


def chart_step(patch, axis: int, s):
    """The chart stencil's step along one chart axis: 1e-3 of the chart range,
    shrunk on a spherical cap to keep the whole stencil off its pole s = 0."""
    lo, hi = patch.s_range if axis == 0 else patch.t_range
    h = 1e-3 * (hi - lo)
    if axis == 0 and isinstance(patch, SphericalCap):
        h = np.minimum(h, np.maximum((np.asarray(s) - lo) / 3.0, 1e-10))
    return h


def chart_gradient(patch, fun, s, t):
    """(d fun/ds, d fun/dt) stacked on a new last axis by the package's one
    stencil.  fun maps chart coordinate arrays (S, T) to arrays (..., *out);
    returns (..., *out, 2)."""
    st = np.stack(np.broadcast_arrays(s, t), axis=-1).astype(float)
    return np.stack([fd_partial(lambda y: fun(y[..., 0], y[..., 1]), st, (axis,),
                                chart_step(patch, axis, s))
                     for axis in (0, 1)], axis=-1)


def surface_rowwise_divergence(fr, d_T):
    """Row-wise surface divergence of a 3x3 chart field T with chart
    derivatives d_T (..., 3, 3, 2) at the points of frame ``fr``:
    r_i = (grad_S T)_ijk P_kj = d_a T_ij x^a_j."""
    return np.einsum("...ija,...aj->...i", d_T, fr.dual)


def cube_gauss(order: int):
    """The tensor Gauss-Legendre rule of ``order`` nodes per axis on the unit
    cube, from numpy's rule on [-1, 1]: points (order^3, 3) and weights."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts, np.einsum("i,j,k->ijk", w, w, w).ravel()
