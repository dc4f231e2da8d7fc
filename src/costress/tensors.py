"""Algebra of 3-vectors, 3x3 tensors and third-order tensors.

All functions are pure and broadcast over leading axes: shape (..., 3)
for vectors, (..., 3, 3) for second-order tensors and (..., 3, 3, 3) for
third-order tensors.  Transposes swap the last two axes, traces and inner
products reduce over them, and the predicates and ``axl`` test each item
of a batch.  A single case is a batch of one and gets the unbatched
shapes back (a numpy scalar where the result is a number).  No validation
of finiteness is performed here; fields reject non-finite values at their
evaluation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "EPS3",
    "CartanParts",
    "anti",
    "axl",
    "cartan_decompose",
    "contract_E_X",
    "dev",
    "inner",
    "is_skew",
    "is_traceless",
    "skw",
    "sym",
    "tangential_projector",
    "tr",
]

#: Totally antisymmetric permutation tensor, eps[i, j, k] = epsilon_ijk.
EPS3 = np.zeros((3, 3, 3))
EPS3[0, 1, 2] = EPS3[1, 2, 0] = EPS3[2, 0, 1] = 1.0
EPS3[0, 2, 1] = EPS3[2, 1, 0] = EPS3[1, 0, 2] = -1.0
EPS3.flags.writeable = False

ID3 = np.eye(3)
ID3.flags.writeable = False

#: (rows, columns) of the entries A[2, 1], A[0, 2], A[1, 0] that hold axl(A)
_AXL = ([2, 0, 1], [1, 2, 0])


def _frobenius(X: NDArray) -> NDArray:
    return np.linalg.norm(X, axis=(-2, -1))


def sym(X: NDArray) -> NDArray:
    """Symmetric part (X + X^T)/2."""
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def skw(X: NDArray) -> NDArray:
    """Skew-symmetric part (X - X^T)/2."""
    return 0.5 * (X - np.swapaxes(X, -1, -2))


def tr(X: NDArray) -> NDArray:
    """Trace of a 3x3 tensor."""
    return np.einsum("...ii->...", X)


def _spherical(X: NDArray) -> NDArray:
    return (tr(X) / 3.0)[..., None, None] * ID3


def dev(X: NDArray) -> NDArray:
    """Deviatoric (trace-free) part X - tr(X)/3 id."""
    return X - _spherical(X)


def inner(X: NDArray, Y: NDArray) -> NDArray:
    """Frobenius inner product <X, Y> = tr(X Y^T)."""
    return np.sum(X * Y, axis=(-2, -1))


def is_skew(X: NDArray, tol: float = 1e-12) -> NDArray:
    """Whether X is skew-symmetric within a relative Frobenius tolerance."""
    return _frobenius(X + np.swapaxes(X, -1, -2)) <= tol * np.maximum(1.0, _frobenius(X))


def is_traceless(X: NDArray, tol: float = 1e-12) -> NDArray:
    """Whether tr(X) vanishes within a relative tolerance."""
    return np.abs(tr(X)) <= tol * np.maximum(1.0, _frobenius(X))


@dataclass(frozen=True)
class CartanParts:
    """Orthogonal decomposition of gl(3) into dev-sym + skew + spherical."""

    devsym: NDArray
    skew: NDArray
    spherical: NDArray

    def recombine(self) -> NDArray:
        return self.devsym + self.skew + self.spherical


def cartan_decompose(X: NDArray) -> CartanParts:
    """Split X into deviatoric-symmetric, skew and spherical parts.

    The three parts are pairwise orthogonal in the Frobenius inner
    product and sum to X.
    """
    return CartanParts(devsym=dev(sym(X)), skew=skw(X), spherical=_spherical(X))


def axl(A: NDArray) -> NDArray:
    """Axial vector of a skew-symmetric tensor.

    Satisfies A @ v = axl(A) x v and anti(axl(A)) = A for skew A.

    Raises
    ------
    ValueError
        If any item of A is not skew-symmetric within ``is_skew``'s default tolerance.
    """
    A = np.asarray(A)
    skew = is_skew(A)
    if not np.all(skew):
        worst = np.max(_frobenius(A + np.swapaxes(A, -1, -2))[~skew])
        raise ValueError(
            "axl requires a skew-symmetric tensor; "
            f"|A + A^T| = {worst:.3e} exceeds tolerance"
        )
    return _axial(A)


def _axial(A: NDArray) -> NDArray:
    """The entries of A that hold axl(A), unchecked: for a tensor skew by construction."""
    return A[..., _AXL[0], _AXL[1]]


def anti(v: NDArray) -> NDArray:
    """Skew tensor of an axial vector, anti(v)_ij = -eps_ijk v_k."""
    v = np.asarray(v, dtype=float)
    A = np.zeros(v.shape + (3,))
    A[..., _AXL[0], _AXL[1]] = v
    A[..., _AXL[1], _AXL[0]] = -v
    return A


def contract_E_X(E: NDArray, X: NDArray) -> NDArray:
    """Contraction (E : X)_i = E_ijk X_kj = <E_i, X^T>."""
    return inner(E, np.swapaxes(X, -1, -2)[..., None, :, :])


def tangential_projector(n: NDArray, tol: float = 1e-12) -> NDArray:
    """Projector id - n (x) n onto the plane orthogonal to a unit normal.

    Raises
    ------
    ValueError
        If any n is not a unit vector within the tolerance.
    """
    n = np.asarray(n, dtype=float)
    nrm = np.linalg.norm(n, axis=-1)
    bad = np.abs(nrm - 1.0) > tol
    if np.any(bad):
        raise ValueError(f"normal must be a unit vector, got |n| = {np.extract(bad, nrm)[0]!r}")
    return ID3 - n[..., :, None] * n[..., None, :]
