"""Pointwise algebra of 3-vectors, 3x3 tensors and third-order tensors.

All functions are pure and operate on plain numpy arrays: shape (3,) for
vectors, (3, 3) for second-order tensors and (3, 3, 3) for third-order
tensors.  No validation of finiteness is performed here; fields reject
non-finite values at their evaluation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "EPS3",
    "CartanParts",
    "anti",
    "apply_E_v",
    "axl",
    "cartan_decompose",
    "contract_E_X",
    "dev",
    "inner",
    "is_skew",
    "is_symmetric",
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


def sym(X: NDArray) -> NDArray:
    """Symmetric part (X + X^T)/2."""
    return 0.5 * (X + X.T)


def skw(X: NDArray) -> NDArray:
    """Skew-symmetric part (X - X^T)/2."""
    return 0.5 * (X - X.T)


def tr(X: NDArray) -> float:
    """Trace of a 3x3 tensor."""
    return float(np.trace(X))


def dev(X: NDArray) -> NDArray:
    """Deviatoric (trace-free) part X - tr(X)/3 id."""
    return X - (np.trace(X) / 3.0) * ID3


def inner(X: NDArray, Y: NDArray) -> float:
    """Frobenius inner product <X, Y> = tr(X Y^T)."""
    return float(np.sum(X * Y))


def is_symmetric(X: NDArray, tol: float = 1e-12) -> bool:
    """Whether X is symmetric within a relative Frobenius tolerance."""
    return np.linalg.norm(X - X.T) <= tol * max(1.0, np.linalg.norm(X))


def is_skew(X: NDArray, tol: float = 1e-12) -> bool:
    """Whether X is skew-symmetric within a relative Frobenius tolerance."""
    return np.linalg.norm(X + X.T) <= tol * max(1.0, np.linalg.norm(X))


def is_traceless(X: NDArray, tol: float = 1e-12) -> bool:
    """Whether tr(X) vanishes within a relative tolerance."""
    return abs(np.trace(X)) <= tol * max(1.0, np.linalg.norm(X))


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
    s = sym(X)
    return CartanParts(devsym=dev(s), skew=skw(X), spherical=(np.trace(X) / 3.0) * ID3)


def axl(A: NDArray, tol: float = 1e-12) -> NDArray:
    """Axial vector of a skew-symmetric tensor.

    Satisfies A @ v = axl(A) x v and anti(axl(A)) = A for skew A.

    Raises
    ------
    ValueError
        If A is not skew-symmetric within the relative tolerance.
    """
    if not is_skew(A, tol):
        raise ValueError(
            "axl requires a skew-symmetric tensor; "
            f"|A + A^T| = {np.linalg.norm(A + A.T):.3e} exceeds tolerance"
        )
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def anti(v: NDArray) -> NDArray:
    """Skew tensor of an axial vector, anti(v)_ij = -eps_ijk v_k."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def contract_E_X(E: NDArray, X: NDArray) -> NDArray:
    """Contraction (E : X)_i = E_ijk X_kj."""
    return np.einsum("ijk,kj->i", E, X)


def apply_E_v(E: NDArray, v: NDArray) -> NDArray:
    """Contraction (E . v)_ij = E_ijk v_k."""
    return np.einsum("ijk,k->ij", E, v)


def tangential_projector(n: NDArray, tol: float = 1e-12) -> NDArray:
    """Projector id - n (x) n onto the plane orthogonal to a unit normal.

    Raises
    ------
    ValueError
        If n is not a unit vector within the tolerance.
    """
    nrm = np.linalg.norm(n)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"normal must be a unit vector, got |n| = {nrm!r}")
    return ID3 - np.outer(n, n)
