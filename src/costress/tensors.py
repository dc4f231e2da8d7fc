"""Algebra of 3-vectors, 3x3 tensors and third-order tensors.

All functions are pure and broadcast over leading axes: shape (..., 3)
for vectors, (..., 3, 3) for second-order tensors and (..., 3, 3, 3) for
third-order tensors.  Transposes swap the last two axes, traces and inner
products reduce over them, and the predicates and ``axl`` test each item
of a batch.  A single case is a batch of one and gets the unbatched
shapes back (a numpy scalar where the result is a number).  No validation
of finiteness is performed here; fields reject non-finite values at their
evaluation boundary.

Rounding: ``sym``, ``skw`` and ``anti`` multiply the flattened input by a
constant matrix of 0, +-1 and 2, and the spherical part (so ``dev``) writes the
diagonal alone: each rounds every entry as its textbook formula does, overflow
and subnormals included, though a non-finite entry, times 0, spreads NaN over its
tensor in ``sym``, ``skw`` and ``anti``.  ``inner`` and the Frobenius norm are
``einsum`` sums, within a few ulp of a plain sum.  ``cross`` forms np.cross's
products and differences, so it equals np.cross bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "EPS3",
    "anti",
    "axl",
    "cartan_decompose",
    "contract_E_X",
    "cross",
    "dev",
    "inner",
    "is_skew",
    "is_traceless",
    "skw",
    "sym",
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

#: X -> X + X^T and X -> X - X^T on tensors flattened to 9 entries, and v -> anti(v);
#: 0.5 scales after the product, as a folded 0.5 would round overflow and subnormals
_TRANSPOSE = np.eye(9)[[0, 3, 6, 1, 4, 7, 2, 5, 8]]
_SYM2, _SKW2 = np.eye(9) + _TRANSPOSE, np.eye(9) - _TRANSPOSE
_ANTI = -EPS3.transpose(2, 0, 1).reshape(3, 9)


def _flat(X: NDArray) -> NDArray:
    X = np.asarray(X, dtype=float)
    return X.reshape(X.shape[:-2] + (9,))


def _frobenius(X: NDArray) -> NDArray:
    return np.sqrt(inner(X, X))


def sym(X: NDArray) -> NDArray:
    """Symmetric part (X + X^T)/2."""
    return (0.5 * (_flat(X) @ _SYM2)).reshape(np.shape(X))


def skw(X: NDArray) -> NDArray:
    """Skew-symmetric part (X - X^T)/2."""
    return (0.5 * (_flat(X) @ _SKW2)).reshape(np.shape(X))


def tr(X: NDArray) -> NDArray:
    """Trace of a 3x3 tensor."""
    return np.einsum("...ii->...", X)


def _spherical(X: NDArray) -> NDArray:
    S = np.zeros(np.shape(X)[:-2] + (9,))
    S[..., ::4] = (tr(X) / 3.0)[..., None]
    return S.reshape(np.shape(X))


def dev(X: NDArray) -> NDArray:
    """Deviatoric (trace-free) part X - tr(X)/3 id."""
    return X - _spherical(X)


def inner(X: NDArray, Y: NDArray) -> NDArray:
    """Frobenius inner product <X, Y> = tr(X Y^T)."""
    return np.einsum("...ij,...ij->...", X, Y)


def is_skew(X: NDArray, tol: float = 1e-12) -> NDArray:
    """Whether X is skew-symmetric within a relative Frobenius tolerance."""
    return _frobenius(2.0 * sym(X)) <= tol * np.maximum(1.0, _frobenius(X))


def is_traceless(X: NDArray, tol: float = 1e-12) -> NDArray:
    """Whether tr(X) vanishes within a relative tolerance."""
    return np.abs(tr(X)) <= tol * np.maximum(1.0, _frobenius(X))


def cartan_decompose(X: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """Split X into its (deviatoric-symmetric, skew, spherical) parts.

    The three parts are pairwise orthogonal in the Frobenius inner
    product and sum to X.
    """
    return dev(sym(X)), skw(X), _spherical(X)


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
        worst = np.max(_frobenius(2.0 * sym(A))[~skew])
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
    return (v @ _ANTI).reshape(v.shape + (3,))


def cross(a: NDArray, b: NDArray) -> NDArray:
    """Cross product a x b over the last axis, the leading axes broadcast:
    np.cross's products and differences without its axis handling."""
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def contract_E_X(E: NDArray, X: NDArray) -> NDArray:
    """Contraction (E : X)_i = E_ijk X_kj = <E_i, X^T>."""
    # not inner's einsum: it rounds a batch of these operands unlike each item alone
    return np.sum(E * np.swapaxes(X, -1, -2)[..., None, :, :], axis=(-2, -1))

