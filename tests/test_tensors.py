import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from costress import tensors
from costress.tensors import (
    EPS3,
    anti,
    axl,
    cartan_decompose,
    contract_E_X,
    dev,
    inner,
    is_skew,
    is_traceless,
    skw,
    sym,
    tr,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=finite)
mat33 = arrays(np.float64, (3, 3), elements=finite)


def test_permutation_tensor_values():
    assert EPS3[0, 1, 2] == 1.0
    assert EPS3[2, 1, 0] == -1.0
    assert EPS3[0, 0, 1] == 0.0
    # eps_ijk eps_ijk = 6
    assert np.sum(EPS3 * EPS3) == 6.0


def test_anti_printed_example():
    v = np.array([1.0, 2.0, 3.0])
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(anti(v), expected)


def test_anti_cross_product_action():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(anti(v) @ w, np.cross(v, w), atol=1e-14)


@given(vec3)
def test_axl_anti_round_trip(v):
    assert np.allclose(axl(anti(v)), v, atol=1e-9)


@given(vec3)
def test_anti_norm_identity(v):
    A = anti(v)
    assert inner(A, A) == pytest.approx(2.0 * v @ v, abs=1e-9, rel=1e-12)


def test_axl_rejects_non_skew():
    with pytest.raises(ValueError):
        axl(np.eye(3))


@given(mat33)
@settings(max_examples=200)
def test_cartan_decomposition(X):
    devsym, skew, spherical = cartan_decompose(X)
    assert np.allclose(devsym + skew + spherical, X, atol=1e-9)
    # pairwise Frobenius orthogonality
    scale = max(1.0, np.linalg.norm(X) ** 2)
    assert abs(inner(devsym, skew)) <= 1e-10 * scale
    assert abs(inner(devsym, spherical)) <= 1e-10 * scale
    assert abs(inner(skew, spherical)) <= 1e-10 * scale
    assert is_traceless(devsym, tol=1e-10)
    assert is_skew(skew, tol=1e-10)


def test_sym_skw_dev_tr():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3, 3))
    assert np.allclose(sym(X) + skw(X), X)
    assert np.array_equal(sym(X), sym(X).T)
    assert is_skew(skw(X))
    assert tr(dev(X)) == pytest.approx(0.0, abs=1e-14)
    assert tr(X) == pytest.approx(X[0, 0] + X[1, 1] + X[2, 2])


def test_contraction_matches_explicit_loops():
    rng = np.random.default_rng(7)
    E = rng.normal(size=(3, 3, 3))
    X = rng.normal(size=(3, 3))
    loop = np.zeros(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                loop[i] += E[i, j, k] * X[k, j]
    assert np.allclose(contract_E_X(E, X), loop, atol=1e-14)


def test_anti_via_permutation_tensor():
    # anti(v)_ij = -eps_ijk v_k
    rng = np.random.default_rng(11)
    v = rng.normal(size=3)
    assert np.allclose(anti(v), -np.einsum("ijk,k->ij", EPS3, v), atol=1e-15)


def _skew(X):
    return X - np.swapaxes(X, -1, -2)


def _parts(X):
    return np.stack(cartan_decompose(X), axis=-3)


# (function, shapes of its arguments per case)
BROADCAST = {
    "sym": (sym, [(3, 3)]),
    "skw": (skw, [(3, 3)]),
    "tr": (tr, [(3, 3)]),
    "dev": (dev, [(3, 3)]),
    "inner": (inner, [(3, 3), (3, 3)]),
    "is_skew": (is_skew, [(3, 3)]),
    "is_traceless": (lambda X: is_traceless(dev(X)), [(3, 3)]),
    "cartan_decompose": (_parts, [(3, 3)]),
    "axl": (lambda X: axl(_skew(X)), [(3, 3)]),
    "anti": (anti, [(3,)]),
    "contract_E_X": (contract_E_X, [(3, 3, 3), (3, 3)]),
}


@pytest.mark.parametrize("name", BROADCAST)
def test_batch_equals_stacked_per_case_calls(name):
    f, shapes = BROADCAST[name]
    rng = np.random.default_rng(5)
    args = [rng.normal(size=(4, 5) + shape) for shape in shapes]
    per_case = [[f(*(a[i, j] for a in args)) for j in range(5)] for i in range(4)]
    batch = f(*args)
    assert np.shape(batch) == (4, 5) + np.shape(per_case[0][0])
    assert np.array_equal(batch, np.array(per_case))


def _wide(rng, shape):
    """Finite entries whose decimal exponents span -320 (subnormal) to 308."""
    return rng.uniform(-1.7, 1.7, shape) * 10.0 ** rng.integers(-320, 309, shape)


def _by_entry(entry):
    """A (..., 3, 3) tensor built entry by entry from entry(i, j)."""
    return np.stack([np.stack([entry(i, j) for j in range(3)], axis=-1) for i in range(3)], axis=-2)


@pytest.mark.parametrize("seed", range(5))
def test_kernels_round_like_their_textbook_formulas(seed):
    # products with 0/+-1/2 matrices and diagonal-only writes round each entry
    # exactly as the formulas below, at the overflow and subnormal edges too
    rng = np.random.default_rng(seed)
    X, v = _wide(rng, (2000, 3, 3)), _wide(rng, (2000, 3))
    third = tr(X) / 3.0
    zero = np.zeros(len(X))
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf in overflowed traces
        S = _by_entry(lambda i, j: 0.5 * (X[:, i, j] + X[:, j, i]))
        W = _by_entry(lambda i, j: 0.5 * (X[:, i, j] - X[:, j, i]))
        # the batch reaches both edges: sums that overflow and subnormal halves
        assert np.isinf(S).any() and np.any((S != 0) & (np.abs(S) < np.finfo(float).tiny))
        devsym, skew, spherical = cartan_decompose(X)
        textbook = {
            "sym": (sym(X), S),
            "skw": (skw(X), W),
            "dev": (dev(X), _by_entry(lambda i, j: X[:, i, j] - third if i == j else X[:, i, j])),
            "anti": (anti(v), _by_entry(lambda i, j: -EPS3[i, j, 3 - i - j] * v[:, 3 - i - j]
                                        if i != j else zero)),
            "devsym": (devsym, _by_entry(
                lambda i, j: S[:, i, j] - tr(S) / 3.0 if i == j else S[:, i, j])),
            "skew": (skew, W),
            "spherical": (spherical, _by_entry(lambda i, j: third if i == j else zero)),
        }
    for name, (got, want) in textbook.items():
        assert np.array_equal(got, want, equal_nan=True), name


def test_inner_and_norm_stay_within_a_few_ulp_of_plain_sums():
    rng = np.random.default_rng(8)
    X, Y = rng.normal(size=(2, 5000, 3, 3)) * 10.0 ** rng.integers(-5, 6, (2, 5000, 1, 1))
    eps = np.finfo(float).eps
    scale = np.sum(np.abs(X * Y), axis=(-2, -1))
    assert np.all(np.abs(inner(X, Y) - np.sum(X * Y, axis=(-2, -1))) <= 4 * eps * scale)
    norm = np.linalg.norm(X, axis=(-2, -1))
    assert np.all(np.abs(tensors._frobenius(X) - norm) <= 4 * eps * norm)


def test_axl_rejects_a_batch_with_one_non_skew_item():
    A = anti(np.random.default_rng(6).normal(size=(4, 5, 3)))
    axl(A)
    A[2, 3] += 1e-3 * np.eye(3)
    with pytest.raises(ValueError, match="skew"):
        axl(A)
