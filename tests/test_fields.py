import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from costress import fields, tensors
from costress.constitutive import LoadData, MaterialParams, equilibrium_residual, stresses
from costress.fields import (
    ConformalField,
    DisplacementField,
    NumericDomainError,
    PolynomialField,
    curl_from_grad,
    fd_derivative_oracle,
    fd_partial,
    grad_curl_from_grad2,
    kinematics,
    make_polynomial,
    random_conformal,
)
from costress.solver import ClampedBasis
from costress.tensors import EPS3, anti, axl, skw
from oracles import PointwiseField


def test_fd_oracle_on_known_polynomial():
    # u = (x^2 y, y z, x^3) has simple hand-computed derivatives
    u = PointwiseField(lambda x: np.array([x[0] ** 2 * x[1], x[1] * x[2], x[0] ** 3]))
    x = np.array([0.5, 0.4, 0.3])
    G = fd_derivative_oracle(u, x, 1)
    expected = np.array([
        [2 * 0.5 * 0.4, 0.25, 0.0],
        [0.0, 0.3, 0.4],
        [3 * 0.25, 0.0, 0.0],
    ])
    assert np.allclose(G, expected, atol=1e-10)
    H = fd_derivative_oracle(u, x, 2)
    assert H[0, 0, 0] == pytest.approx(2 * 0.4, abs=1e-8)
    assert H[0, 0, 1] == pytest.approx(2 * 0.5, abs=1e-8)
    assert H[0, 1, 0] == pytest.approx(2 * 0.5, abs=1e-8)  # symmetrized
    T = fd_derivative_oracle(u, x, 3)
    assert T[2, 0, 0, 0] == pytest.approx(6.0, abs=1e-6)
    assert T[0, 0, 0, 1] == pytest.approx(2.0, abs=1e-6)
    # d^4 (x^2 y^2 z) / dx^2 dy^2 = 4 z
    Q = fd_derivative_oracle(PointwiseField(lambda x: np.array([x[0] ** 2 * x[1] ** 2 * x[2],
                                                                 0.0, 0.0])), x, 4)
    assert Q[0, 0, 1, 0, 1] == pytest.approx(4 * 0.3, abs=1e-6)


@pytest.mark.parametrize("order", [0, 5])
def test_fd_oracle_rejects_bad_order(order):
    with pytest.raises(ValueError):
        fd_derivative_oracle(make_polynomial(0, 1), np.zeros(3), order)


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_polynomial_closed_forms_match_fd(degree):
    u = make_polynomial(17 + degree, degree)
    rng = np.random.default_rng(degree)
    for x in rng.uniform(-0.8, 0.8, (4, 3)):
        assert np.allclose(u.grad(x), fd_derivative_oracle(u, x, 1),
                           atol=1e-9, rtol=1e-9)
        assert np.allclose(u.grad2(x), fd_derivative_oracle(u, x, 2),
                           atol=1e-7, rtol=1e-7)
        assert np.allclose(u.grad3(x), fd_derivative_oracle(u, x, 3),
                           atol=1e-5, rtol=1e-5)
        assert np.allclose(u.grad4(x), fd_derivative_oracle(u, x, 4),
                           atol=1e-6, rtol=1e-6)
        # the stencil on the closed-form third gradient is exact up to round-off
        ref = np.stack([fd_partial(u.grad3, x, (a,), 1e-3) for a in range(3)], axis=-1)
        assert np.allclose(u.grad4(x), ref, atol=1e-11, rtol=1e-11)


def test_polynomial_batch_evaluation_consistent():
    u = make_polynomial(23, 4)
    X = np.random.default_rng(1).uniform(-1, 1, (7, 3))
    assert np.allclose(u.value(X), np.stack([u.value(x) for x in X]))
    assert np.allclose(u.grad2(X), np.stack([u.grad2(x) for x in X]))
    assert np.allclose(u.grad3(X), np.stack([u.grad3(x) for x in X]))
    assert np.allclose(u.grad4(X), np.stack([u.grad4(x) for x in X]))


@pytest.mark.parametrize("points", [(5, 3), (5, 4, 3)], ids=["(F,3)", "(F,P,3)"])
@pytest.mark.parametrize("degree", range(7))
def test_a_field_batch_equals_its_fields_bit_for_bit(degree, points):
    seeds = np.random.default_rng(degree).integers(0, 2 ** 31, size=points[0])
    batch = make_polynomial(seeds, degree)
    fields = [make_polynomial(int(s), degree) for s in seeds]
    x = np.random.default_rng(7).uniform(0.05, 0.95, points)
    for name in ("value", "grad", "grad2", "grad3", "grad4"):
        stacked = np.stack([getattr(u, name)(p) for u, p in zip(fields, x)])
        assert np.array_equal(getattr(batch, name)(x), stacked), name


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("F", [1, 3, 20])
def test_the_stencil_rounds_a_batch_like_each_item_alone(F, order):
    # the one FD stencil is batch invariant: a batch of fields at one point
    # each, and one field at a batch of points, equal the items one at a time
    seeds = np.random.default_rng(F).integers(0, 2 ** 31, size=F)
    x = np.random.default_rng(order).uniform(0.05, 0.95, (F, 3))
    batch = fd_derivative_oracle(make_polynomial(seeds, 4), x, order)
    alone = [fd_derivative_oracle(make_polynomial(int(s), 4), p, order) for s, p in zip(seeds, x)]
    assert np.array_equal(batch, np.stack(alone))
    u = make_polynomial(int(seeds[0]), 4)
    assert np.array_equal(fd_derivative_oracle(u, x, order),
                          np.stack([fd_derivative_oracle(u, p, order) for p in x]))


def test_make_polynomial_of_seeds_stacks_each_seeds_field():
    seeds = np.array([3, 0, 2 ** 31 - 1, 3])
    batch = make_polynomial(seeds, 4)
    assert batch.coeffs.shape == (4, 3, 5, 5, 5)
    for row, s in zip(batch.coeffs, seeds):
        assert np.array_equal(row, make_polynomial(int(s), 4).coeffs)
    with pytest.raises(ValueError):
        make_polynomial(seeds.reshape(2, 2), 4)


def test_a_field_states_its_total_degree():
    for d in range(7):
        assert make_polynomial(d, d).degree == d
    assert make_polynomial(np.arange(4), 5).degree == 5
    xyz = np.zeros((3, 3, 3, 3))
    assert PolynomialField(xyz).degree == 0
    xyz[1, 1, 1, 1] = 2.0  # x1 x2 x3 in the second component: each power is 1, the degree 3
    assert PolynomialField(xyz).degree == 3
    batch = np.zeros((2, 3, 4, 4, 4))  # the batch's largest, in a block wider than it
    batch[1, 0, 0, 2, 0] = 1.0
    assert PolynomialField(batch).degree == 2
    # a conformal field counts as a quadratic, its quadratic part zero or not
    assert ConformalField().degree == random_conformal(1).degree == 2


def test_evaluating_a_polynomial_does_not_find_its_degree():
    u = make_polynomial(np.arange(3), 4)
    kinematics(u, np.zeros((3, 2, 3)))
    assert "degree" not in vars(u)


def test_fields_may_carry_several_field_axes():
    batch = make_polynomial(np.arange(6), 3)
    grid = PolynomialField(batch.coeffs.reshape(2, 3, 3, 4, 4, 4))
    x = np.random.default_rng(2).uniform(0.05, 0.95, (2, 3, 5, 3))
    assert grid.grad2(x).shape == (2, 3, 5, 3, 3, 3)
    assert np.array_equal(grid.grad2(x).reshape(6, 5, 3, 3, 3), batch.grad2(x.reshape(6, 5, 3)))


@pytest.mark.parametrize("coeffs", [np.zeros((3, 3, 3)), np.zeros((2, 3, 3, 3)),
                                    np.zeros((3, 3, 3, 2)), np.zeros((4, 2, 3, 3, 3))],
                         ids=["no_component", "two_components", "not_a_cube", "batch_of_pairs"])
def test_polynomial_coefficients_of_a_bad_shape_are_rejected(coeffs):
    with pytest.raises(ValueError):
        PolynomialField(coeffs)


@pytest.mark.parametrize("points", [(3,), (1, 3), (4, 3), (2, 3, 3)])
def test_points_must_lead_with_the_field_axes(points):
    u = make_polynomial(np.arange(3), 2)
    with pytest.raises(ValueError, match="field axes"):
        u.grad(np.zeros(points))


def test_make_polynomial_is_deterministic_and_degree_capped():
    a = make_polynomial(42, 3)
    b = make_polynomial(42, 3)
    assert np.array_equal(a.coeffs, b.coeffs)
    with pytest.raises(ValueError):
        make_polynomial(0, 7)


@pytest.mark.parametrize("degree", range(7))
def test_make_polynomial_reads_cached_degree_tables(degree):
    # the mask and the damping of a degree are built once, read-only, from the total
    # degree of the powers; the coefficients are the damped draws, bit for bit
    above, damping = fields._degree_tables(degree)
    assert fields._degree_tables(degree)[1] is damping
    assert not above.flags.writeable and not damping.flags.writeable
    n = degree + 1
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    assert np.array_equal(above, i + j + k > degree) and np.array_equal(damping, 1.0 + i + j + k)
    seeds = [3, 11]
    ref = np.stack([np.random.default_rng(s).uniform(-1.0, 1.0, (3, n, n, n)) for s in seeds])
    ref[..., i + j + k > degree] = 0.0
    ref /= 1.0 + i + j + k
    assert np.array_equal(make_polynomial(seeds, degree).coeffs, ref)
    assert np.array_equal(make_polynomial(seeds[1], degree).coeffs, ref[1])


def test_kinematics_reads_the_axial_vector_without_the_skew_check(monkeypatch):
    # skw(G) is skew by construction, so kinematics skips axl's check; the value is
    # the checked axl's, bit for bit
    u, x = make_polynomial(5, 3), np.random.default_rng(5).uniform(-1.0, 1.0, (6, 3))
    monkeypatch.setattr(tensors, "is_skew", None)
    state = kinematics(u, x)
    monkeypatch.undo()
    assert np.array_equal(state.axl_skw_grad, axl(skw(u.grad(x))))
    with pytest.raises(ValueError, match="skew-symmetric"):
        axl(np.eye(3))


def test_curl_identity_on_polynomials():
    for seed in range(5):
        u = make_polynomial(seed, 4)
        x = np.random.default_rng(seed).uniform(-1, 1, 3)
        state = kinematics(u, x)
        assert np.allclose(state.curl_u, 2.0 * state.axl_skw_grad, atol=1e-12)
        assert abs(np.trace(state.grad_curl)) <= 1e-12 * max(
            1.0, np.linalg.norm(state.grad_curl))


class _PointByPoint(DisplacementField):
    """A field whose batched derivatives are its per-point ones, stacked, so
    that a batch and its points feed kinematics the same numbers."""

    def __init__(self, field):
        self.field = field

    def _stacked(self, derivative, x):
        rows = [derivative(p) for p in x.reshape(-1, 3)]
        return np.reshape(rows, x.shape[:-1] + rows[0].shape)

    def grad(self, x):
        return self._stacked(self.field.grad, x)

    def grad2(self, x):
        return self._stacked(self.field.grad2, x)


@pytest.mark.parametrize("shape", [(3,), (2, 5)])
def test_kinematics_of_a_batch_equals_its_points(shape):
    u = _PointByPoint(make_polynomial(5, 4))
    x = np.random.default_rng(0).uniform(0.05, 0.95, shape + (3,))
    state = kinematics(u, x)
    for idx in np.ndindex(*shape):
        for name, value in vars(kinematics(u, x[idx])).items():
            assert np.array_equal(getattr(state, name)[idx], value), name


@pytest.mark.parametrize("shape", [(3,), (2, 5, 3), (0, 3)], ids=["point", "grid", "empty"])
@pytest.mark.parametrize("family", ["polynomial", "conformal", "rigid", "basis", "callable"])
def test_every_field_family_keeps_the_point_shape(family, shape):
    u = {
        "polynomial": lambda: make_polynomial(3, 4),
        "conformal": lambda: random_conformal(3),
        "rigid": lambda: ConformalField(a_hat=anti([0.1, 0.2, 0.3])),
        "basis": lambda: ClampedBasis(2).solution_field(np.arange(24.0)),
        "callable": lambda: PointwiseField(lambda p: p * p[::-1]),
    }[family]()
    x = np.random.default_rng(0).uniform(0.05, 0.95, shape)
    # a conformal field, of degree 2, defines no third or fourth gradient
    orders = 3 if isinstance(u, ConformalField) else 5
    for order, name in enumerate(("value", "grad", "grad2", "grad3", "grad4")[:orders]):
        assert getattr(u, name)(x).shape == shape + (3,) * order, name


class _NanBeyond(DisplacementField):
    """Zero where x_1 <= 0.5; beyond, NaN in its derivatives of order ``order``
    and up.  No arithmetic makes the NaN, so no warning is raised."""

    def __init__(self, order):
        self.order = order

    def _at(self, x, k):
        out = np.zeros(np.shape(x)[:-1] + (3,) * (k + 1))
        if k >= self.order:
            out[np.asarray(x)[..., 0] > 0.5] = np.nan
        return out

    value, grad, grad2, grad3, grad4 = (lambda self, x, k=k: self._at(x, k) for k in range(5))


@pytest.mark.parametrize("order, evaluate, name", [
    (1, kinematics, "grad"),
    (2, kinematics, "grad2"),
    (3, lambda u, x: stresses(MaterialParams.for_regime("gkmt"), u, x), "grad3"),
    (0, lambda u, x: fd_derivative_oracle(u, x, 2), "the FD grad2"),
    (4, lambda u, x: equilibrium_residual(MaterialParams.for_regime("hd"), u, LoadData(), x),
     "the equilibrium residual"),
], ids=["kinematics_grad", "kinematics_grad2", "stresses_grad3", "fd_oracle", "residual"])
def test_a_non_finite_evaluation_names_the_array_and_the_point(order, evaluate, name):
    # one bad point of a (2, 2) batch, the third in C order
    x = np.array([[[0.1, 0.2, 0.3], [0.2, 0.1, 0.0]], [[0.9, -0.5, 0.25], [0.0, 0.0, 0.0]]])
    with pytest.raises(NumericDomainError) as err:
        evaluate(_NanBeyond(order), x)
    assert str(err.value) == f"{name} is not finite at point 2 of 4, x = [0.9, -0.5, 0.25]"
    with pytest.raises(NumericDomainError, match=r"at point 0 of 1, x = \[0.75, 0.0, 0.0\]$"):
        evaluate(_NanBeyond(order), np.array([0.75, 0.0, 0.0]))
    evaluate(_NanBeyond(order), x[:, 1])        # finite where x_1 <= 0.5


class TestConformal:
    def test_gradient_structure(self):
        # grad phi_c = (<w,x> + p) id + anti(w x x) + A pointwise
        w, A, p = np.array([0.5, -1.0, 0.25]), anti((0.1, 0.2, 0.3)), 0.7
        u = ConformalField(w_axial=w, a_hat=A, b_hat=(1.0, 2.0, 3.0), p_hat=p)
        x = np.array([0.3, -0.8, 0.6])
        G = u.grad(x)
        expected = (w @ x + p) * np.eye(3) + anti(np.cross(w, x)) + A
        assert np.allclose(G, expected, atol=1e-14)
        assert np.allclose(G, fd_derivative_oracle(u, x, 1), atol=1e-9)

    def test_second_gradient_constant(self):
        u = random_conformal(4)
        x1, x2 = np.array([0.1, 0.2, 0.3]), np.array([-0.9, 0.5, 0.0])
        assert np.allclose(u.grad2(x1), u.grad2(x2), atol=1e-15)
        assert np.allclose(u.grad2(x1), fd_derivative_oracle(u, x1, 2),
                           atol=1e-7)

    def test_grad_curl_is_twice_the_generator(self):
        u = ConformalField(w_axial=(2.0, 0.0, 0.0))
        state = kinematics(u, np.array([0.4, 0.1, -0.2]))
        W = anti(np.array([2.0, 0.0, 0.0]))
        assert np.allclose(state.grad_curl, 2.0 * W, atol=1e-12)
        # torsion-free: sym grad curl = 0
        assert np.allclose(state.chi_torsion, 0.0, atol=1e-13)

    def test_jacobian_in_conformal_algebra(self):
        # dev sym grad vanishes: the Jacobian is R.id + so(3)
        u = random_conformal(9)
        for x in np.random.default_rng(9).uniform(-1, 1, (5, 3)):
            G = u.grad(x)
            devsym = 0.5 * (G + G.T) - (np.trace(G) / 3.0) * np.eye(3)
            assert np.max(np.abs(devsym)) <= 1e-13

    def test_a_hat_must_be_skew(self):
        with pytest.raises(ValueError):
            ConformalField(a_hat=np.eye(3))

    def test_a_hat_skew_within_rounding_only_is_rejected(self):
        # -a_hat^T is within numpy's default rtol of a_hat, yet the field's
        # |dev sym grad u| would be 2.5e-6: not a conformal map
        with pytest.raises(ValueError, match="exactly skew"):
            ConformalField(a_hat=[[0.0, 1.0, 0.0], [-0.999995, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_printed_counterexample_field_is_torsion_free():
    # (x1^2 - x2^2 - x3^2, 2 x1 x2, 2 x1 x3): inhomogeneous yet
    # sym grad curl = 0 everywhere
    def u(x):
        return np.array([x[0] ** 2 - x[1] ** 2 - x[2] ** 2,
                         2.0 * x[0] * x[1], 2.0 * x[0] * x[2]])

    field = PointwiseField(u)
    rng = np.random.default_rng(55)
    for x in rng.uniform(-1.0, 1.0, (10, 3)):
        H = fd_derivative_oracle(field, x, 2)
        M = np.einsum("ilm,mlj->ij", np.array(
            [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
             [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
             [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float), H)
        assert np.max(np.abs(0.5 * (M + M.T))) <= 1e-10
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -4.0], [0.0, 4.0, 0.0]])
        assert np.allclose(M, expected, atol=1e-8)
    # and the displacement gradient is not constant
    g0 = field.grad(np.zeros(3))
    g1 = field.grad(np.ones(3) * 0.5)
    assert np.max(np.abs(g0 - g1)) > 0.5


def test_polynomial_derivatives_built_on_first_use():
    u = make_polynomial(12, 4)
    x = np.random.default_rng(1).uniform(0.0, 1.0, (5, 3))
    u.value(x)
    assert set(u._blocks) == {0}      # values need no derivative block
    kinematics(u, x)
    assert set(u._blocks) == {0, 1, 2}   # kinematics never reads third derivatives
    # the third-order block by hand: d/dx_a takes power p + 1 to p, times p + 1
    C2 = u._blocks[2]
    D = C2.shape[-1]                  # each block has its own size
    eager = np.zeros(C2.shape[:3] + (3, D, D, D))
    for a in range(3):
        for p in range(D - 1):
            lead = (slice(None),) * (3 + a)      # the component, two derivative axes, p_<a
            eager[:, :, :, a][lead + (p,)] = C2[lead + (p + 1,)] * (p + 1)
    g3 = u.grad3(x)
    C3 = u._blocks[3]
    d = C3.shape[-1]
    assert np.array_equal(C3, eager[..., :d, :d, :d])
    assert np.count_nonzero(C3) == np.count_nonzero(eager)   # only zero powers were cut
    assert np.array_equal(g3, u._contract(C3, x))
    u.grad3(x)
    assert u._blocks[3] is C3         # built once


@pytest.mark.parametrize("seed", [12, np.arange(4)], ids=["field", "batch"])
def test_a_derivative_block_keeps_only_the_powers_it_has(seed):
    # an order-r derivative of degree 4 has per-axis powers up to 4 - r, in
    # every field of a batch as in one field alone
    u = make_polynomial(seed, 4)
    u.grad4(np.zeros(np.shape(seed) + (3,)))
    assert [u._blocks[r].shape[-3:] for r in range(5)] == [(5, 5, 5), (4, 4, 4), (3, 3, 3),
                                                            (2, 2, 2), (1, 1, 1)]


def test_a_tensor_product_term_keeps_its_high_powers():
    # x1^2 x2^2 x3^2 has total degree 6 in a D = 3 block: each of its derivatives
    # up to fourth order still holds power 2 on some axis, so no block is cut
    coeffs = np.zeros((3, 3, 3, 3))
    coeffs[1, 2, 2, 2] = 1.0
    u = PolynomialField(coeffs)
    x = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 3))

    def naive(axes):
        # d^k (x1^2 x2^2 x3^2) / dx_axes, one axis at a time
        out = np.ones(len(x))
        for a in range(3):
            n = axes.count(a)
            out *= 0.0 if n > 2 else math.perm(2, n) * x[:, a] ** (2 - n)
        return out

    for order, grad in enumerate((u.value, u.grad, u.grad2, u.grad3, u.grad4)):
        got = grad(x)
        assert u._blocks[order].shape[-1] == 3
        for axes in itertools.product(range(3), repeat=order):
            assert np.allclose(got[(slice(None), 1) + axes], naive(axes), rtol=1e-14, atol=0.0)
            assert not np.any(got[(slice(None), [0, 2]) + axes])


def test_threads_that_race_for_a_block_keep_one():
    # more threads than cores, switching often: every thread reads the block
    # stored first, and its values equal a serial evaluation's bit for bit
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (6, 3))
    ref = make_polynomial(9, 6).grad4(x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for _ in range(20):
                u = make_polynomial(9, 6)
                start = threading.Barrier(8)

                def read(_, u=u, start=start):
                    start.wait(timeout=10)
                    return u._block(4), u.grad4(x)

                got = [f.result(timeout=30) for f in [pool.submit(read, i) for i in range(8)]]
                assert all(block is u._blocks[4] for block, _ in got)
                assert all(np.array_equal(q, ref) for _, q in got)
    finally:
        sys.setswitchinterval(interval)


def test_curl_forms_equal_the_permutation_sums():
    # bit for bit: each entry is one difference of two derivatives
    rng = np.random.default_rng(4)
    G, H = rng.normal(size=(2, 5, 3, 3)), rng.normal(size=(7, 3, 3, 3))
    assert np.array_equal(curl_from_grad(G), np.einsum("ijk,...kj->...i", EPS3, G))
    assert np.array_equal(grad_curl_from_grad2(H), np.einsum("ilm,...mlj->...ij", EPS3, H))
    assert curl_from_grad(G[0, 0]).shape == (3,) and grad_curl_from_grad2(H[0]).shape == (3, 3)


def test_curl_from_grad_convention():
    # curl of (-y, x, 0) is (0, 0, 2)
    u = make_polynomial(0, 1)
    G = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(curl_from_grad(G), [0.0, 0.0, 2.0])


def test_skw_grad_relation():
    u = make_polynomial(31, 3)
    x = np.array([0.2, 0.3, 0.4])
    state = kinematics(u, x)
    assert np.allclose(anti(state.axl_skw_grad), skw(state.grad_u), atol=1e-13)
