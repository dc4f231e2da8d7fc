import numpy as np
import pytest

from costress.boundary import (
    _grad_psi,
    _moment_field,
    _moment_jet,
    _tangential_gradient,
    boundary_work_identity,
    classical_tractions,
    complete_tractions,
    edge_jump,
    hd_postulate_report,
    hd_tractions,
)
from costress.constitutive import MaterialParams, stresses
from costress.fields import (
    CallableField,
    PolynomialField,
    fd_derivative_oracle,
    make_polynomial,
    random_conformal,
)
from costress.surfaces import BoxFace, SphericalCap, surface_divergence_check

HEMI = SphericalCap(center=np.zeros(3), radius=1.0, axis=(0.0, 0.0, 1.0),
                    theta_max=np.pi / 2.0)
FACE = BoxFace.unit_cube_face("z+")
CAP = SphericalCap(radius=2.0, theta_max=1.0, axis=(1.0, 1.0, 0.0))


@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
@pytest.mark.parametrize("patch", [FACE, HEMI], ids=["face", "hemisphere"])
def test_work_identity_single_pair(regime, patch):
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.4)
    u = make_polynomial(101, 3)
    du = make_polynomial(202, 2)
    rep = boundary_work_identity(p, u, du, patch, order=16)
    assert rep.gap <= 1e-6
    assert rep.decomposed == pytest.approx(rep.direct, abs=1e-6)
    assert set(rep.terms) == {
        "force", "normal_moment_correction", "tangential_gradient",
        "normal_derivative", "edge_conormal", "edge_normal_moment",
    }


def test_work_identity_flat_face_edge_terms_matter():
    # dropping the edge terms must break the identity for generic fields
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    u = make_polynomial(7, 3)
    du = make_polynomial(8, 2)
    rep = boundary_work_identity(p, u, du, FACE, order=16)
    surface_only = (rep.terms["force"] + rep.terms["normal_moment_correction"]
                    + rep.terms["tangential_gradient"]
                    + rep.terms["normal_derivative"])
    assert abs(surface_only - rep.direct) > 1e3 * rep.gap


def test_tractions_shapes_and_tangency():
    p = MaterialParams.for_regime("gkmt", L_c=0.4)
    u = make_polynomial(11, 3)
    s, t = 0.4, 0.6
    n = FACE.normal(s, t)
    ts_classical = classical_tractions(p, u, FACE, s, t)
    assert abs(ts_classical.g_double @ n) <= 1e-13  # tangential by construction
    ts_complete = complete_tractions(p, u, FACE, s, t)
    assert ts_complete.formulation == "complete"
    assert abs(ts_complete.g_double @ n) <= 1e-13
    ts_hd = hd_tractions(MaterialParams.for_regime("hd", L_c=0.4), u, FACE, s, t)
    st = stresses(MaterialParams.for_regime("hd", L_c=0.4), u, FACE.point(s, t))
    assert np.allclose(ts_hd.t_force, st.sigma_total @ n, atol=1e-13)


def test_hd_plus_variant_differs():
    # the printed (sigma + tau).n variant disagrees with the total force
    # stress whenever tau is nonzero
    p = MaterialParams.for_regime("hd", L_c=0.4)
    u = make_polynomial(11, 3)
    a = hd_tractions(p, u, FACE, 0.4, 0.6)
    b = hd_tractions(p, u, FACE, 0.4, 0.6, plus_variant=True)
    st = stresses(p, u, FACE.point(0.4, 0.6))
    assert np.linalg.norm(a.t_force - b.t_force) == pytest.approx(
        np.linalg.norm(2.0 * st.tau_tilde @ FACE.normal(0.4, 0.6)), rel=1e-10)


def test_edge_jump_vanishes_for_smooth_fields():
    p = MaterialParams.for_regime("gkmt", L_c=0.4)
    u = make_polynomial(3, 4)
    for side in FACE.edge_sides:
        assert np.linalg.norm(edge_jump(p, u, FACE, side, 0.3, 0.6)) <= 1e-9
    assert np.linalg.norm(edge_jump(p, u, HEMI, "smax", 0.5, 0.25)) <= 1e-8


def test_hd_postulate_normal_moment_vanishes_in_hd_regime():
    p = MaterialParams.for_regime("hd", L_c=0.5)
    rep = hd_postulate_report(p, random_conformal(11), HEMI, order=16)
    # skew couple stress never transmits a normal moment ...
    assert rep.sup_normal_moment <= 1e-14
    # ... but the tangential-gradient force term keeps doing work
    assert rep.residual_work_norm > 1e3 * 1e-14


def test_hd_postulate_residual_regression():
    # frozen value: seed-11 conformal field, hd regime (mu = lam = 1,
    # L_c = 0.5), unit hemisphere, order 16
    p = MaterialParams.for_regime("hd", L_c=0.5)
    rep = hd_postulate_report(p, random_conformal(11), HEMI, order=16)
    assert rep.residual_work_norm == pytest.approx(2.579403981590252, rel=1e-8)


def test_hd_postulate_modified_regime_silent():
    # the symmetric couple stress of a conformal field vanishes entirely
    p = MaterialParams.for_regime("modified", L_c=0.5)
    rep = hd_postulate_report(p, random_conformal(11), HEMI, order=16)
    assert rep.sup_normal_moment <= 1e-15
    assert rep.residual_work_norm <= 1e-12


def _printed_counterexample(x):
    # pointwise only: x[0] of a batch would be its first row
    return np.array([x[0] ** 2 - x[1] ** 2 - x[2] ** 2, 2.0 * x[0] * x[1], 2.0 * x[0] * x[2]])


def _printed_counterexample_closed_form():
    c = np.zeros((3, 3, 3, 3))
    c[0, 2, 0, 0], c[0, 0, 2, 0], c[0, 0, 0, 2] = 1.0, -1.0, -1.0
    c[1, 1, 1, 0] = c[2, 1, 0, 1] = 2.0
    return PolynomialField(c)


@pytest.mark.parametrize("patch", [FACE, HEMI], ids=["face", "hemisphere"])
def test_one_batched_path(patch):
    # tractions and edge jumps on (S, T) arrays equal their per-point values
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.4)
    u = make_polynomial(11, 3)
    S = np.array([[0.2, 0.45], [0.7, 0.9]]) * patch.s_range[1]
    T = np.array([[0.3, 0.8], [0.55, 0.1]]) * patch.t_range[1]
    for tractions in (classical_tractions, complete_tractions, hd_tractions):
        batch = tractions(p, u, patch, S, T)
        assert batch.t_force.shape == batch.g_double.shape == (2, 2, 3)
        for i in np.ndindex(S.shape):
            one = tractions(p, u, patch, S[i], T[i])
            assert np.allclose(batch.t_force[i], one.t_force, rtol=1e-12, atol=1e-12)
            assert np.allclose(batch.g_double[i], one.g_double, rtol=1e-12, atol=1e-12)
    side = patch.edge_sides[-1]
    Se, Te, _ = patch.edge_quadrature(side, 3)
    jumps = edge_jump(p, u, patch, side, Se, Te)
    for i in range(3):
        assert np.allclose(jumps[i], edge_jump(p, u, patch, side, Se[i], Te[i]),
                           rtol=1e-12, atol=1e-12)

    # a pointwise-only callable behind CallableField matches the
    # closed-form field it mirrors
    printed = CallableField(_printed_counterexample)
    mirror = _printed_counterexample_closed_form()
    X = patch.point(S, T)
    assert np.allclose(printed.value(X), mirror.value(X), rtol=1e-14, atol=1e-14)
    for order in (1, 2, 3):
        assert np.allclose(fd_derivative_oracle(printed, X, order),
                           fd_derivative_oracle(mirror, X, order), rtol=1e-9, atol=1e-9)
    assert np.allclose(surface_divergence_check(printed, patch, 8),
                       surface_divergence_check(mirror, patch, 8), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("field", [random_conformal(3), make_polynomial(5, 3)],
                         ids=["conformal", "cubic"])
@pytest.mark.parametrize("patch", [HEMI, CAP, FACE], ids=["hemisphere", "off_axis_cap", "face"])
def test_closed_form_chart_derivatives_match_the_fd_stencil(patch, field):
    # the oracle: the moment chart field differentiated by the FD chart
    # stencil, fed through the same intrinsic operators
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.4)
    (S, T), _ = patch.quadrature(8)

    def fd(k):
        return patch.chart_gradient(lambda ss, tt: _moment_field(p, field, patch, ss, tt)[k], S, T)

    jet = _moment_jet(p, field, patch, S, T)
    psi, w, _ = _moment_field(p, field, patch, S, T)
    assert np.array_equal(jet.psi, psi) and np.array_equal(jet.w, w)
    pairs = [
        (_grad_psi(patch, jet, S, T), patch.surface_scalar_gradient(fd(0), S, T)),
        (_tangential_gradient(patch, jet, S, T), patch.surface_rowwise_divergence(fd(2), S, T)),
    ]
    scale = max([np.max(np.abs(w))] + [np.max(np.abs(ref)) for _, ref in pairs])
    for closed, ref in pairs:
        assert closed.shape == ref.shape == (64, 3)
        assert np.max(np.abs(closed - ref)) <= 1e-9 * scale   # measured 1.4e-12


def test_work_identity_off_axis_cap_at_order_24():
    # at a resolved quadrature order the identity holds to rounding
    # (order 16 is not resolved on this cap: gaps up to 3.2e-6)
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    gaps = [boundary_work_identity(p, make_polynomial(s, 3), make_polynomial(s + 1, 3), CAP,
                                   order=24).gap for s in range(40)]
    assert max(gaps) <= 1e-11   # measured 1.4e-14
