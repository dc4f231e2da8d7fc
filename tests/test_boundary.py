import numpy as np
import pytest

from costress.boundary import (
    FORMULATIONS,
    _split,
    boundary_work_identity,
    hd_postulate_report,
    tractions,
)
from costress.constitutive import MaterialParams, couple_stress, stresses
from costress.fields import (
    DisplacementField,
    PolynomialField,
    fd_derivative_oracle,
    grad_curl_from_grad2,
    make_polynomial,
    random_conformal,
)
from costress.surfaces import BoxFace, SphericalCap, SurfacePatch, surface_divergence_check
from costress.tensors import anti, sym
from oracles import PointwiseField, chart_gradient, surface_rowwise_divergence

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
    fr = FACE.frame(s, t)
    n = fr.n
    assert sorted(FORMULATIONS) == ["classical", "complete", "hd"]
    for formulation in FORMULATIONS:
        t_force, g_double = tractions(p, u, fr, formulation)
        assert t_force.shape == g_double.shape == (3,)
        assert abs(g_double @ n) <= 1e-13  # tangential by construction
    p_hd = MaterialParams.for_regime("hd", L_c=0.4)
    t_hd, _ = tractions(p_hd, u, fr, "hd")
    st = stresses(p_hd, u, fr.x)
    assert np.allclose(t_hd, st.sigma_total @ n, atol=1e-13)


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
    # tractions on (S, T) arrays equal their per-point values
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.4)
    u = make_polynomial(11, 3)
    S = np.array([[0.2, 0.45], [0.7, 0.9]]) * patch.s_range[1]
    T = np.array([[0.3, 0.8], [0.55, 0.1]]) * patch.t_range[1]
    for formulation in FORMULATIONS:
        batch = tractions(p, u, patch.frame(S, T), formulation)
        assert batch[0].shape == batch[1].shape == (2, 2, 3)
        for i in np.ndindex(S.shape):
            one = tractions(p, u, patch.frame(S[i], T[i]), formulation)
            for b, o in zip(batch, one):
                assert np.allclose(b[i], o, rtol=1e-12, atol=1e-12)

    # a pointwise-only callable behind the pointwise field fixture matches
    # the closed-form field it mirrors
    printed = PointwiseField(_printed_counterexample)
    mirror = _printed_counterexample_closed_form()
    X = patch.frame(S, T).x
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
    (S, T), _, fr = patch.quadrature(8)

    def fd(moment):
        def at(ss, tt):
            q = patch.frame(ss, tt)
            return moment(_split(p, field, q), q)
        return chart_gradient(patch, at, S, T)

    d_psi = fd(lambda sp, q: sp.psi)
    d_wP = fd(lambda sp, q: anti(sp.w) @ (np.eye(3) - q.n[..., :, None] * q.n[..., None, :]))

    def sqrt_g_w(ss, tt):
        # sqrt(g) times the contravariant components w^a = x^a . v of P v
        q = patch.frame(ss, tt)
        return q.jac[..., None] * np.einsum("...aj,...j->...a", q.dual, field.value(q.x))

    d_w = chart_gradient(patch, sqrt_g_w, S, T)
    sp = _split(p, field, fr)
    pairs = [
        (sp.t_psi, -0.5 * np.cross(fr.n, fr.surface_scalar_gradient(d_psi))),
        (sp.t_tang, -0.5 * surface_rowwise_divergence(fr, d_wP)),
        # div_S(P v) = (1/sqrt g) d_a(sqrt g w^a)
        (fr.tangential_divergence(field.value(fr.x), field.grad(fr.x)),
         (d_w[..., 0, 0] + d_w[..., 1, 1]) / fr.jac),
    ]
    scale = max([np.max(np.abs(sp.w))] + [np.max(np.abs(ref)) for _, ref in pairs])
    for closed, ref in pairs:
        assert closed.shape == ref.shape and len(ref) == 64
        # measured: 1.4e-12 on the moment terms, 8.6e-12 on div_S(P v)
        assert np.max(np.abs(closed - ref)) <= 1e-9 * scale


def _projector_forms(p, field, fr):
    """-1/2 div_S(anti(w) P) with P = id - n(x)n and d_a P built as stacked 3x3
    tensors, and anti(w).n: the forms that the split's cross products replace,
    on the same chain-rule chart derivatives of psi and w."""
    st = stresses(p, field, fr.x)
    m, n, dn = st.m_tilde, fr.n, fr.dn
    m_n = np.einsum("...ij,...j->...i", m, n)
    psi = np.einsum("...i,...i->...", m_n, n)
    w = m_n - psi[..., None] * n
    dm_n = np.einsum("...ijk,...ak,...j->...ai", st.grad_m, fr.tangents, n)
    d_psi = (np.einsum("...ai,...i->...a", dm_n, n)
             + 2.0 * np.einsum("...ij,...j,...ai->...a", sym(m), n, dn))
    d_w = (dm_n + np.einsum("...ij,...aj->...ai", m, dn)
           - d_psi[..., None] * n[..., None, :] - psi[..., None, None] * dn)
    P = np.eye(3) - n[..., :, None] * n[..., None, :]
    dP = -(dn[..., :, :, None] * n[..., None, None, :] + n[..., None, :, None] * dn[..., :, None, :])
    d_wP = anti(d_w) @ P[..., None, :, :] + anti(w)[..., None, :, :] @ dP      # (..., 2, 3, 3)
    t_tang = -0.5 * surface_rowwise_divergence(fr, np.moveaxis(d_wP, -3, -1))
    return t_tang, (anti(w) @ n[..., None])[..., 0]


@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
@pytest.mark.parametrize("patch", [HEMI, CAP, FACE], ids=["hemisphere", "off_axis_cap", "face"])
def test_closed_forms_match_the_formulas_they_replace(patch, regime):
    # each closed form of the boundary path against the generic formula it
    # replaced, to a few rounding units of the largest entry (measured at
    # orders 8-32: at most 0.7 ulp on the dual tangents, 1.5 on m and grad m,
    # 5 on the tangential-gradient term and 0.7 on the double-force traction)
    eps = np.finfo(float).eps
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.4)
    u = make_polynomial(5, 3)
    _, _, fr = patch.quadrature(8)

    def close(closed, ref, ulps):
        assert closed.shape == ref.shape
        assert np.max(np.abs(closed - ref)) <= ulps * eps * np.max(np.abs(ref))

    # the dual tangents by the 2x2 adjugate: LAPACK's inverse metric, and
    # x^a . x_b = delta_ab to a few rounding units of |x^a| |x_b|
    g = np.einsum("...ai,...bi->...ab", fr.tangents, fr.tangents)
    close(fr.dual, np.linalg.inv(g) @ fr.tangents, 4)
    norms = [np.linalg.norm(t, axis=-1) for t in (fr.dual, fr.tangents)]
    duality = fr.dual @ np.swapaxes(fr.tangents, -1, -2) - np.eye(2)
    assert np.max(np.abs(duality) / (norms[0][..., :, None] * norms[1][..., None, :])) <= 4 * eps

    # the couple law folded into one (27, 9) matrix: couple_stress of grad curl
    st = stresses(p, u, fr.x)
    close(st.m_tilde, couple_stress(p, grad_curl_from_grad2(u.grad2(fr.x))), 4)
    dm = couple_stress(p, grad_curl_from_grad2(np.moveaxis(u.grad3(fr.x), -1, -4)))
    close(st.grad_m, np.moveaxis(dm, -3, -1), 4)

    # the cross products of the split: the projector forms
    sp = _split(p, u, fr)
    t_tang, g_ref = _projector_forms(p, u, fr)
    close(sp.t_tang, t_tang, 8)
    close(sp.g, g_ref, 4)


def test_work_identity_off_axis_cap_at_order_24():
    # at a resolved quadrature order the identity holds to rounding
    # (order 16 is not resolved on this cap: gaps up to 3.2e-6)
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    gaps = [boundary_work_identity(p, make_polynomial(s, 3), make_polynomial(s + 1, 3), CAP,
                                   order=24).gap for s in range(40)]
    assert max(gaps) <= 1e-11   # measured 1.4e-14


@pytest.mark.parametrize("patch, missing, hd_missing",
                         [(HEMI, 0.208659, 0.360606), (CAP, 0.790194, 1.303982),
                          (FACE, -0.00445838, 0.0501718)],
                         ids=["hemisphere", "off_axis_cap", "face"])
def test_complete_tractions_close_the_work_identity(patch, missing, hd_missing):
    # through the public tractions: -int t.du - 1/2 int g.(grad du n) plus the
    # edge terms is the direct work; the classical split misses exactly the
    # tangential-gradient term, and the hd split the normal-moment correction too
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    u, du = make_polynomial(0, 3), make_polynomial(1, 3)
    rep = boundary_work_identity(p, u, du, patch, order=24)
    _, W, fr = patch.quadrature(24)
    v, dv_n = du.value(fr.x), du.grad(fr.x) @ fr.n[..., None]
    (t_complete, g), (t_classical, w), (t_hd, w_hd) = (
        tractions(p, u, fr, f) for f in ("complete", "classical", "hd"))
    work = -W @ np.sum(t_complete * v, axis=-1) - 0.5 * W @ np.sum(g * dv_n[..., 0], axis=-1)
    edges = rep.terms["edge_conormal"] + rep.terms["edge_normal_moment"]
    scale = max(abs(term) for term in rep.terms.values())
    assert abs(work + edges - rep.direct) <= 1e-12 * scale
    missed = W @ np.sum((t_classical - t_complete) * v, axis=-1)
    assert abs(missed - rep.terms["tangential_gradient"]) <= 1e-12 * scale
    assert missed == pytest.approx(missing, rel=1e-5)
    # measured: the hd gap is <= 3.2e-17 of the largest term
    hd_missed = W @ np.sum((t_hd - t_complete) * v, axis=-1)
    assert abs(hd_missed - rep.terms["normal_moment_correction"]
               - rep.terms["tangential_gradient"]) <= 1e-12 * scale
    assert hd_missed == pytest.approx(hd_missing, rel=1e-5)
    assert np.array_equal(w_hd, w)


class _CountingField(DisplacementField):
    """Delegates to a field and counts its derivative evaluations."""

    def __init__(self, field):
        self.field = field
        self.calls = {"grad": 0, "grad2": 0, "grad3": 0}

    def value(self, x):
        return self.field.value(x)

    def _count(self, name, x):
        self.calls[name] += 1
        return getattr(self.field, name)(x)

    def grad(self, x):
        return self._count("grad", x)

    def grad2(self, x):
        return self._count("grad2", x)

    def grad3(self, x):
        return self._count("grad3", x)


@pytest.mark.parametrize("patch", [HEMI, FACE], ids=["hemisphere", "face"])
def test_one_frame_and_one_derivative_evaluation_per_point_set(patch, monkeypatch):
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    (S, T), _, _ = patch.quadrature(8)
    frames = []
    build = SurfacePatch.frame

    def counted(self, s, t):
        frames.append(s)
        return build(self, s, t)

    monkeypatch.setattr(SurfacePatch, "frame", counted)

    def counts(run):
        u = _CountingField(make_polynomial(0, 3))
        frames.clear()
        run(u)
        return len(frames), u.calls

    # the surface rule, then one rule per edge
    point_sets = 1 + len(patch.edge_sides)
    n, calls = counts(lambda u: boundary_work_identity(p, u, make_polynomial(1, 3), patch, 8))
    assert n == point_sets and calls == dict.fromkeys(calls, point_sets)
    for run in (lambda u: hd_postulate_report(p, u, patch, 8),
                *(lambda u, f=f: tractions(p, u, patch.frame(S, T), f) for f in FORMULATIONS)):
        n, calls = counts(run)
        assert n == 1 and calls == dict.fromkeys(calls, 1)
