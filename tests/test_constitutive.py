import warnings

import numpy as np
import pytest

from costress.constitutive import (
    LoadData,
    MaterialParams,
    couple_stress,
    equilibrium_residual,
    stresses,
    w_curv,
    w_lin,
)
from costress.fields import (
    ConformalField,
    PolynomialField,
    fd_partial,
    grad_curl_from_grad2,
    kinematics,
    make_polynomial,
    random_conformal,
)
from costress.solver import ClampedBasis
from costress.tensors import anti, dev, inner, skw, sym, tr


class TestMaterialParams:
    def test_validation(self):
        MaterialParams(mu=1.0, lam=-0.5, L_c=1.0, alpha1=1.0, alpha2=0.0)
        with pytest.raises(ValueError):
            MaterialParams(mu=-1.0, lam=1.0, L_c=1.0, alpha1=1.0, alpha2=1.0)
        with pytest.raises(ValueError):
            MaterialParams(mu=1.0, lam=-1.0, L_c=1.0, alpha1=1.0, alpha2=1.0)
        with pytest.raises(ValueError):
            MaterialParams(mu=1.0, lam=1.0, L_c=1.0, alpha1=-0.1, alpha2=1.0)

    @pytest.mark.parametrize("name", ["mu", "lam", "L_c", "alpha1", "alpha2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, name, value):
        kwargs = dict(mu=1.0, lam=1.0, L_c=0.5, alpha1=1.0, alpha2=1.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match="finite"):
            MaterialParams(**kwargs)

    def test_regimes(self):
        assert MaterialParams.for_regime("gkmt").regime == "gkmt"
        assert MaterialParams.for_regime("modified").regime == "modified"
        assert MaterialParams.for_regime("hd").regime == "hd"
        with pytest.raises(ValueError):
            MaterialParams.for_regime("unknown")


def test_local_energy_two_forms_agree():
    p = MaterialParams.for_regime("gkmt", mu=1.7, lam=0.9)
    rng = np.random.default_rng(2)
    for _ in range(100):
        G = rng.uniform(-1, 1, (3, 3))
        forms = w_lin(p, G).forms
        assert forms["mu_lambda"] == pytest.approx(forms["dev_bulk"], rel=1e-12,
                                                   abs=1e-14)
        e = sym(G)
        direct = p.mu * inner(e, e) + 0.5 * p.lam * tr(G) ** 2
        assert float(w_lin(p, G)) == pytest.approx(direct, rel=1e-14)


def test_curvature_three_forms_agree_on_trace_free_input():
    p = MaterialParams.for_regime("gkmt", mu=1.3, L_c=0.7)
    rng = np.random.default_rng(5)
    for _ in range(100):
        M = dev(rng.uniform(-1, 1, (3, 3)))
        forms = w_curv(p, M).forms
        vals = list(forms.values())
        assert max(vals) - min(vals) <= 1e-12 * max(1.0, max(map(abs, vals)))


def test_curvature_warns_on_spurious_trace():
    p = MaterialParams.for_regime("gkmt")
    M = np.eye(3)
    with pytest.warns(UserWarning, match="trace"):
        w_curv(p, M)


def test_curvature_warns_on_one_spurious_trace_in_a_batch():
    p = MaterialParams.for_regime("gkmt")
    M = dev(np.random.default_rng(3).uniform(-1, 1, (4, 5, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_curv(p, M)
    M[3, 1] += 1e-3 * np.eye(3)
    with pytest.warns(UserWarning, match="trace"):
        w_curv(p, M)


@pytest.mark.parametrize("energy, to_input", [(w_lin, lambda X: X), (w_curv, dev)])
@pytest.mark.parametrize("regime", ["gkmt", "modified", "hd"])
def test_energy_batch_equals_stacked_per_case_calls(energy, to_input, regime):
    p = MaterialParams.for_regime(regime, mu=1.3, lam=0.7, L_c=0.6)
    X = to_input(np.random.default_rng(4).uniform(-1, 1, (4, 5, 3, 3)))

    def values(w):
        return np.stack([w.value, *w.forms.values()], axis=-1)

    per_case = [[values(energy(p, X[i, j])) for j in range(5)] for i in range(4)]
    assert np.array_equal(values(energy(p, X)), np.array(per_case))


def test_couple_stress_regimes():
    rng = np.random.default_rng(8)
    M = dev(rng.uniform(-1, 1, (3, 3)))
    k = 2.0 * 0.5 ** 2
    p_mod = MaterialParams.for_regime("modified", mu=2.0, L_c=0.5)
    m = couple_stress(p_mod, M)
    assert np.allclose(m, k * sym(M), atol=1e-14)   # symmetric couple stress
    p_hd = MaterialParams.for_regime("hd", mu=2.0, L_c=0.5)
    m = couple_stress(p_hd, M)
    assert np.allclose(m, k * skw(M), atol=1e-14)   # skew couple stress
    assert np.allclose(m, -m.T, atol=1e-14)


def test_stress_state_consistency():
    p = MaterialParams.for_regime("gkmt", mu=1.2, lam=0.8, L_c=0.3)
    u = make_polynomial(13, 4)
    x = np.array([0.3, 0.5, 0.7])
    st = stresses(p, u, x)
    assert np.allclose(st.sigma, st.sigma.T, atol=1e-13)
    assert np.allclose(st.tau_tilde, -st.tau_tilde.T, atol=1e-13)
    assert np.allclose(st.sigma_total, st.sigma - st.tau_tilde)
    G = u.grad(x)
    assert np.allclose(st.sigma, 2 * p.mu * sym(G) + p.lam * tr(G) * np.eye(3))


def test_stresses_batch_matches_pointwise():
    # a stacked batch of points equals the per-point calls
    p = MaterialParams.for_regime("gkmt", mu=1.2, lam=0.8, L_c=0.3)
    u = make_polynomial(19, 4)
    X = np.random.default_rng(3).uniform(-1, 1, (6, 3))
    sb = stresses(p, u, X)
    assert sb.sigma.shape == sb.m_tilde.shape == sb.tau_tilde.shape == (6, 3, 3)
    for i, x in enumerate(X):
        st = stresses(p, u, x)
        assert np.allclose(sb.sigma[i], st.sigma, atol=1e-12)
        assert np.allclose(sb.m_tilde[i], st.m_tilde, atol=1e-12)
        assert np.allclose(sb.tau_tilde[i], st.tau_tilde, atol=1e-12)


#: the four splits of alpha1 + alpha2 = 2 that the field equations cannot tell apart
_SPLITS = [(2.0, 0.0), (0.0, 2.0), (1.0, 1.0), (1.5, 0.5)]


@pytest.mark.parametrize("alphas", _SPLITS, ids=str)
def test_equilibrium_hand_case(alphas):
    # u = x2^4 e1: Div sigma = 12 mu x2^2 e1 and Div tau = k Lap Lap u = 24 k e1,
    # with k = mu L_c^2 (alpha1 + alpha2) / 4 and grad div Lap u = 0
    p = MaterialParams(mu=1.3, lam=0.7, L_c=0.4, alpha1=alphas[0], alpha2=alphas[1])
    coeffs = np.zeros((3, 5, 5, 5))
    coeffs[0, 0, 4, 0] = 1.0
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 3))
    expected = np.zeros((20, 3))
    expected[:, 0] = 12.0 * p.mu * x[:, 1] ** 2 - 6.0 * p.mu * p.L_c ** 2 * sum(alphas)
    u = PolynomialField(coeffs)
    r = equilibrium_residual(p, u, LoadData(), x)
    assert np.max(np.abs(r - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the load f = -r balances it
    loads = LoadData(f=lambda y: -equilibrium_residual(p, u, LoadData(), y))
    assert not equilibrium_residual(p, u, loads, x).any()


def test_body_couple_loads_the_field_equations_as_half_its_curl():
    # g = x1 x2^2 e3 has curl g = (2 x1 x2, -x2^2, 0); with u = 0 the residual is curl g / 2
    p = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.4)
    coeffs = np.zeros((3, 3, 3, 3))
    coeffs[2, 1, 2, 0] = 1.0
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 3))
    r = equilibrium_residual(p, PolynomialField(np.zeros((3, 1, 1, 1))),
                             LoadData(m_body=PolynomialField(coeffs)), x)
    expected = np.stack([x[:, 0] * x[:, 1], -0.5 * x[:, 1] ** 2, np.zeros(20)], axis=-1)
    assert np.max(np.abs(r - expected)) <= 1e-15


def _fd_residual(p, field, x):
    """The oracle: Div sigma from grad2 and Div tau by the FD stencil on
    stresses(...).tau_tilde."""
    H = field.grad2(x)
    div_sigma = p.mu * np.einsum("...ijj->...i", H) + (p.mu + p.lam) * np.einsum("...jij->...i", H)
    h = 1e-3 * (1.0 + np.linalg.norm(x, axis=-1))
    div_tau = sum(fd_partial(lambda y: stresses(p, field, y).tau_tilde, x, (j,), h)[..., :, j]
                  for j in range(3))
    return div_sigma - div_tau


@pytest.mark.parametrize("field", [make_polynomial(7, 5), random_conformal(4),
                                   ClampedBasis(3).solution_field(
                                       np.random.default_rng(3).normal(size=81))],
                         ids=["quintic", "conformal", "basis-N3"])
def test_residual_matches_the_fd_oracle(field):
    x = np.random.default_rng(5).uniform(0.05, 0.95, (30, 3))
    materials = [MaterialParams.for_regime(r, mu=1.3, lam=0.7, L_c=0.4)
                 for r in ("gkmt", "modified", "hd")]
    materials.append(MaterialParams(mu=1.3, lam=0.7, L_c=0.4, alpha1=0.8, alpha2=1.5))
    for p in materials:
        ref = _fd_residual(p, field, x)
        r = equilibrium_residual(p, field, LoadData(), x)
        assert np.max(np.abs(r - ref)) <= 1e-11 * np.max(np.abs(ref)), p.regime
    # the oracle path sees alpha1 + alpha2 only, although m_tilde sees the split
    splits = [MaterialParams(mu=1.3, lam=0.7, L_c=0.4, alpha1=a1, alpha2=a2) for a1, a2 in _SPLITS]
    refs = [_fd_residual(p, field, x) for p in splits]
    scale = np.max(np.abs(refs[0]))
    for ref in refs[1:]:
        assert np.max(np.abs(ref - refs[0])) <= 1e-12 * scale
    if not isinstance(field, ConformalField):
        m = [stresses(p, field, x).m_tilde for p in splits]
        assert min(np.max(np.abs(mi - m[0])) for mi in m[1:]) >= 0.1 * np.max(np.abs(m[0]))


class TestConformalInvariance:
    """The conformal field exposes the regime split of the curvature term."""

    def test_modified_regime_blind_to_conformal_fields(self):
        p = MaterialParams.for_regime("modified", mu=1.5, L_c=0.6)
        u = random_conformal(21)
        x = np.array([0.1, -0.4, 0.7])
        M = grad_curl_from_grad2(u.grad2(x))
        assert float(w_curv(p, M)) == pytest.approx(0.0, abs=1e-14)
        st = stresses(p, u, x)
        assert np.allclose(st.m_tilde, 0.0, atol=1e-14)
        assert np.allclose(st.tau_tilde, 0.0, atol=1e-14)

    def test_hd_regime_sees_conformal_fields(self):
        # m = mu L^2 alpha2 . 2 W for phi_c generated by W: constant, skew
        u = ConformalField(w_axial=(2.0, 0.0, 0.0))
        p = MaterialParams.for_regime("hd", mu=1.0, lam=1.0, L_c=1.0)
        W = anti(np.array([2.0, 0.0, 0.0]))
        for x in np.random.default_rng(1).uniform(-1, 1, (5, 3)):
            st = stresses(p, u, x)
            assert np.allclose(st.m_tilde, 2.0 * W, atol=1e-13)
            M = grad_curl_from_grad2(u.grad2(x))
            assert float(w_curv(p, M)) == pytest.approx(8.0, abs=1e-12)

    def test_conformal_equilibrium_forcing(self):
        # Div sigma is constant: (2 mu + 3 lam) axl(W); with mu = lam = 1
        # and axl(W) = (2, 0, 0) the residual is (10, 0, 0)
        u = ConformalField(w_axial=(2.0, 0.0, 0.0))
        p = MaterialParams.for_regime("gkmt", mu=1.0, lam=1.0, L_c=1.0)
        r = equilibrium_residual(p, u, LoadData(), np.array([0.3, 0.1, -0.2]))
        assert np.allclose(r, [10.0, 0.0, 0.0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("field", [make_polynomial(5, 3), random_conformal(3)],
                         ids=["cubic", "conformal"])
def test_stresses_carry_the_gradient_of_m(field):
    # the oracle: the FD stencil on m_tilde; Div m and tau follow from it
    p = MaterialParams(mu=1.3, lam=0.7, L_c=0.4, alpha1=0.8, alpha2=1.5)
    x = np.random.default_rng(2).uniform(-1.0, 1.0, (10, 3))
    st = stresses(p, field, x)
    ref = np.stack([fd_partial(lambda y: stresses(p, field, y).m_tilde, x, (k,), 1e-3)
                    for k in range(3)], axis=-1)
    assert st.grad_m.shape == ref.shape == (10, 3, 3, 3)
    scale = max(np.max(np.abs(st.m_tilde)), np.max(np.abs(ref)))
    assert np.max(np.abs(st.grad_m - ref)) <= 1e-9 * scale
    tau_ref = 0.5 * anti(np.einsum("...ijj->...i", ref))
    assert np.max(np.abs(st.tau_tilde - tau_ref)) <= 1e-9 * scale


def test_torsion_and_mean_curvature_split():
    u = make_polynomial(37, 4)
    x = np.array([0.25, 0.5, 0.75])
    state = kinematics(u, x)
    chi, omega = state.chi_torsion, state.omega_mean_curv
    M = grad_curl_from_grad2(u.grad2(x))
    assert np.allclose(chi + omega, M, atol=1e-13)
    assert np.allclose(chi, chi.T, atol=1e-13)
    assert np.allclose(omega, -omega.T, atol=1e-13)


def test_load_data_defaults():
    loads = LoadData()
    X = np.zeros((4, 3))
    assert loads.force(X).shape == (4, 3)
    assert np.allclose(loads.couple(np.zeros(3)), 0.0)
