"""Energies, stresses and equilibrium residual of the isotropic
indeterminate couple stress model, for all three parameter regimes:

* ``gkmt``     alpha1 > 0, alpha2 > 0 (fully positive curvature energy)
* ``modified`` alpha1 > 0, alpha2 = 0 (symmetric, trace-free couple stress)
* ``hd``       alpha1 = 0, alpha2 > 0 (skew couple stress)

Energies and stresses broadcast over leading axes, as in :mod:`tensors`.

Rounding: :func:`stresses` applies the couple law k [alpha1 sym + alpha2 skw]
grad curl (k = mu L_c^2) as one (27, 9) matrix per material, the
:func:`couple_stress` of the grad curl of each unit second gradient, with
entries 0, +-k alpha1 and +-k (alpha1 +- alpha2)/2.  An entry of m or grad m
sums at most four products, so it is couple_stress(grad curl) within a few
ulp of the largest, not bit for bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .fields import DisplacementField, _finite, _guard_finite, curl_from_grad, grad_curl_from_grad2
from .tensors import ID3, anti, dev, inner, is_traceless, skw, sym, tr

__all__ = [
    "LoadData",
    "MaterialParams",
    "ScalarForms",
    "StressState",
    "couple_stress",
    "equilibrium_residual",
    "stresses",
    "w_curv",
    "w_lin",
]

_REGIME_ALPHAS = {
    "gkmt": (1.0, 1.0),
    "modified": (1.0, 0.0),
    "hd": (0.0, 1.0),
}


@dataclass(frozen=True)
class MaterialParams:
    """Full constitutive parameter set of the isotropic material.

    ``alpha2`` also answers to the name ``alpha3`` in JSON input (the two
    names denote the same parameter), and a ``regime`` there must be the
    one the alphas give.
    """

    mu: float
    lam: float
    L_c: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        _finite(", ".join(vars(self)), list(vars(self).values()), (5,))
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 3.0 * self.lam + 2.0 * self.mu > 0.0:
            raise ValueError(f"3*lambda + 2*mu must be positive, got {3 * self.lam + 2 * self.mu}")
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError("alpha1 and alpha2 must be nonnegative")
        if self.L_c < 0.0:
            raise ValueError("L_c must be nonnegative")

    @property
    def regime(self) -> str:
        if self.alpha1 > 0.0 and self.alpha2 > 0.0:
            return "gkmt"
        if self.alpha1 > 0.0:
            return "modified"
        if self.alpha2 > 0.0:
            return "hd"
        return "classical"

    @classmethod
    def for_regime(cls, regime: str, mu: float = 1.0, lam: float = 1.0,
                   L_c: float = 1.0) -> "MaterialParams":
        """Material parameters with the canonical alphas of a named regime."""
        try:
            a1, a2 = _REGIME_ALPHAS[regime]
        except KeyError:
            raise ValueError(f"unknown regime {regime!r}; expected one of {sorted(_REGIME_ALPHAS)}")
        return cls(mu=mu, lam=lam, L_c=L_c, alpha1=a1, alpha2=a2)

    def to_json(self) -> str:
        return json.dumps(
            {
                "mu": self.mu,
                "lambda": self.lam,
                "L_c": self.L_c,
                "alpha1": self.alpha1,
                "alpha2": self.alpha2,
                "regime": self.regime,
            }
        )

    @classmethod
    def from_dict(cls, d: dict) -> "MaterialParams":
        d = dict(d)
        regime = d.pop("regime", None)
        unknown = set(d) - {"mu", "lambda", "L_c", "alpha1", "alpha2", "alpha3"}
        if unknown:
            raise ValueError(f"unknown material parameter keys: {sorted(unknown)}")
        if "alpha3" in d:
            a3 = d.pop("alpha3")
            if "alpha2" in d and d["alpha2"] != a3:
                raise ValueError(
                    f"alpha2 ({d['alpha2']}) and alpha3 ({a3}) are the same "
                    "parameter but were given different values"
                )
            d["alpha2"] = a3
        if "lambda" not in d:
            raise ValueError("material parameter lambda is missing")
        d["lam"] = d.pop("lambda")
        params = cls(**d)
        if regime is not None and regime != params.regime:
            raise ValueError(f"regime {regime!r} does not match the alphas "
                             f"(alpha1 = {params.alpha1}, alpha2 = {params.alpha2}), "
                             f"which give {params.regime!r}")
        return params


@dataclass(frozen=True)
class LoadData:
    """Body force density and (for the Cosserat problem) body couple."""

    f: object = None        # callable x -> (3,) or None for zero
    #: axial couple density g, x -> (3,), or None for zero; ``equilibrium_residual``
    #: needs it as a DisplacementField, for curl g from its gradient
    m_body: object = None

    def force(self, x: NDArray) -> NDArray:
        if self.f is None:
            return np.zeros(np.shape(x)[:-1] + (3,))
        return np.asarray(self.f(x), dtype=float)

    def couple(self, x: NDArray) -> NDArray:
        if self.m_body is None:
            return np.zeros(np.shape(x)[:-1] + (3,))
        return np.asarray(self.m_body(x), dtype=float)


@dataclass(frozen=True)
class StressState:
    """Local, nonlocal and couple stresses over a batch of points, each
    (..., 3, 3), and the gradient of the couple stress."""

    sigma: NDArray        # symmetric local force stress
    m_tilde: NDArray      # couple stress tensor
    grad_m: NDArray       # (..., 3, 3, 3), grad_m[..., i, j, k] = d_k m_ij
    tau_tilde: NDArray    # skew nonlocal force stress, anti(Div m)/2
    sigma_total: NDArray  # sigma - tau_tilde


@dataclass(frozen=True)
class ScalarForms:
    """A scalar energy and its algebraically equivalent forms, each over the batch."""

    value: NDArray
    forms: dict

    def __float__(self):
        return float(self.value)


def w_lin(params: MaterialParams, grad_u: NDArray) -> ScalarForms:
    """Local strain energy density, in (mu, lambda) and (dev, bulk) form."""
    e = sym(grad_u)
    t = tr(grad_u)
    mu_lambda = params.mu * inner(e, e) + 0.5 * params.lam * t * t
    dev_e = dev(e)
    dev_bulk = params.mu * inner(dev_e, dev_e) + (2.0 * params.mu + 3.0 * params.lam) / 6.0 * t * t
    return ScalarForms(value=mu_lambda, forms={"mu_lambda": mu_lambda, "dev_bulk": dev_bulk})


def w_curv(params: MaterialParams, grad_curl_u: NDArray) -> ScalarForms:
    """Curvature energy density in its three equivalent algebraic forms.

    The input is the curvature measure grad curl u, which is trace free
    for any displacement field; a spurious trace (finite-difference
    noise) above 1e-8 of max(1, |M|) in any item triggers a warning and
    is discarded by the dev form.
    """
    M = np.asarray(grad_curl_u, dtype=float)
    spurious = ~is_traceless(M, 1e-8)
    if np.any(spurious):
        warnings.warn(
            f"grad curl u has trace {np.extract(spurious, tr(M))[0]:.3e}; div curl u should vanish",
            stacklevel=2,
        )
    k = params.mu * params.L_c ** 2
    s, a = sym(M), skw(M)
    form_sym_skw = k * (params.alpha1 / 4.0 * inner(s, s) + params.alpha2 / 4.0 * inner(a, a))
    # route via the gradient of axl(skw grad u) = (grad curl u)/2
    N = 0.5 * M
    sn, an = sym(N), skw(N)
    form_axl = k * (params.alpha1 * inner(sn, sn) + params.alpha2 * inner(an, an))
    ds = dev(s)
    form_dev = k * (params.alpha1 / 4.0 * inner(ds, ds) + params.alpha2 / 4.0 * inner(a, a))
    return ScalarForms(
        value=form_dev,
        forms={"sym_skw": form_sym_skw, "axl_gradient": form_axl, "dev_sym_skw": form_dev},
    )


def couple_stress(params: MaterialParams, grad_curl_u: NDArray) -> NDArray:
    """Couple stress m = mu L_c^2 [alpha1 sym + alpha2 skw](grad curl u)."""
    M = np.asarray(grad_curl_u, dtype=float)
    return params.mu * params.L_c ** 2 * (params.alpha1 * sym(M) + params.alpha2 * skw(M))


#: grad curl of each unit second gradient, (27, 3, 3); see the rounding note
_GRAD_CURL_OF_UNIT_GRAD2 = grad_curl_from_grad2(np.eye(27).reshape(27, 3, 3, 3))
_GRAD_CURL_OF_UNIT_GRAD2.flags.writeable = False


def stresses(params: MaterialParams, field: DisplacementField, x: NDArray) -> StressState:
    """All stress measures of the model at points x of shape (..., 3), and
    the gradient of the couple stress; see :class:`StressState`.

    grad m, hence Div m and tau, comes from the field's own ``grad3``: the
    couple law is linear, so m and d_l m are grad2 u and d_l grad2 u times its matrix.
    """
    x = np.asarray(x, dtype=float)
    G = field.grad(x)
    H = field.grad2(x)
    T3 = field.grad3(x)
    for name, a in (("grad", G), ("grad2", H), ("grad3", T3)):
        _guard_finite(name, a, x)
    sigma = 2.0 * params.mu * sym(G) + params.lam * tr(G)[..., None, None] * ID3
    law = couple_stress(params, _GRAD_CURL_OF_UNIT_GRAD2).reshape(27, 9)
    m_tilde = (H.reshape(H.shape[:-3] + (27,)) @ law).reshape(H.shape[:-1])
    dm = np.moveaxis(T3, -1, -4).reshape(T3.shape[:-4] + (3, 27)) @ law     # (..., l, ij)
    grad_m = np.moveaxis(dm.reshape(T3.shape[:-1]), -3, -1)
    tau = 0.5 * anti(np.einsum("...ijj->...i", grad_m))
    return StressState(sigma=sigma, m_tilde=m_tilde, grad_m=grad_m, tau_tilde=tau,
                       sigma_total=sigma - tau)


def equilibrium_residual(
    params: MaterialParams,
    field: DisplacementField,
    loads: LoadData,
    x: NDArray,
) -> NDArray:
    """Residual Div(sigma - tau) + f + curl g / 2 at points x of shape (..., 3),
    from the field's second and fourth gradients and the body couple's gradient.

    The field equations depend on alpha1 + alpha2 only: Div (grad curl u)^T =
    grad div curl u = 0, so Div m = mu L_c^2 (alpha1 + alpha2) Lap curl u / 2
    whatever the split, and Div tau = -curl Div m / 2 =
    k (Lap Lap u - grad div Lap u) with k = mu L_c^2 (alpha1 + alpha2) / 4.
    The body couple works against curl u / 2, int g . curl v / 2 =
    int curl g / 2 . v for v clamped, so it loads the field equations as curl g / 2.
    """
    x = np.asarray(x, dtype=float)
    H = field.grad2(x)
    Q = field.grad4(x)
    div_sigma = (params.mu * np.einsum("...ijj->...i", H)
                 + (params.mu + params.lam) * np.einsum("...jij->...i", H))
    k = 0.25 * params.mu * params.L_c ** 2 * (params.alpha1 + params.alpha2)
    div_tau = k * (np.einsum("...iaabb->...i", Q) - np.einsum("...jjiaa->...i", Q))
    res = div_sigma - div_tau + loads.force(x)
    if loads.m_body is not None:
        res = res + 0.5 * curl_from_grad(loads.m_body.grad(x))
    _guard_finite("the equilibrium residual", res, x)
    return res
