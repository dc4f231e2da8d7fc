"""Traction boundary conditions, the boundary virtual-work decomposition
and the quantitative refutation of the skew-couple-stress postulate.

Three formulations are implemented:

* ``classical``  the historical 3+2 split: total force traction corrected
  by the surface curl of the normal-moment scalar, plus the tangential
  double-force traction.
* ``complete``   the corrected split with the extra tangential-gradient
  force term, the second-order normal-derivative traction and the 3 edge
  jump conditions.
* ``hd``         the skew-couple-stress variant: plain total force
  traction plus the tangential moment traction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constitutive import MaterialParams, couple_stress, stresses
from .fields import DisplacementField, curl_from_grad, grad_curl_from_grad2
from .surfaces import SurfacePatch
from .tensors import ID3, anti, sym

__all__ = [
    "TractionSet",
    "WorkIdentityReport",
    "HdPostulateReport",
    "boundary_work_identity",
    "classical_tractions",
    "complete_tractions",
    "edge_jump",
    "hd_postulate_report",
    "hd_tractions",
]


@dataclass(frozen=True)
class TractionSet:
    """The independently prescribable traction quantities at chart points;
    each array is (..., 3) over the chart coordinates."""

    t_force: NDArray            # 3 conditions
    g_double: NDArray           # 2 conditions, tangential by construction
    formulation: str


def _mv(A: NDArray, v: NDArray) -> NDArray:
    return np.einsum("...ij,...j->...i", A, v)


def _dot(a: NDArray, b: NDArray) -> NDArray:
    return np.einsum("...i,...i->...", a, b)


def _moment_split(m: NDArray, n: NDArray):
    """psi = <m.n, n>, w = (id - n(x)n) m.n and anti(w)(id - n(x)n) for
    couple stresses m and unit normals n."""
    m_n = _mv(m, n)
    psi = _dot(m_n, n)
    w = m_n - psi[..., None] * n
    P = ID3 - np.einsum("...i,...j->...ij", n, n)
    return psi, w, anti(w) @ P


def _moment_field(params, field, patch, s, t):
    """The couple-stress boundary quantities of :func:`_moment_split` as a
    chart field: evaluated on the patch at chart coordinates (s, t)."""
    fr = patch.frame(s, t)
    m = couple_stress(params, grad_curl_from_grad2(field.grad2(fr.x)))
    return _moment_split(m, fr.n)


@dataclass(frozen=True)
class _MomentJet:
    """psi, w and anti(w)(id - n(x)n) at chart points, with the chart
    derivatives of psi and anti(w)(id - n(x)n) on a last axis of length 2."""

    psi: NDArray        # (...)
    w: NDArray          # (..., 3)
    d_psi: NDArray      # (..., 2)
    d_wP: NDArray       # (..., 3, 3, 2)


def _moment_jet(params, field, patch, s, t) -> _MomentJet:
    """The moment quantities of :func:`_moment_field` and their chart
    derivatives by the chain rule: d_a m is the couple stress of the grad
    curl of grad3 u . x_a (the constitutive map is linear), and d_a n is
    the patch's own.  Below, a chart axis of length 2 sits before the
    ambient axes."""
    fr = patch.frame(s, t)
    m = couple_stress(params, grad_curl_from_grad2(field.grad2(fr.x)))
    psi, w, _ = _moment_split(m, fr.n)
    x_a = np.stack([fr.x_s, fr.x_t], axis=-1)[..., None, None, :, :]    # (..., 1, 1, 3, 2)
    dH = np.moveaxis(field.grad3(fr.x) @ x_a, -1, -4)                  # (..., 2, 3, 3, 3)
    dm = couple_stress(params, grad_curl_from_grad2(dH))               # (..., 2, 3, 3)
    dn = np.stack(patch.normal_derivatives(s, t), axis=-2)             # (..., 2, 3)
    n = fr.n[..., None, :]
    dm_n = _mv(dm, n)
    d_psi = _dot(dm_n, n) + 2.0 * _dot(_mv(sym(m), fr.n)[..., None, :], dn)
    d_w = (dm_n + _mv(m[..., None, :, :], dn)
           - d_psi[..., None] * n - psi[..., None, None] * dn)
    P = ID3 - np.einsum("...i,...j->...ij", fr.n, fr.n)
    dP = np.einsum("...ai,...j->...aij", dn, fr.n)
    dP = dP + np.swapaxes(dP, -1, -2)                                   # d_a (n (x) n)
    d_wP = anti(d_w) @ P[..., None, :, :] - anti(w)[..., None, :, :] @ dP
    return _MomentJet(psi=psi, w=w, d_psi=d_psi, d_wP=np.moveaxis(d_wP, -3, -1))


def _grad_psi(patch, jet: _MomentJet, s, t):
    """Surface gradient of psi = <m.n, n> at chart coordinates (s, t)."""
    return patch.surface_scalar_gradient(jet.d_psi, s, t)


def _tangential_gradient(patch, jet: _MomentJet, s, t):
    """Row-wise surface divergence of anti(w)(id - n(x)n) at (s, t)."""
    return patch.surface_rowwise_divergence(jet.d_wP, s, t)


def classical_tractions(params: MaterialParams, field: DisplacementField,
                        patch: SurfacePatch, s, t) -> TractionSet:
    """Historical Mindlin-Tiersten 3+2 traction quantities at (s, t)."""
    fr = patch.frame(s, t)
    st = stresses(params, field, fr.x)
    jet = _moment_jet(params, field, patch, s, t)
    t_force = _mv(st.sigma_total, fr.n) - 0.5 * np.cross(fr.n, _grad_psi(patch, jet, s, t))
    return TractionSet(t_force=t_force, g_double=jet.w, formulation="classical")


def complete_tractions(params: MaterialParams, field: DisplacementField,
                       patch: SurfacePatch, s, t) -> TractionSet:
    """Corrected 3+2 surface traction quantities at (s, t).

    The edge jump conditions live on the edge curve; see
    :func:`edge_jump`.
    """
    fr = patch.frame(s, t)
    st = stresses(params, field, fr.x)
    jet = _moment_jet(params, field, patch, s, t)
    t_force = (_mv(st.sigma_total, fr.n)
               - 0.5 * np.cross(fr.n, _grad_psi(patch, jet, s, t))
               - 0.5 * _tangential_gradient(patch, jet, s, t))
    return TractionSet(t_force=t_force, g_double=_mv(anti(jet.w), fr.n), formulation="complete")


def hd_tractions(params: MaterialParams, field: DisplacementField,
                 patch: SurfacePatch, s, t,
                 plus_variant: bool = False) -> TractionSet:
    """Skew-couple-stress format tractions at (s, t).

    ``plus_variant`` evaluates (sigma + tau).n instead of the total force
    stress (sigma - tau).n; this matches one printed display of the
    formulation but disagrees with every other occurrence of the total
    force stress, so it is off by default and flagged as suspect.
    """
    fr = patch.frame(s, t)
    st = stresses(params, field, fr.x)
    _, w, _ = _moment_split(st.m_tilde, fr.n)
    t_force = _mv(st.sigma + st.tau_tilde if plus_variant else st.sigma_total, fr.n)
    return TractionSet(t_force=t_force, g_double=w, formulation="hd")


def edge_jump(params: MaterialParams, field: DisplacementField,
              patch: SurfacePatch, side: str, s, t,
              eps_rel: float = 1e-4) -> NDArray:
    """Jump of anti((id - n(x)n) m.n) . nu across edge points (s, t).

    Evaluated as one-sided limits at geodesic offsets eps and 2 eps on
    either side of the edge, each extrapolated linearly to the edge.  For
    fields smooth across the edge the jump vanishes.
    """
    nu = patch.conormal(side, s, t)
    eps = eps_rel * patch.diameter

    def one_sided(inward: bool) -> NDArray:
        def q(e):
            ss, tt = patch.edge_offset_point(side, s, t, e, inward=inward)
            _, w, _ = _moment_field(params, field, patch, ss, tt)
            return _mv(anti(w), nu)

        return 2.0 * q(eps) - q(2.0 * eps)

    return one_sided(True) - one_sided(False)


@dataclass(frozen=True)
class WorkIdentityReport:
    direct: float
    decomposed: float
    gap: float
    terms: dict


def boundary_work_identity(params: MaterialParams, u: DisplacementField,
                           delta_u: DisplacementField, patch: SurfacePatch,
                           order: int = 16) -> WorkIdentityReport:
    """Check the boundary virtual-work decomposition on a patch.

    ``direct`` is the raw surface work of the total force traction and
    the moment traction against the virtual displacement; ``decomposed``
    re-expresses it through the complete traction split, the
    second-order normal-derivative traction and the two edge terms that
    the surface integrations by parts produce on a patch with boundary.
    """
    (S, T), wts = patch.quadrature(order)
    fr = patch.frame(S, T)
    st = stresses(params, u, fr.x)
    m_n = _mv(st.m_tilde, fr.n)
    jet = _moment_jet(params, u, patch, S, T)
    t_total = _mv(st.sigma_total, fr.n)

    du = np.asarray(delta_u.value(fr.x), dtype=float)
    Gdu = np.asarray(delta_u.grad(fr.x), dtype=float)
    axl_skw = 0.5 * curl_from_grad(Gdu)

    direct = float(wts @ (-np.einsum("ni,ni->n", t_total, du)
                          - np.einsum("ni,ni->n", m_n, axl_skw)))

    grad_psi = _grad_psi(patch, jet, S, T)
    tang_grad = _tangential_gradient(patch, jet, S, T)
    t_force = float(wts @ (-np.einsum("ni,ni->n", t_total, du)))
    t_mt = float(wts @ (0.5 * np.einsum("ni,ni->n", np.cross(fr.n, grad_psi), du)))
    t_tang = float(wts @ (0.5 * np.einsum("ni,ni->n", tang_grad, du)))
    An = _mv(anti(jet.w), fr.n)
    Gdu_n = _mv(Gdu, fr.n)
    t_normal_deriv = float(wts @ (-0.5 * np.einsum("ni,ni->n", An, Gdu_n)))

    t_edge_conormal = 0.0
    t_edge_psi = 0.0
    for side in patch.edge_sides:
        Se, Te, We = patch.edge_quadrature(side, order)
        psi, w, _ = _moment_field(params, u, patch, Se, Te)
        nu = patch.conormal(side, Se, Te)
        x = patch.point(Se, Te)
        tau = np.cross(patch.normal(Se, Te), nu)
        du = delta_u.value(x)
        t_edge_conormal += float(We @ (-0.5 * np.einsum("ni,ni->n", _mv(anti(w), nu), du)))
        t_edge_psi += float(We @ (-0.5 * psi * np.einsum("ni,ni->n", tau, du)))

    terms = {
        "force": t_force,
        "normal_moment_correction": t_mt,
        "tangential_gradient": t_tang,
        "normal_derivative": t_normal_deriv,
        "edge_conormal": t_edge_conormal,
        "edge_normal_moment": t_edge_psi,
    }
    decomposed = sum(terms.values())
    return WorkIdentityReport(
        direct=direct, decomposed=decomposed, gap=abs(direct - decomposed), terms=terms
    )


@dataclass(frozen=True)
class HdPostulateReport:
    """Quantities refuting the pure-force-traction postulate.

    ``sup_normal_moment`` is the sup of |<m.n, n>| over the quadrature
    points (machine zero for skew couple stress), while
    ``residual_work_norm`` is the L2 norm over the patch of the
    tangential-gradient force term that keeps performing work against
    the virtual displacement regardless.
    """

    sup_normal_moment: float
    residual_work_norm: float


def hd_postulate_report(params: MaterialParams, field: DisplacementField,
                        patch: SurfacePatch, order: int = 16) -> HdPostulateReport:
    (S, T), wts = patch.quadrature(order)
    jet = _moment_jet(params, field, patch, S, T)
    r = _tangential_gradient(patch, jet, S, T)
    sq = float(wts @ np.einsum("ni,ni->n", r, r))
    return HdPostulateReport(sup_normal_moment=float(np.max(np.abs(jet.psi))),
                             residual_work_norm=float(np.sqrt(sq)))
