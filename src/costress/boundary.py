"""Traction boundary conditions, the boundary virtual-work decomposition
and the quantitative refutation of the skew-couple-stress postulate.

Three formulations are implemented, as the rows of :data:`FORMULATIONS`:

* ``classical``  the historical 3+2 split: total force traction corrected
  by the surface curl of the normal-moment scalar, plus the tangential
  double-force traction.
* ``complete``   the corrected split with the extra tangential-gradient
  force term and the second-order normal-derivative traction; its edge
  terms are integrated along every patch edge by
  :func:`boundary_work_identity`.
* ``hd``         the skew-couple-stress variant: plain total force
  traction plus the tangential moment traction.

The split is built in two halves.  The moment half reads only the couple
stress m and its gradient, so the postulate report and the edge terms of
the work identity, which need nothing else, evaluate neither the field's
``grad`` nor sigma or tau; the complete split adds the force traction and
the normal-moment correction to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constitutive import MaterialParams, _at_most_quadratic, couple_stress_and_gradient, stresses
from .fields import DisplacementField, curl_from_grad
from .surfaces import Frame, SurfacePatch, _dot
from .tensors import anti, cross, sym

__all__ = [
    "FORMULATIONS",
    "WorkIdentityReport",
    "HdPostulateReport",
    "boundary_work_identity",
    "hd_postulate_report",
    "tractions",
]


def _mv(A: NDArray, v: NDArray) -> NDArray:
    return np.einsum("...ij,...j->...i", A, v)


@dataclass(frozen=True)
class _Moment:
    """The moment half of the traction split on one point set: every term
    that the couple stress m and its gradient give, with no force stress.

    With psi = <m.n, n>, w = (id - n(x)n) m.n and P = id - n(x)n, the
    tangential-gradient force term is -1/2 div_S(anti(w) P) and the
    double-force traction anti(w).n.  Both are cross products, as
    anti(v) a = v x a and x^a.n = 0, as noted beside each.
    """

    m_n: NDArray        # m.n
    psi: NDArray
    d_psi: NDArray      # chart derivatives (d_s psi, d_t psi), (..., 2)
    w: NDArray
    t_tang: NDArray     # -1/2 div_S(anti(w) P) = -1/2 (d_a w x x^a - (w x n)(x^a.d_a n))
    g: NDArray          # anti(w).n = w x n


def _moment(field: DisplacementField, m: NDArray, grad_m: NDArray, fr: Frame) -> _Moment:
    """The moment half of ``field``'s split at the points of frame ``fr``,
    from its couple stress m and gradient grad m there.  The chart
    derivatives of psi and w come by the chain rule from grad m and the
    frame's own d_a n; below, a chart axis of length 2 sits before the
    ambient axes.  The chain-rule term (d_a m).n is zero for a field of
    degree at most 2, and is not formed."""
    n, dn = fr.n, fr.dn
    n_ = n[..., None, :]
    m_n = _mv(m, n)
    psi = _dot(m_n, n)
    w = m_n - psi[..., None] * n
    d_psi = 2.0 * _dot(_mv(sym(m), n)[..., None, :], dn)
    d_w = _mv(m[..., None, :, :], dn)
    if not _at_most_quadratic(field):
        dm_n = _mv(np.einsum("...ijk,...ak->...aij", grad_m, fr.tangents), n_)  # (..., 2, 3)
        d_psi = _dot(dm_n, n_) + d_psi
        d_w = dm_n + d_w
    d_w = d_w - d_psi[..., None] * n_ - psi[..., None, None] * dn
    g = cross(w, n)
    d_w_x = cross(d_w, fr.dual)
    return _Moment(m_n=m_n, psi=psi, d_psi=d_psi, w=w,
                   t_tang=-0.5 * (d_w_x[..., 0, :] + d_w_x[..., 1, :] - g * fr.div_n[..., None]),
                   g=g)


@dataclass(frozen=True)
class _Split(_Moment):
    """The complete traction split of a field on one point set: the moment
    half, the force traction (sigma - tau).n and the normal-moment term
    -1/2 n x grad_S psi that corrects it."""

    t_total: NDArray    # (sigma - tau).n
    t_psi: NDArray      # -1/2 n x grad_S psi


def _split(params: MaterialParams, field: DisplacementField, fr: Frame) -> _Split:
    """The complete split of ``field`` at the points of frame ``fr``, from
    one :func:`stresses` call."""
    st = stresses(params, field, fr.x)
    mo = _moment(field, st.m_tilde, st.grad_m, fr)
    return _Split(**vars(mo), t_total=_mv(st.sigma_total, fr.n),
                  t_psi=-0.5 * cross(fr.n, fr.surface_scalar_gradient(mo.d_psi)))


#: formulation -> (force traction, double-force traction) of its split; the
#: force traction takes 3 conditions and the double-force traction 2, being
#: tangential by construction.  hd's is the total force traction
#: (sigma - tau).n: one printed display of the formulation reads
#: (sigma + tau).n, which disagrees with every other occurrence of the
#: total force stress.
FORMULATIONS = {
    "complete": lambda sp: (sp.t_total + sp.t_psi + sp.t_tang, sp.g),
    "classical": lambda sp: (sp.t_total + sp.t_psi, sp.w),
    "hd": lambda sp: (sp.t_total, sp.w),
}


def tractions(params: MaterialParams, field: DisplacementField, frame: Frame,
              formulation: str) -> tuple[NDArray, NDArray]:
    """The (force traction, double-force traction) of ``formulation`` at the
    points of ``frame``, each (..., 3); see :data:`FORMULATIONS`.  The edge
    terms of ``complete`` live on the edge curve; see
    :func:`boundary_work_identity`."""
    return FORMULATIONS[formulation](_split(params, field, frame))


@dataclass(frozen=True)
class WorkIdentityReport:
    direct: float
    decomposed: float
    gap: float
    terms: dict


def boundary_work_identity(params: MaterialParams, u: DisplacementField,
                           delta_u: DisplacementField, patch: SurfacePatch,
                           order: int) -> WorkIdentityReport:
    """Check the boundary virtual-work decomposition on a patch.

    ``direct`` is the raw surface work of the total force traction and
    the moment traction against the virtual displacement; ``decomposed``
    re-expresses it through the complete traction split, the
    second-order normal-derivative traction and the two edge terms that
    the surface integrations by parts produce on a patch with boundary.
    """
    _, wts, fr = patch.quadrature(order)
    sp = _split(params, u, fr)
    du = np.asarray(delta_u.value(fr.x), dtype=float)
    Gdu = np.asarray(delta_u.grad(fr.x), dtype=float)

    force = -_dot(sp.t_total, du)
    direct = float(wts @ (force - _dot(sp.m_n, 0.5 * curl_from_grad(Gdu))))
    t_force = float(wts @ force)
    t_mt = float(wts @ -_dot(sp.t_psi, du))
    t_tang = float(wts @ -_dot(sp.t_tang, du))
    t_normal_deriv = float(wts @ (-0.5 * _dot(sp.g, _mv(Gdu, fr.n))))

    t_edge_conormal = 0.0
    t_edge_psi = 0.0
    for side in patch.edge_sides:
        We, fr_e, nu = patch.edge_quadrature(side, order)
        edge = _moment(u, *couple_stress_and_gradient(params, u, fr_e.x), fr_e)
        du = delta_u.value(fr_e.x)
        t_edge_conormal += float(We @ (-0.5 * _dot(_mv(anti(edge.w), nu), du)))
        t_edge_psi += float(We @ (-0.5 * edge.psi * _dot(cross(fr_e.n, nu), du)))

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
    ``residual_work_norm`` is the L2 norm over the patch of
    div_S(anti(w)(id - n(x)n)) = d_a w x x^a - (w x n)(x^a.d_a n), twice
    the tangential-gradient force term that keeps performing work against
    the virtual displacement regardless.
    """

    sup_normal_moment: float
    residual_work_norm: float


def hd_postulate_report(params: MaterialParams, field: DisplacementField,
                        patch: SurfacePatch, order: int) -> HdPostulateReport:
    """The postulate's two quantities for ``field`` on ``patch`` under the
    Gauss rule of ``order``: the sup of the normal moment |<m.n, n>| and
    the L2 norm of the tangential-gradient residual (see
    :class:`HdPostulateReport`), from the moment half of the split alone."""
    _, wts, fr = patch.quadrature(order)
    mo = _moment(field, *couple_stress_and_gradient(params, field, fr.x), fr)
    r = -2.0 * mo.t_tang        # div_S(anti(w) P)
    return HdPostulateReport(sup_normal_moment=float(np.max(np.abs(mo.psi))),
                             residual_work_norm=float(np.sqrt(wts @ _dot(r, r))))
