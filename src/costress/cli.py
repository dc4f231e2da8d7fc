"""Command-line front end: batch verification jobs with JSON reports and
RFC-4180 CSV tables.

Every command reads a JSON config (seed mandatory), checks it against the
command's schema, runs the command's checks, and writes ``report.json``
plus ``<command>.csv`` into the output directory.  Exit codes: 0 all
checks passed, 1 some check failed, 2 configuration error (in which case
no output file is written).

The checks of each command are one public function of this module; the
acceptance tests call the same functions.  A function that also measures
ungated quantities returns (checks, metrics); ``report.json`` carries the
metrics, the CSV and the exit code only the checks.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .constitutive import LoadData, MaterialParams, couple_stress, w_curv, w_lin
from .boundary import boundary_work_identity, hd_postulate_report
from .fields import (ConformalField, PolynomialField, _finite, fd_derivative_oracle,
                     grad_curl_from_grad2, kinematics, make_polynomial, random_conformal)
from .solver import (DegenerateCosseratError, WellPosednessError, assemble,
                     coercivity_evidence, cosserat_limit_sweep, solve)
from .surfaces import BoxFace, SphericalCap, stokes_flux_check, surface_divergence_check
from .tensors import anti, axl, cartan_decompose, contract_E_X, dev, inner, tr

__all__ = ["Check", "ConfigError", "main", "run", "operator_checks", "kinematics_checks",
           "energy_checks", "bc_audit_checks", "work_identity_check", "hd_postulate_checks",
           "bvp_checks", "cosserat_checks", "conformal_checks"]


class ConfigError(ValueError):
    """Invalid or malformed job configuration."""


@dataclass
class Check:
    """One verified quantity: its value, the gap to the ideal and the
    tolerance it is held to."""

    name: str
    value: float
    gap: float
    tolerance: float
    passed: bool
    details: dict = dc_field(default_factory=dict)

    @classmethod
    def within(cls, name: str, gap: float, tol: float, value: float | None = None,
               **details) -> "Check":
        """A check passed when gap <= tol; its value defaults to the gap."""
        return cls(name, gap if value is None else value, gap, tol, gap <= tol, details)


# -- config schema --------------------------------------------------------
#
# A schema maps every key a command reads to (parser, default), or, for
# ``tolerances``, to a nested schema.  A parser takes the raw JSON value
# (the default when the key is absent) and the values parsed so far
# (``seed`` first) and returns the typed value; ValueError, TypeError,
# KeyError and OverflowError (a JSON integer past the largest float) become
# a ConfigError naming the key by its path, as ``load: f_seed``.  The keys
# of a field, patch or material spec have a schema too.

#: the default of a key whose builder has its own: an absent one is not passed on
_ABSENT = object()


def _int(lo: int, hi: int | None = None):
    """Parser of a JSON integer in [lo, hi]."""
    def parse(v, job):
        if not isinstance(v, int) or isinstance(v, bool) or v < lo or (hi is not None and v > hi):
            raise ValueError(f"must be an integer in [{lo}, {hi or 'inf'}], got {v!r}")
        return v
    return parse


def _tol(default: float):
    """Schema entry of a tolerance: a finite number >= 0."""
    def parse(v, job):
        if _finite("a tolerance", v, ()) < 0:
            raise ValueError(f"must be a finite number >= 0, got {v!r}")
        return float(v)
    return parse, default


def _real(v, job):
    """Parser of a finite number, kept as given: the report echoes it."""
    _finite("the value", v, ())
    return v


def _given(v, job):
    """Parser of a value that the object built from it checks."""
    return v


_ARG = (_given, _ABSENT)


def _object(v) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"must be a JSON object, got {v!r}")
    return v


def _increasing(v, job):
    """Parser of two or more strictly increasing positive numbers."""
    a = _finite("the values", v, (len(v),)) if isinstance(v, list) else ()
    if not (len(a) >= 2 and a[0] > 0 and np.all(a[:-1] < a[1:])):
        raise ValueError(f"must be two or more strictly increasing positive numbers, got {v!r}")
    return v


def _alpha3(v, job):
    """Parser of alpha3, another name of alpha2: it sets alpha2, which must agree if given."""
    v = _real(v, job)
    if job.setdefault("alpha2", v) != v:
        raise ValueError(f"alpha2 ({job['alpha2']}) and alpha3 ({v}) are the same "
                         "parameter but were given different values")
    return v


_MATERIAL = {"mu": (_real, None), "lambda": (_real, None), "L_c": (_real, None),
             "alpha1": (_real, None), "alpha2": (_real, _ABSENT), "alpha3": (_alpha3, _ABSENT),
             "regime": (_given, None)}


def _material(regime: str):
    """Parser of a material object; absent, the regime's with L_c = 0.5."""
    def parse(v, job):
        if v is None:
            return MaterialParams.for_regime(regime, L_c=0.5)
        m = _parse(_MATERIAL, v)
        params = MaterialParams(m["mu"], m["lambda"], m["L_c"], m["alpha1"], m["alpha2"])
        if m["regime"] not in (None, params.regime):
            raise ValueError(f"regime {m['regime']!r} does not match the alphas "
                             f"(alpha1 = {params.alpha1}, alpha2 = {params.alpha2}), "
                             f"which give {params.regime!r}")
        return params
    return parse


def _conformal(seed=None, **constants) -> ConformalField:
    """``random_conformal(seed)``, or the field of the given constants."""
    if seed is None:
        return ConformalField(**constants)
    if constants:
        raise ValueError(f"a conformal field with a seed takes no other keys, got {sorted(constants)}")
    return random_conformal(seed)


#: field family -> (builder, schema of its other keys); zero, constant and
#: rigid are the conformal presets a_hat = anti(w_axial), b_hat = b (or c)
_FAMILIES = {
    "zero": (ConformalField, {}),
    "constant": (lambda c: ConformalField(b_hat=_finite("c", c, (3,))), {"c": (_given, None)}),
    "rigid": (lambda w_axial, b=(0.0, 0.0, 0.0): ConformalField(
        a_hat=anti(_finite("w_axial", w_axial, (3,))), b_hat=_finite("b", b, (3,))),
        {"w_axial": (_given, None), "b": _ARG}),
    "polynomial": (make_polynomial, {"seed": (_int(0), None), "degree": (_int(0, 6), None)}),
    "conformal": (_conformal, {"seed": (_int(0), _ABSENT), "w_axial": _ARG, "a_hat": _ARG,
                               "b_hat": _ARG, "p_hat": _ARG}),
}
#: patch type -> (builder, schema of its other keys)
_PATCHES = {
    "box_face": (BoxFace.unit_cube_face, {"which": (_given, "z+")}),
    "spherical_cap": (SphericalCap, dict.fromkeys(("center", "radius", "axis", "theta_max"), _ARG)),
}


def _spec(kinds: dict, tag: str, default):
    """Parser of a spec: its ``tag`` picks (builder, schema) in ``kinds``, and its
    other keys, parsed under that schema, are the builder's keywords; absent,
    ``default(seed)``."""
    def parse(v, job):
        if v is None:
            return default(job["seed"])
        spec = dict(_object(v))
        kind = spec.pop(tag, None)
        if kind not in kinds:
            raise ValueError(f"unknown {tag} {kind!r}; expected one of {sorted(kinds)}")
        build, schema = kinds[kind]
        return build(**_parse(schema, spec))
    return parse


_PATCH = (_spec(_PATCHES, "type", lambda seed: SphericalCap()), None)


_LOAD = {"f_seed": (_int(0), _ABSENT), "f_degree": (_int(0, 6), 2),
         "g_seed": (_int(0), _ABSENT), "g_degree": (_int(0, 6), 2)}


def _load(v, job) -> LoadData:
    """Parser of a load spec: polynomial body force (seed defaults to the job
    seed) and optional body couple; absent, the unit force along z."""
    if v is None:
        return LoadData(f=lambda x: np.broadcast_to([0.0, 0.0, 1.0], x.shape).copy())
    spec = _parse(_LOAD, v)
    f = make_polynomial(spec.get("f_seed", job["seed"]), spec["f_degree"])
    g = make_polynomial(spec["g_seed"], spec["g_degree"]) if "g_seed" in spec else None
    return LoadData(f=f.value, m_body=g)


def _parse(schema: dict, raw) -> dict:
    """The typed values of the JSON object ``raw`` under ``schema``."""
    unknown = set(_object(raw)) - set(schema)
    if unknown:
        raise ConfigError(f"keys not read: {sorted(unknown)}")
    job = {}
    for key, entry in schema.items():
        try:
            if isinstance(entry, dict):
                job[key] = _parse(entry, raw.get(key, {}))
                continue
            parse, default = entry
            v = raw.get(key, default)
            if v is not _ABSENT:
                job[key] = parse(v, job)
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return job


_SEED = (_int(0), None)
#: keys whose typed value is a built object; the report echoes their spec
_SPECS = {"field", "delta_field", "patch", "load"}


def _load_config(path: str, command: str, overrides: dict) -> tuple[dict, dict]:
    """(job, echo): the config and overrides parsed under the command's schema."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}")
    _object(cfg).update({k: v for k, v in overrides.items() if v is not None})
    # every command takes a seed; its checks see it only where its schema lists it
    job = _parse({"seed": _SEED, **_COMMANDS[command][1]}, cfg)
    return job, {k: cfg.get(k) if k in _SPECS else v for k, v in job.items()}


# -- checks ---------------------------------------------------------------
# The checks reduce their batched gaps with float(): _fmt writes a Python
# float with .17g but anything else, a numpy 0-d array too, with str().


#: random cases drawn and checked per block: large enough that the per-call
#: overhead vanishes, small enough that a block's temporaries stay near 1 MB
_BLOCK = 1024
#: that 1 MB, for blocks sized by the bytes their cases take
_BLOCK_BYTES = 2 ** 20


def _fold(gap: float, new) -> float:
    """The larger of two gaps, NaN if either is: Python's max(0.0, nan) is 0.0."""
    return float(np.maximum(gap, new))


def _blocks(rng: np.random.Generator, cases: int, width: int):
    """The cases as blocks of up to ``_BLOCK`` rows of ``width`` uniforms on
    [-1, 1]; the same stream as drawing them one case at a time."""
    for start in range(0, cases, _BLOCK):
        yield rng.uniform(-1.0, 1.0, (min(_BLOCK, cases - start), width))


def operator_checks(seed: int, cases: int, tolerances: dict) -> list[Check]:
    """Tensor-operator identities on random inputs, ``contract_E_X`` against a loop."""
    rng = np.random.default_rng(seed)
    gaps = np.zeros(5)
    for block in _blocks(rng, cases, 3 + 9 + 27):
        n = len(block)
        v, X, E = block[:, :3], block[:, 3:12].reshape(n, 3, 3), block[:, 12:].reshape(n, 3, 3, 3)
        A = anti(v)
        devsym, skew, spherical = cartan_decompose(X)
        loop = np.zeros((n, 3))  # the oracle: E_ijk X_kj summed term by term
        for j in range(3):
            for k in range(3):
                loop += E[:, :, j, k] * X[:, k, j, None]
        gaps = np.maximum(gaps, [
            np.max(np.abs(axl(A) - v)),
            np.max(np.abs(inner(A, A) - 2.0 * np.einsum("...i,...i->...", v, v))),
            np.max(np.abs(devsym + skew + spherical - X)),
            np.max(np.abs([inner(devsym, skew), inner(devsym, spherical), inner(skew, spherical)])),
            np.max(np.abs(contract_E_X(E, X) - loop)),
        ])
    names = ("axl_anti_round_trip", "anti_norm_identity", "cartan_recombination",
             "cartan_orthogonality", "contraction_vs_loop")
    return [Check.within(name, float(g), tolerances["operators"]) for name, g in zip(names, gaps)]


def kinematics_checks(seed: int, fields: int, points: int, degree: int, fd_fields: int,
                      tolerances: dict) -> list[Check]:
    """Kinematic identities of random polynomials, the first ``fd_fields`` against FD.

    The fields are evaluated as batches of polynomials, so many fields per
    ``kinematics`` call; the largest temporary, the grad2 contraction of
    27 (degree + 1)^2 doubles per point, stays near ``_BLOCK_BYTES``.
    """
    rng = np.random.default_rng(seed)
    tol_c = tolerances["kinematics_closed"]
    tol_fd = tolerances["kinematics_fd"]
    g_curl = g_tr = g_fd = 0.0
    seeds = rng.integers(0, 2 ** 31, size=fields)
    per_block = max(1, _BLOCK_BYTES // (8 * points * 27 * (degree + 1) ** 2))
    for start in range(0, fields, per_block):
        u = make_polynomial(seeds[start:start + per_block], degree)
        pts = rng.uniform(0.05, 0.95, (len(u.coeffs), points, 3))
        state = kinematics(u, pts)
        g_curl = _fold(g_curl, np.max(np.abs(state.curl_u - 2.0 * state.axl_skw_grad)))
        g_tr = _fold(g_tr, np.max(np.abs(tr(state.grad_curl))))
        # one oracle on the block's first k fields, at each one's first point:
        # the stencil rounds every field of a batch as it would that field alone
        k = min(len(u.coeffs), fd_fields - start)
        if k > 0:
            M_fd = grad_curl_from_grad2(fd_derivative_oracle(PolynomialField(u.coeffs[:k]),
                                                             pts[:k, 0], 2))
            g_fd = _fold(g_fd, np.max(np.abs(M_fd - state.grad_curl[:k, 0])))
    return [
        Check.within("curl_vs_axl_skw_grad", g_curl, tol_c),
        Check.within("grad_curl_trace_free", g_tr, tol_c),
        Check.within("grad_curl_fd_oracle", g_fd, tol_fd),
    ]


def _spread(forms: dict) -> float:
    """Largest spread max - min of equivalent energy forms over a batch,
    relative to max(1, their largest magnitude)."""
    vals = np.stack(list(forms.values()))
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
    return float(np.max((vals.max(axis=0) - vals.min(axis=0)) / scale))


def energy_checks(seed: int, cases: int, material: MaterialParams,
                  tolerances: dict) -> list[Check]:
    """Agreement of the energy forms; nonnegative curvature energy in every regime."""
    rng = np.random.default_rng(seed)
    tol = tolerances["energy_forms"]
    g_curv = g_lin = 0.0
    for block in _blocks(rng, cases, 9 + 9):
        n = len(block)
        M, G = dev(block[:, :9].reshape(n, 3, 3)), block[:, 9:].reshape(n, 3, 3)
        g_curv = _fold(g_curv, _spread(w_curv(material, M).forms))
        g_lin = _fold(g_lin, _spread(w_lin(material, G).forms))
    checks = [
        Check.within("curvature_three_forms", g_curv, tol),
        Check.within("local_energy_two_forms", g_lin, tol),
    ]
    M = dev(rng.uniform(-1.0, 1.0, (3, 3)))
    for regime in ("gkmt", "modified", "hd"):
        p = MaterialParams.for_regime(regime, mu=material.mu, lam=material.lam,
                                      L_c=material.L_c)
        val = float(w_curv(p, M))
        checks.append(
            Check(f"w_curv_nonnegative_{regime}", val, max(0.0, -val), 0.0,
                  val >= 0.0, details={"regime": regime})
        )
    return checks


def work_identity_check(material: MaterialParams, field, delta_field, patch,
                        quadrature_order: int, tol: float) -> Check:
    """The boundary work identity: direct against decomposed boundary work."""
    rep = boundary_work_identity(material, field, delta_field, patch, quadrature_order)
    return Check.within("boundary_work_identity", rep.gap, tol, value=rep.direct,
                        decomposed=rep.decomposed, terms=rep.terms)


def _gauss_order(*fields) -> int:
    """The surface Gauss order 4(d + 2) of fields of largest total degree d: at
    it, seeds 0-99 of d = 2..6 close the work identity to 2e-10 on four patches."""
    return 4 * (max(f.degree for f in fields) + 2)


def bc_audit_checks(field, delta_field, patch, material: MaterialParams,
                    tolerances: dict) -> list[Check]:
    """Divergence theorem, Stokes and work identity on a patch at the Gauss
    order of the fields; the direct work at 8 orders more shows it resolved."""
    q = _gauss_order(field, delta_field)
    lhs, rhs, gap = surface_divergence_check(field, patch, q)
    flux, circ, sgap = stokes_flux_check(field, patch, q)
    work = work_identity_check(material, field, delta_field, patch, q, tolerances["work_identity"])
    finer = boundary_work_identity(material, field, delta_field, patch, q + 8).direct
    return [
        Check.within("surface_divergence", gap, tolerances["surface_divergence"], value=lhs,
                     edge_integral=rhs),
        Check.within("quadrature_resolved", abs(work.value - finer), work.tolerance, value=finer,
                     orders=[q, q + 8]),
        Check.within("stokes_flux", sgap, tolerances["stokes"], value=flux, circulation=circ),
        work,
    ]


def hd_postulate_checks(field, patch, quadrature_order: int, material: MaterialParams,
                        tolerances: dict) -> list[Check]:
    """The normal moment vanishes on the patch, yet tangential-gradient work remains."""
    tol = tolerances["normal_moment"]
    rep = hd_postulate_report(material, field, patch, quadrature_order)
    return [
        Check.within("normal_moment_sup", rep.sup_normal_moment, tol),
        Check("residual_work_norm", rep.residual_work_norm,
              rep.residual_work_norm, tol, rep.residual_work_norm > 1e3 * tol,
              details={"refutation": "nonzero tangential-gradient work remains"}),
    ]


def bvp_checks(seed: int, n_modes: int, load: LoadData, material: MaterialParams,
               tolerances: dict) -> list[Check]:
    """Solve the clamped problem and check the system and the solution."""
    try:
        system = assemble(material, load, n_modes)
        lam_min = coercivity_evidence(system)
        sol = solve(system)
    except (WellPosednessError, ValueError) as exc:
        raise ConfigError(f"{exc}; lambda / mu = {material.lam / material.mu:g}")
    # a ratio of norms, taken on K over its largest |entry| so that neither norm overflows
    top = max(float(np.max(np.abs(K))) for K in system.K)
    scaled = [K / top for K in system.K]
    sym_gap = float(np.linalg.norm([np.linalg.norm(S - np.swapaxes(S, -1, -2)) for S in scaled])
                    / np.linalg.norm([np.linalg.norm(S) for S in scaled]))
    kc = system.ops.korn
    ident = float(abs(sol.energy + 0.5 * system.b @ sol.coeffs) / max(1.0, abs(sol.energy)))
    # ten perturbations of norm 1e-3, the rows of one stack
    v = np.random.default_rng(seed).normal(size=(10, sol.coeffs.size))
    z = sol.coeffs + v * (1e-3 / np.linalg.norm(v, axis=1, keepdims=True))
    pert = np.sum(z * (0.5 * system.ops.basis.apply(system.K, z) - system.b), axis=1)
    worst = float(np.max(sol.energy - pert))  # NaN if any is
    return [
        Check.within("solver_residual", float(sol.residual), tolerances["solver_residual"]),
        Check.within("stiffness_symmetry", sym_gap, 1e-12),
        Check("coercivity_lambda_min", lam_min, max(0.0, -lam_min), 0.0, lam_min > 0.0),
        # 1 <= kappa always; kappa <= sqrt 2 by Korn's equality on the clamped span
        Check("korn_constant", kc, max(0.0, 1.0 - kc, kc / math.sqrt(2.0) - 1.0), 1e-9,
              bool(np.isfinite(kc) and 1.0 <= kc <= math.sqrt(2.0) * (1.0 + 1e-9))),
        Check.within("energy_identity", ident, 1e-10, value=float(sol.energy)),
        Check("discrete_minimality", worst, _fold(worst, 0.0), 0.0, worst < 0.0),
    ]


def _label(x) -> str:
    """x as its :g form where that reads back as x, else as its shortest exact one."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def cosserat_checks(n_modes: int, load: LoadData, mu_c_values: list,
                    material: MaterialParams) -> list[Check]:
    """Penalized Cosserat solutions converge to the constrained one, first order in 1/mu_c."""
    try:
        errors, slope = cosserat_limit_sweep(material, load, n_modes, mu_c_values)
    except (DegenerateCosseratError, WellPosednessError, ValueError) as exc:
        raise ConfigError(str(exc))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    return [
        *(Check(f"relative_error_mu_c_{_label(mc)}", err, err, np.inf, True, details={"mu_c": mc})
          for mc, err in zip(mu_c_values, errors)),
        Check("errors_strictly_decreasing", errors[-1], errors[-1], np.inf, decreasing,
              details={"errors": errors}),
        Check.within("convergence_order", abs(slope - 1.0), 0.3, value=slope),
    ]


def conformal_checks(seed: int, points: int, material: MaterialParams,
                     tolerances: dict) -> tuple[list[Check], dict]:
    """A random conformal field: torsion free, conformal, constant couple stress;
    the metrics ``points`` hold each point ``x``, ``value`` and ``w_curv``."""
    u = random_conformal(seed)
    rng = np.random.default_rng(seed + 1)
    pts = rng.uniform(-1.0, 1.0, (points, 3))
    tol = tolerances["conformal"]
    state = kinematics(u, pts)
    M = state.grad_curl
    m = couple_stress(material, M)
    # sym grad curl u = 0, so m = 2 mu L_c^2 alpha2 anti(w) in every regime
    expect = material.mu * material.L_c ** 2 * material.alpha2 * 2.0 * anti(u.w)
    checks = [
        Check.within("torsion_free", float(np.max(np.abs(state.chi_torsion))), tol),
        Check.within("dev_sym_grad_zero", float(np.max(np.abs(dev(state.sym_grad)))), tol),
        Check.within("couple_stress_constant", float(np.max(np.abs(m - m[0]))), tol),
        Check.within("couple_stress_closed_form", float(np.max(np.abs(m[0] - expect))), tol),
    ]
    points = {"x": pts, "value": u.value(pts), "w_curv": w_curv(material, M).value}
    return checks, {"points": points}


_GKMT = (_material("gkmt"), None)


def _order(v, job):
    """Parser of a Gauss order, an integer >= 1; absent (default ``...``), the field's rule."""
    return _gauss_order(job["field"]) if v is ... else _int(1)(v, job)


#: command -> (checks function, schema); the function takes the schema's keys
_COMMANDS = {
    "verify-operators": (operator_checks, {
        "seed": _SEED, "cases": (_int(1), 1000),
        "tolerances": {"operators": _tol(1e-12)},
    }),
    "verify-kinematics": (kinematics_checks, {
        "seed": _SEED, "fields": (_int(1), 100), "points": (_int(1), 20),
        "degree": (_int(0, 6), 4), "fd_fields": (_int(1), 3),
        "tolerances": {"kinematics_closed": _tol(1e-12), "kinematics_fd": _tol(1e-8)},
    }),
    "energy-report": (energy_checks, {
        "seed": _SEED, "cases": (_int(1), 1000), "material": _GKMT,
        "tolerances": {"energy_forms": _tol(1e-12)},
    }),
    "bc-audit": (bc_audit_checks, {
        "field": (_spec(_FAMILIES, "family", lambda s: make_polynomial(s, 3)), None),
        "delta_field": (_spec(_FAMILIES, "family", lambda s: make_polynomial(s + 1, 3)), None),
        "patch": _PATCH, "material": _GKMT,
        "tolerances": {"surface_divergence": _tol(1e-6), "stokes": _tol(1e-6),
                       "work_identity": _tol(1e-6)},
    }),
    "hd-postulate": (hd_postulate_checks, {
        "field": (_spec(_FAMILIES, "family", random_conformal), None), "patch": _PATCH,
        "quadrature_order": (_order, ...), "material": (_material("hd"), None),
        "tolerances": {"normal_moment": _tol(1e-14)},
    }),
    "bvp-solve": (bvp_checks, {
        "seed": _SEED, "n_modes": (_int(1), 3), "load": (_load, None), "material": _GKMT,
        "tolerances": {"solver_residual": _tol(1e-10)},
    }),
    "cosserat-limit": (cosserat_checks, {
        "n_modes": (_int(1), 3), "load": (_load, None),
        "mu_c_values": (_increasing, [10.0, 100.0, 1000.0, 10000.0]), "material": _GKMT,
    }),
    "conformal-demo": (conformal_checks, {
        "seed": _SEED, "points": (_int(1), 5), "material": _GKMT,
        "tolerances": {"conformal": _tol(1e-12)},
    }),
}


# -- report emission -------------------------------------------------------


@functools.cache
def _blas_threads() -> str:
    """The loaded OpenBLAS's thread count, or "unknown"; read once, as a read costs ~1 ms."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
        for lib in libs:
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                getter = getattr(ctypes.CDLL(lib), name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return str(getter())
    except OSError:
        pass
    return "unknown"


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, MaterialParams):
        return {"mu": obj.mu, "lambda": obj.lam, "L_c": obj.L_c, "alpha1": obj.alpha1,
                "alpha2": obj.alpha2, "regime": obj.regime}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return _fmt(obj)
    return obj


def _write_outputs(out_dir: Path, command: str, job: dict, checks: list[Check],
                   metrics: dict, error: str | None = None):
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "job": _jsonable(job),
        "checks": [_jsonable(vars(c)) for c in checks],
        "metrics": _jsonable(metrics),
        "environment": {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "blas_threads": _blas_threads(),
        },
    }
    if error is not None:
        report["error"] = error
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")
    with open(out_dir / f"{command}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value", "gap", "tolerance", "passed"])
        writer.writerows([c.name, _fmt(c.value), _fmt(c.gap), _fmt(c.tolerance),
                          str(c.passed).lower()] for c in checks)


def run(command: str, config_path: str, out_dir: str = ".", seed: int | None = None) -> int:
    """Execute one job; returns the process exit code."""
    if command not in _COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    checks_of, schema = _COMMANDS[command]
    try:
        job, echo = _load_config(config_path, command, {"seed": seed})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    error, metrics = None, {}
    try:
        checks = checks_of(**{k: job[k] for k in schema})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # serialized into the report, exit 1
        checks = []
        error = f"{type(exc).__name__}: {exc}"
    if isinstance(checks, tuple):
        checks, metrics = checks

    _write_outputs(Path(out_dir), command, echo, checks, metrics, error)
    ok = error is None and all(c.passed for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: gap={_fmt(c.gap)} tol={_fmt(c.tolerance)}")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="costress", description="Verification jobs for the indeterminate couple stress model")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON job config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
