"""Command-line front end: batch verification jobs with JSON reports and
RFC-4180 CSV tables.

Every command reads a JSON config (seed mandatory), runs module-level
checks, and writes ``report.json`` plus ``<command>.csv`` into the output
directory.  Exit codes: 0 all checks passed, 1 some check failed,
2 configuration error (in which case no output file is written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .constitutive import (
    LoadData,
    MaterialParams,
    couple_stress,
    w_curv,
    w_lin,
)
from .boundary import boundary_work_identity, hd_postulate_report
from .fields import (
    fd_derivative_oracle,
    field_from_spec,
    grad_curl_from_grad2,
    kinematics,
    make_polynomial,
    random_conformal,
)
from .solver import (
    DegenerateCosseratError,
    WellPosednessError,
    assemble,
    coercivity_evidence,
    cosserat_limit_sweep,
    solve,
)
from .surfaces import (
    BoxFace,
    SphericalCap,
    stokes_flux_check,
    surface_divergence_check,
)
from .tensors import (
    anti,
    axl,
    cartan_decompose,
    contract_E_X,
    inner,
    sym,
)

__all__ = ["ConfigError", "main", "run"]


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


_COMMON_KEYS = {"seed", "tolerances", "quadrature_order", "material"}
_COMMAND_KEYS = {
    "verify-operators": {"cases"},
    "verify-kinematics": {"fields", "points", "degree", "fd_fields"},
    "energy-report": {"cases"},
    "bc-audit": {"field", "delta_field", "patch"},
    "hd-postulate": {"field", "patch"},
    "bvp-solve": {"n_modes", "load"},
    "cosserat-limit": {"n_modes", "load", "mu_c_values"},
    "conformal-demo": {"points"},
}

_DEFAULT_TOLS = {
    "operators": 1e-12,
    "kinematics_closed": 1e-12,
    "kinematics_fd": 1e-8,
    "energy_forms": 1e-12,
    "surface_divergence": 1e-6,
    "stokes": 1e-6,
    "work_identity": 1e-6,
    "normal_moment": 1e-14,
    "solver_residual": 1e-10,
    "conformal": 1e-12,
}


def _load_config(path: str, command: str, overrides: dict) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = _COMMON_KEYS | _COMMAND_KEYS[command]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    for k, v in overrides.items():
        if v is not None:
            cfg[k] = v
    if "seed" not in cfg:
        raise ConfigError("config must carry a seed (or pass --seed)")
    try:
        cfg["seed"] = int(cfg["seed"])
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    tols = dict(_DEFAULT_TOLS)
    extra = cfg.get("tolerances", {})
    if not isinstance(extra, dict):
        raise ConfigError("tolerances must be an object")
    bad = set(extra) - set(tols)
    if bad:
        raise ConfigError(f"unknown tolerance names: {sorted(bad)}")
    for k, v in extra.items():
        if not _is_number(v) or np.isnan(v):
            raise ConfigError(f"tolerance {k} must be a number, got {v!r}")
    tols.update({k: float(v) for k, v in extra.items()})
    cfg["tolerances"] = tols
    if "material" in cfg:
        try:
            cfg["material"] = MaterialParams.from_dict(cfg["material"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid material parameters: {exc}")
    return cfg


def _is_number(v, kind=(int, float)) -> bool:
    """A JSON number of the given kind (to Python a bool is an int; not here)."""
    return isinstance(v, kind) and not isinstance(v, bool)


def _solver_sizes(cfg: dict):
    """(n_modes, quadrature_order) of a solver job, checked to be integers;
    an order of None takes the solver's default."""
    n, order = cfg.get("n_modes", 3), cfg.get("quadrature_order")
    if not _is_number(n, int):
        raise ConfigError(f"n_modes must be an integer, got {n!r}")
    if order is not None and not _is_number(order, int):
        raise ConfigError(f"quadrature_order must be an integer, got {order!r}")
    return n, order


def _material(cfg: dict) -> MaterialParams:
    return cfg.get("material") or MaterialParams.for_regime("gkmt", L_c=0.5)


def _build_field(spec, default_seed: int):
    if spec is None:
        return make_polynomial(default_seed, degree=3)
    if not isinstance(spec, dict):
        raise ConfigError("field spec must be a JSON object")
    if spec.get("family") == "conformal" and "seed" in spec:
        return random_conformal(int(spec["seed"]))
    try:
        return field_from_spec(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid field spec: {exc}")


def _build_patch(spec):
    if spec is None:
        return SphericalCap()
    if not isinstance(spec, dict):
        raise ConfigError("patch spec must be a JSON object")
    spec = dict(spec)
    kind = spec.pop("type", None)
    try:
        if kind == "box_face":
            which = spec.pop("which", "z+")
            if spec:
                raise ConfigError(f"unknown box_face keys: {sorted(spec)}")
            return BoxFace.unit_cube_face(which)
        if kind == "spherical_cap":
            known = {"center", "radius", "axis", "theta_max"}
            unknown = set(spec) - known
            if unknown:
                raise ConfigError(f"unknown spherical_cap keys: {sorted(unknown)}")
            return SphericalCap(**spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid patch spec: {exc}")
    raise ConfigError(f"unknown patch type {kind!r}")


def _build_load(spec, default_seed: int) -> LoadData:
    if spec is None:
        return LoadData(f=lambda x: np.broadcast_to([0.0, 0.0, 1.0], x.shape).copy())
    if not isinstance(spec, dict):
        raise ConfigError("load spec must be a JSON object")
    known = {"f_seed", "f_degree", "g_seed", "g_degree"}
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown load keys: {sorted(unknown)}")
    f = make_polynomial(int(spec.get("f_seed", default_seed)),
                        int(spec.get("f_degree", 2)))
    g = None
    if "g_seed" in spec:
        g = make_polynomial(int(spec["g_seed"]), int(spec.get("g_degree", 2)))
    return LoadData(f=f.value, m_body=g.value if g is not None else None)


# -- commands -------------------------------------------------------------


def _cmd_verify_operators(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n = int(cfg.get("cases", 1000))
    tol = cfg["tolerances"]["operators"]
    g_round = g_norm = g_rec = g_orth = g_contract = 0.0
    for _ in range(n):
        v = rng.uniform(-1.0, 1.0, 3)
        X = rng.uniform(-1.0, 1.0, (3, 3))
        E = rng.uniform(-1.0, 1.0, (3, 3, 3))
        g_round = max(g_round, float(np.max(np.abs(axl(anti(v)) - v))))
        g_norm = max(g_norm, abs(inner(anti(v), anti(v)) - 2.0 * v @ v))
        parts = cartan_decompose(X)
        g_rec = max(g_rec, float(np.max(np.abs(parts.recombine() - X))))
        g_orth = max(
            g_orth,
            abs(inner(parts.devsym, parts.skew)),
            abs(inner(parts.devsym, parts.spherical)),
            abs(inner(parts.skew, parts.spherical)),
        )
        loop = np.array(
            [sum(E[i, j, k] * X[k, j] for j in range(3) for k in range(3)) for i in range(3)]
        )
        g_contract = max(g_contract, float(np.max(np.abs(contract_E_X(E, X) - loop))))
    return [
        Check("axl_anti_round_trip", g_round, g_round, tol, g_round <= tol),
        Check("anti_norm_identity", g_norm, g_norm, tol, g_norm <= tol),
        Check("cartan_recombination", g_rec, g_rec, tol, g_rec <= tol),
        Check("cartan_orthogonality", g_orth, g_orth, tol, g_orth <= tol),
        Check("contraction_vs_loop", g_contract, g_contract, tol, g_contract <= tol),
    ]


def _cmd_verify_kinematics(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n_fields = int(cfg.get("fields", 100))
    n_pts = int(cfg.get("points", 20))
    degree = int(cfg.get("degree", 4))
    n_fd = int(cfg.get("fd_fields", 3))
    tol_c = cfg["tolerances"]["kinematics_closed"]
    tol_fd = cfg["tolerances"]["kinematics_fd"]
    g_curl = g_tr = g_fd = 0.0
    seeds = rng.integers(0, 2 ** 31, size=n_fields)
    for i, s in enumerate(seeds):
        u = make_polynomial(int(s), degree)
        pts = rng.uniform(0.05, 0.95, (n_pts, 3))
        for x in pts:
            state = kinematics(u, x)
            g_curl = max(
                g_curl,
                float(np.max(np.abs(state.curl_u - 2.0 * state.axl_skw_grad))),
            )
            g_tr = max(g_tr, abs(float(np.trace(state.grad_curl))))
        if i < n_fd:
            x = pts[0]
            H_fd = fd_derivative_oracle(u, x, 2)
            M_fd = grad_curl_from_grad2(H_fd)
            state = kinematics(u, x)
            g_fd = max(g_fd, float(np.max(np.abs(M_fd - state.grad_curl))))
    return [
        Check("curl_vs_axl_skw_grad", g_curl, g_curl, tol_c, g_curl <= tol_c),
        Check("grad_curl_trace_free", g_tr, g_tr, tol_c, g_tr <= tol_c),
        Check("grad_curl_fd_oracle", g_fd, g_fd, tol_fd, g_fd <= tol_fd),
    ]


def _cmd_energy_report(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n = int(cfg.get("cases", 1000))
    tol = cfg["tolerances"]["energy_forms"]
    params = _material(cfg)
    g_curv = g_lin = 0.0
    for _ in range(n):
        M = rng.uniform(-1.0, 1.0, (3, 3))
        M -= (np.trace(M) / 3.0) * np.eye(3)
        forms = w_curv(params, M).forms
        vals = np.array(list(forms.values()))
        scale = max(1.0, float(np.max(np.abs(vals))))
        g_curv = max(g_curv, float((vals.max() - vals.min()) / scale))
        G = rng.uniform(-1.0, 1.0, (3, 3))
        lf = w_lin(params, G).forms
        lv = np.array(list(lf.values()))
        g_lin = max(g_lin, float((lv.max() - lv.min()) / max(1.0, np.max(np.abs(lv)))))
    checks = [
        Check("curvature_three_forms", g_curv, g_curv, tol, g_curv <= tol),
        Check("local_energy_two_forms", g_lin, g_lin, tol, g_lin <= tol),
    ]
    M = rng.uniform(-1.0, 1.0, (3, 3))
    M -= (np.trace(M) / 3.0) * np.eye(3)
    for regime in ("gkmt", "modified", "hd"):
        p = MaterialParams.for_regime(regime, mu=params.mu, lam=params.lam, L_c=params.L_c)
        val = float(w_curv(p, M))
        checks.append(
            Check(f"w_curv_nonnegative_{regime}", val, max(0.0, -val), 0.0,
                  val >= 0.0, details={"regime": regime})
        )
    return checks


def _cmd_bc_audit(cfg):
    params = _material(cfg)
    seed = cfg["seed"]
    u = _build_field(cfg.get("field"), seed)
    du = _build_field(cfg.get("delta_field"), seed + 1)
    patch = _build_patch(cfg.get("patch"))
    order = int(cfg.get("quadrature_order", 16))
    tols = cfg["tolerances"]

    lhs, rhs, gap = surface_divergence_check(u, patch, order)
    checks = [
        Check("surface_divergence", lhs, gap, tols["surface_divergence"],
              gap <= tols["surface_divergence"], details={"edge_integral": rhs})
    ]
    # on curved patches the quadrature error of cubic fields decreases
    # steadily only from order 8 on; order 4 is still pre-asymptotic
    ladder = [8, 16, 32]
    gaps = [surface_divergence_check(u, patch, o)[2] for o in ladder]
    mono = gaps[0] >= gaps[1] - 1e-12 and gaps[1] >= gaps[2] - 1e-12
    checks.append(
        Check("surface_divergence_monotone", gaps[2], gaps[2],
              tols["surface_divergence"], mono,
              details={"orders": ladder, "gaps": gaps})
    )
    flux, circ, sgap = stokes_flux_check(u, patch, order)
    checks.append(
        Check("stokes_flux", flux, sgap, tols["stokes"], sgap <= tols["stokes"],
              details={"circulation": circ})
    )
    rep = boundary_work_identity(params, u, du, patch, order)
    checks.append(
        Check("boundary_work_identity", rep.direct, rep.gap, tols["work_identity"],
              rep.gap <= tols["work_identity"],
              details={"decomposed": rep.decomposed, "terms": rep.terms})
    )
    return checks


def _cmd_hd_postulate(cfg):
    params = cfg.get("material") or MaterialParams.for_regime("hd", L_c=0.5)
    u = _build_field(cfg.get("field"), cfg["seed"]) if cfg.get("field") else (
        random_conformal(cfg["seed"]))
    patch = _build_patch(cfg.get("patch"))
    order = int(cfg.get("quadrature_order", 16))
    tol = cfg["tolerances"]["normal_moment"]
    rep = hd_postulate_report(params, u, patch, order)
    return [
        Check("normal_moment_sup", rep.sup_normal_moment, rep.sup_normal_moment,
              tol, rep.sup_normal_moment <= tol),
        Check("residual_work_norm", rep.residual_work_norm,
              rep.residual_work_norm, tol, rep.residual_work_norm > 1e3 * tol,
              details={"refutation": "nonzero tangential-gradient work remains"}),
    ]


def _cmd_bvp_solve(cfg):
    params = _material(cfg)
    n, order = _solver_sizes(cfg)
    loads = _build_load(cfg.get("load"), cfg["seed"])
    tol = cfg["tolerances"]["solver_residual"]
    try:
        system = assemble(params, loads, n, order)
        sol = solve(system)
    except (WellPosednessError, ValueError) as exc:
        raise ConfigError(str(exc))
    checks = [
        Check("solver_residual", sol.residual, sol.residual, tol, sol.residual <= tol),
    ]
    sym_gap = float(np.linalg.norm(system.K - system.K.T) / np.linalg.norm(system.K))
    checks.append(Check("stiffness_symmetry", sym_gap, sym_gap, 1e-12, sym_gap <= 1e-12))
    lam_min = coercivity_evidence(system)
    checks.append(Check("coercivity_lambda_min", lam_min, max(0.0, -lam_min), 0.0,
                        lam_min > 0.0))
    kc = system.korn
    checks.append(Check("korn_constant", kc, max(0.0, 1.0 - kc), 0.0,
                        np.isfinite(kc) and kc >= 1.0))
    ident = abs(sol.energy + 0.5 * system.b @ sol.coeffs)
    scale = max(1.0, abs(sol.energy))
    checks.append(Check("energy_identity", sol.energy, ident / scale, 1e-10,
                        ident / scale <= 1e-10))
    rng = np.random.default_rng(cfg["seed"])
    worst = -np.inf
    for _ in range(10):
        v = rng.normal(size=sol.coeffs.size)
        v *= 1e-3 / np.linalg.norm(v)
        z = sol.coeffs + v
        pert = float(0.5 * z @ (system.K @ z) - system.b @ z)
        worst = max(worst, sol.energy - pert)
    checks.append(Check("discrete_minimality", worst, max(0.0, worst), 0.0, worst < 0.0))
    return checks


def _cmd_cosserat_limit(cfg):
    params = _material(cfg)
    n, order = _solver_sizes(cfg)
    loads = _build_load(cfg.get("load"), cfg["seed"])
    mu_cs = cfg.get("mu_c_values", [10.0, 100.0, 1000.0, 10000.0])
    if not isinstance(mu_cs, list) or not all(_is_number(m) for m in mu_cs):
        raise ConfigError(f"mu_c_values must be a list of numbers, got {mu_cs!r}")
    try:
        errors, slope = cosserat_limit_sweep(params, loads, n, mu_cs, order)
    except (DegenerateCosseratError, WellPosednessError, ValueError) as exc:
        raise ConfigError(str(exc))
    checks = []
    for mc, err in zip(mu_cs, errors):
        checks.append(Check(f"relative_error_mu_c_{mc:g}", err, err, np.inf, True,
                            details={"mu_c": mc}))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    checks.append(Check("errors_strictly_decreasing", errors[-1], errors[-1],
                        np.inf, decreasing, details={"errors": errors}))
    checks.append(Check("convergence_order", slope, abs(slope - 1.0), 0.3,
                        abs(slope - 1.0) <= 0.3))
    return checks


def _cmd_conformal_demo(cfg):
    params = _material(cfg)
    u = random_conformal(cfg["seed"])
    rng = np.random.default_rng(cfg["seed"] + 1)
    n_pts = int(cfg.get("points", 5))
    pts = rng.uniform(-1.0, 1.0, (n_pts, 3))
    tol = cfg["tolerances"]["conformal"]
    g_tor = g_dev = 0.0
    checks = []
    m_ref = couple_stress(params, grad_curl_from_grad2(u.grad2(pts[0])))
    g_const = 0.0
    for i, x in enumerate(pts):
        G = u.grad(x)
        M = grad_curl_from_grad2(u.grad2(x))
        chi = sym(M)
        ds = sym(G) - (np.trace(G) / 3.0) * np.eye(3)
        g_tor = max(g_tor, float(np.max(np.abs(chi))))
        g_dev = max(g_dev, float(np.max(np.abs(ds))))
        m_here = couple_stress(params, M)
        g_const = max(g_const, float(np.max(np.abs(m_here - m_ref))))
        checks.append(
            Check(f"point_{i}", float(np.linalg.norm(u.value(x))), 0.0, np.inf, True,
                  details={"x": x.tolist(), "value": u.value(x).tolist(),
                           "w_curv": float(w_curv(params, M))})
        )
    checks.append(Check("torsion_free", g_tor, g_tor, tol, g_tor <= tol))
    checks.append(Check("dev_sym_grad_zero", g_dev, g_dev, tol, g_dev <= tol))
    checks.append(Check("couple_stress_constant", g_const, g_const, tol, g_const <= tol))
    expect = params.mu * params.L_c ** 2 * params.alpha2 * 2.0 * anti(u.w)
    g_val = float(np.max(np.abs(m_ref - expect)))
    if params.regime == "hd":
        checks.append(Check("couple_stress_closed_form", g_val, g_val, tol, g_val <= tol))
    return checks


_COMMANDS = {
    "verify-operators": _cmd_verify_operators,
    "verify-kinematics": _cmd_verify_kinematics,
    "energy-report": _cmd_energy_report,
    "bc-audit": _cmd_bc_audit,
    "hd-postulate": _cmd_hd_postulate,
    "bvp-solve": _cmd_bvp_solve,
    "cosserat-limit": _cmd_cosserat_limit,
    "conformal-demo": _cmd_conformal_demo,
}


# -- report emission -------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, MaterialParams):
        return json.loads(obj.to_json())
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return _fmt(obj)
    return obj


def _write_outputs(out_dir: Path, command: str, cfg: dict, checks: list[Check],
                   error: str | None = None):
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "job": _jsonable(cfg),
        "checks": [
            {
                "name": c.name,
                "value": _jsonable(c.value),
                "gap": _jsonable(c.gap),
                "tolerance": _jsonable(c.tolerance),
                "passed": bool(c.passed),
                "details": _jsonable(c.details),
            }
            for c in checks
        ],
        "environment": {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
        },
    }
    if error is not None:
        report["error"] = error
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(out_dir / f"{command}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value", "gap", "tolerance", "passed"])
        for c in checks:
            writer.writerow([c.name, _fmt(c.value), _fmt(c.gap),
                             _fmt(c.tolerance), str(c.passed).lower()])


def run(command: str, config_path: str, out_dir: str = ".",
        seed: int | None = None, quadrature_order: int | None = None) -> int:
    """Execute one job; returns the process exit code."""
    if command not in _COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(config_path, command,
                           {"seed": seed, "quadrature_order": quadrature_order})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    error = None
    try:
        checks = _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # serialized into the report, exit 1
        checks = []
        error = f"{type(exc).__name__}: {exc}"

    _write_outputs(Path(out_dir), command, cfg, checks, error)
    ok = error is None and all(c.passed for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: gap={_fmt(c.gap)} tol={_fmt(c.tolerance)}")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="costress",
        description="Verification jobs for the indeterminate couple stress model",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON job config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quadrature-order", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.seed, args.quadrature_order)


if __name__ == "__main__":
    sys.exit(main())
