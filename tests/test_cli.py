import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costress import cli, solver
from costress.cli import main, run
from costress.constitutive import LoadData, MaterialParams, w_curv, w_lin
from costress.fields import (ConformalField, fd_derivative_oracle, grad_curl_from_grad2,
                             kinematics, make_polynomial, random_conformal)
from costress.tensors import anti, axl, cartan_decompose, contract_E_X, inner, tr

SRC = Path(__file__).resolve().parents[1] / "src"


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


@pytest.fixture
def base_config(tmp_path):
    return _write(tmp_path, "cfg.json", {"seed": 0})


def test_verify_operators_default_config(tmp_path, base_config):
    out = tmp_path / "out"
    assert run("verify-operators", base_config, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "verify-operators"
    assert all(c["passed"] for c in report["checks"])
    assert all("gap" in c and "tolerance" in c for c in report["checks"])
    assert "package_version" in report["environment"]


def test_csv_is_rfc4180(tmp_path, base_config):
    out = tmp_path / "out"
    run("verify-operators", base_config, str(out))
    raw = (out / "verify-operators.csv").read_bytes()
    assert raw.startswith(b"check,value,gap,tolerance,passed\r\n")
    assert b"\r\n" in raw


def test_malformed_json_exits_2_no_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out"
    assert run("verify-operators", str(bad), str(out)) == 2
    assert not out.exists()


def test_config_not_utf8_exits_2_no_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"seed": 0}')  # a UTF-16 byte-order mark
    out = tmp_path / "out"
    assert run("verify-operators", str(bad), str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "c.json", {"seed": 1, "bogus": True})
    out = tmp_path / "out"
    assert run("verify-operators", cfg, str(out)) == 2
    assert not out.exists()


def test_missing_seed_exits_2(tmp_path):
    cfg = _write(tmp_path, "c.json", {})
    assert run("verify-operators", cfg, str(tmp_path / "o")) == 2
    # ... but a --seed override repairs it
    assert run("verify-operators", cfg, str(tmp_path / "o"), seed=3) == 0


def test_invalid_material_exits_2(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "seed": 0,
        "material": {"mu": -1.0, "lambda": 1.0, "L_c": 1.0,
                     "alpha1": 1.0, "alpha2": 1.0},
    })
    assert run("energy-report", cfg, str(tmp_path / "o")) == 2


@pytest.mark.parametrize("key", ["L_c", "alpha1", "alpha2"])
def test_nan_material_exits_2_no_output(tmp_path, key):
    material = {"mu": 1.0, "lambda": 1.0, "L_c": 1.0, "alpha1": 1.0, "alpha2": 1.0}
    material[key] = float("nan")
    cfg = _write(tmp_path, "c.json", {"seed": 0, "material": material})
    out = tmp_path / "o"
    assert run("energy-report", cfg, str(out)) == 2
    assert not out.exists()


def test_an_overflowing_energy_form_fails_its_row(tmp_path, capsys):
    # at mu = lambda = 1e308 both forms of the local energy overflow: their spread is
    # NaN, and NaN must reach the gate, not fold away as Python's max(0.0, nan) = 0.0
    material = {"mu": 1e308, "lambda": 1e308, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0}
    cfg = _write(tmp_path, "c.json", {"seed": 0, "cases": 50, "material": material})
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning):
        assert run("energy-report", cfg, str(out)) == 1
    assert "[FAIL] local_energy_two_forms: gap=nan" in capsys.readouterr().out
    rows = (out / "energy-report.csv").read_text(encoding="utf-8").splitlines()
    assert [r.split(",")[0] for r in rows if r.endswith(",false")] == ["local_energy_two_forms"]


@pytest.mark.parametrize("command", ["bvp-solve", "cosserat-limit"])
def test_material_mu_c_exits_2_naming_it(tmp_path, capsys, command):
    # the material is five constants; the couple moduli of a sweep are mu_c_values
    material = {"mu": 1.0, "lambda": 1.0, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0, "mu_c": 100.0}
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 1, "material": material})
    out = tmp_path / "o"
    assert run(command, cfg, str(out)) == 2
    assert "mu_c" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("regime, code", [("gkmt", 0), ("hd", 2), ("classical", 2), ("banana", 2)])
def test_material_regime_must_match_its_alphas(tmp_path, capsys, regime, code):
    material = {"mu": 1.0, "lambda": 1.0, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0,
                "regime": regime}
    cfg = _write(tmp_path, "c.json", {"seed": 0, "cases": 2, "material": material})
    out = tmp_path / "o"
    assert run("energy-report", cfg, str(out)) == code
    assert out.exists() == (code == 0)
    if code:
        assert f"regime {regime!r} does not match the alphas" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["abc", "1e-6", None, True, [1.0], float("nan"), -1.0,
                                 float("inf"), 10 ** 400])
def test_bad_tolerance_exits_2_no_output(tmp_path, tol):
    cfg = _write(tmp_path, "c.json", {"seed": 0, "tolerances": {"operators": tol}})
    out = tmp_path / "o"
    assert run("verify-operators", cfg, str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("which", ["z*", "z", "zz+", "Z+"])
def test_bad_box_face_exits_2_no_output(tmp_path, which):
    cfg = _write(tmp_path, "c.json",
                 {"seed": 0, "patch": {"type": "box_face", "which": which}})
    out = tmp_path / "o"
    assert run("bc-audit", cfg, str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("cap", [{"radius": -1}, {"theta_max": 0}, {"axis": [0, 0, 0]},
                                 {"theta_max": True}, {"radius": True}, {"axis": [True, 0, 0]},
                                 {"center": [True, 0, 0]}, {"radius": "1"},
                                 {"center": ["1", 0, 0]}],
                         ids=lambda v: json.dumps(v, separators=(",", ":")))
def test_bad_spherical_cap_exits_2_no_output(tmp_path, cap):
    cfg = _write(tmp_path, "c.json", {"seed": 0, "patch": {"type": "spherical_cap", **cap}})
    out = tmp_path / "o"
    assert run("bc-audit", cfg, str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("bvp-solve", {"n_modes": 2.5}),
    ("bvp-solve", {"n_modes": True}),
    ("bvp-solve", {"n_modes": "3"}),
    ("bvp-solve", {"n_modes": 2, "quadrature_order": 8.5}),
    ("bvp-solve", {"n_modes": 2, "quadrature_order": True}),
    ("cosserat-limit", {"n_modes": 2.5}),
    ("cosserat-limit", {"n_modes": 2, "quadrature_order": True}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": []}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": [100]}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": [100, 100]}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": [10, "100"]}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": 100}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": [10, 100, 100]}),
    ("cosserat-limit", {"n_modes": 2, "mu_c_values": [1000, 100, 10]}),
    ("verify-operators", {"seed": 1.7}),
    ("verify-operators", {"seed": True}),
    ("verify-operators", {"seed": "5"}),
    ("verify-operators", {"seed": -1}),
    ("verify-operators", {"cases": 0}),
    ("verify-operators", {"cases": -5}),
    ("energy-report", {"cases": 0}),
    ("energy-report", {"cases": -5}),
    ("verify-kinematics", {"fields": 0}),
    ("verify-kinematics", {"fd_fields": 0}),
    ("verify-kinematics", {"points": 0}),
    ("conformal-demo", {"points": 0}),
    ("verify-kinematics", {"points": 2.5}),
    ("hd-postulate", {"quadrature_order": 2.5}),
    ("bvp-solve", {"n_modes": 2, "load": {"f_seed": 1.5}}),
    ("bvp-solve", {"n_modes": 2, "load": {"f_seed": None}}),
    ("cosserat-limit", {"n_modes": 2, "load": {"g_seed": None}}),
    ("hd-postulate", {"field": {"family": "conformal", "seed": 1.5}}),
    ("verify-kinematics", {"degree": 7}),
    ("bvp-solve", {"n_modes": 2, "load": {"f_degree": 9}}),
    ("bc-audit", {"quadrature_order": -3}),
    ("bc-audit", {"quadrature_order": 0}),
    ("bc-audit", {"quadrature_order": 16}),
    ("verify-operators", {"quadrature_order": 8}),
    ("verify-kinematics", {"quadrature_order": 8}),
    ("verify-operators", {"material": {"mu": 1.0, "lambda": 1.0, "L_c": 1.0,
                                       "alpha1": 1.0, "alpha2": 1.0}}),
    ("verify-kinematics", {"material": {"mu": 1.0, "lambda": 1.0, "L_c": 1.0,
                                        "alpha1": 1.0, "alpha2": 1.0}}),
    ("verify-operators", {"tolerances": {"stokes": 1e-6}}),
    ("bc-audit", {"field": {"family": "constant", "c": [1, 2]}}),
    ("bc-audit", {"field": {"family": "rigid", "w_axial": [0, 0, 1], "b": [1, 2]}}),
    ("bc-audit", {"field": {"family": "polynomial", "seed": 1, "degree": 3, "typo_key": 5}}),
    ("bc-audit", {"delta_field": {"family": "zero", "c": [1, 2, 3]}}),
    ("hd-postulate", {"field": {"family": "conformal", "b_hat": [1, 2]}}),
    ("hd-postulate", {"field": {"family": "conformal", "a_hat": [[0, 1], [-1, 0]]}}),
    ("hd-postulate", {"field": {"family": "conformal", "p_hat": True}}),
    ("hd-postulate", {"field": {"family": "conformal", "seed": 3, "w_axial": [1, 0, 0]}}),
    ("energy-report", {"material": {"mu": True, "lambda": 1.0, "L_c": 1.0,
                                    "alpha1": 1.0, "alpha2": 1.0}}),
    ("energy-report", {"material": {"mu": 1.0, "lambda": 1.0, "L_c": 1.0,
                                    "alpha1": 1.0, "alpha2": False}}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v, separators=(",", ":")))
def test_bad_solver_config_exits_2_no_output(tmp_path, command, cfg):
    path = _write(tmp_path, "c.json", {"seed": 0, **cfg})
    out = tmp_path / "o"
    assert run(command, path, str(out)) == 2
    assert not out.exists()


def test_overflowing_conformal_parameters_exit_2_no_output(tmp_path):
    # a finite w_axial near the largest float overflows the constant second gradient:
    # the field is refused while the config is read, before any compute or warning
    path = _write(tmp_path, "c.json", {"seed": 0, "field": {"family": "conformal",
                                                            "w_axial": [1e308, 0, 0]}})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("hd-postulate", path, str(out)) == 2
    assert not out.exists()


def test_alpha3_alias_in_material(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "seed": 0, "cases": 10,
        "material": {"mu": 1.0, "lambda": 1.0, "L_c": 1.0,
                     "alpha1": 1.0, "alpha3": 1.0},
    })
    assert run("energy-report", cfg, str(tmp_path / "o")) == 0


def _field_of(spec):
    """The field the CLI builds from a field spec."""
    return cli._spec(cli._FAMILIES, "family", None)(spec, {})


@pytest.mark.parametrize("spec, value, grad", [
    ({"family": "zero"}, lambda x: np.zeros_like(x), np.zeros((3, 3))),
    ({"family": "constant", "c": [1.0, -2.0, 0.5]},
     lambda x: np.broadcast_to([1.0, -2.0, 0.5], x.shape), np.zeros((3, 3))),
    ({"family": "rigid", "w_axial": [0.1, 0.2, 0.3]},
     lambda x: np.cross([0.1, 0.2, 0.3], x), anti([0.1, 0.2, 0.3])),
    ({"family": "rigid", "w_axial": [0.1, 0.2, 0.3], "b": [1, 0, 0]},
     lambda x: np.cross([0.1, 0.2, 0.3], x) + [1.0, 0.0, 0.0], anti([0.1, 0.2, 0.3])),
], ids=["zero", "constant", "rigid", "rigid_b"])
def test_low_degree_families_are_conformal_presets(spec, value, grad):
    # u = W x + b written out: no quadratic part, no dilation
    u = _field_of(spec)
    assert type(u) is ConformalField and not u.w.any() and u.p == 0.0
    X = np.random.default_rng(0).uniform(-1, 1, (4, 3))
    assert np.allclose(u.value(X), value(X), rtol=0.0, atol=1e-15)
    assert np.array_equal(u.grad(X), np.broadcast_to(grad, (4, 3, 3)))
    assert not u.grad2(X).any() and u.grad2(X).shape == (4, 3, 3, 3)
    # a quadratic by degree: its third and fourth gradients vanish and are never evaluated
    assert u.degree == 2 and not hasattr(u, "grad3") and not hasattr(u, "grad4")


def test_rigid_motion_kinematics():
    w = np.array([0.3, -0.2, 0.5])
    u = _field_of({"family": "rigid", "w_axial": w.tolist(), "b": [1.0, 0.0, 0.0]})
    x = np.array([0.2, 0.7, -0.3])
    # u = W x + b with W x = w x x
    assert np.allclose(u.value(x), np.cross(w, x) + [1.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    state = kinematics(u, x)
    assert np.allclose(state.sym_grad, 0.0, atol=1e-15)
    assert np.allclose(state.curl_u, 2.0 * w, atol=1e-14)
    assert np.allclose(state.axl_skw_grad, w, atol=1e-14)
    assert np.allclose(state.grad_curl, 0.0)


def test_field_specs_build_each_family():
    a_hat = anti(np.array([0.1, -0.4, 0.2]))
    cases = [
        ({"family": "polynomial", "seed": 8, "degree": 3}, make_polynomial(8, 3)),
        ({"family": "conformal", "w_axial": [0.3, -0.2, 0.5], "a_hat": a_hat.tolist(),
          "b_hat": [1, 2, 3], "p_hat": 0.4},
         ConformalField(w_axial=(0.3, -0.2, 0.5), a_hat=a_hat, b_hat=(1, 2, 3), p_hat=0.4)),
        ({"family": "conformal", "seed": 4}, random_conformal(4)),
    ]
    x = np.array([0.25, -0.5, 0.75])
    for spec, f in cases:
        g = _field_of(spec)
        assert type(g) is type(f)
        assert np.array_equal(f.value(x), g.value(x))


@pytest.mark.parametrize("spec", [
    {"family": "nope"},
    {"c": [1, 2, 3]},
    {"family": "polynomial", "seed": 1, "degree": 3, "typo_key": 5},
    {"family": "polynomial", "seed": [1, 2], "degree": 3},
    {"family": "polynomial", "seed": True, "degree": 2},
    {"family": "polynomial", "seed": 1, "degree": True},
    {"family": "polynomial", "degree": 2},
    {"family": "zero", "c": [1, 2, 3]},
    {"family": "constant", "c": [1, 2, float("inf")]},
    {"family": "constant"},
    {"family": "rigid", "w_axial": [0, 0, 1], "b": [1, 2]},
    {"family": "rigid", "w_axial": ["0", 0, 1]},
    {"family": "rigid", "w_axial": [True, 0, 1]},
    {"family": "rigid", "w_axial": [0, [0], 1]},
    {"family": "rigid", "w_axial": [0, 0, 1], "b": None},
    {"family": "conformal", "b_hat": [1, 2]},
    {"family": "conformal", "w_axial": [[1, 0, 0]]},
    {"family": "conformal", "a_hat": [[0, 1], [-1, 0]]},
    {"family": "conformal", "p_hat": True},
    {"family": "conformal", "p_hat": "0.5"},
    {"family": "conformal", "p_hat": float("nan")},
    {"family": "conformal", "p_hat": None},
    {"family": "conformal", "seed": True},
    {"family": "conformal", "seed": None},
], ids=lambda v: json.dumps(v, separators=(",", ":")))
def test_bad_field_spec_exits_2_no_output(tmp_path, capsys, spec):
    # a boolean is not an integer in a spec either, as in the command keys
    cfg = _write(tmp_path, "c.json", {"seed": 0, "field": spec})
    out = tmp_path / "o"
    assert run("bc-audit", cfg, str(out)) == 2
    assert "config error: field: " in capsys.readouterr().err
    assert not out.exists()


def test_a_misspelt_spec_key_is_named(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"seed": 0, "patch": {"type": "spherical_cap", "raduis": 2.0}})
    out = tmp_path / "o"
    assert run("hd-postulate", cfg, str(out)) == 2
    assert "config error: patch: keys not read: ['raduis']" in capsys.readouterr().err
    assert not out.exists()


def test_the_echoed_material_runs_as_its_config(tmp_path):
    material = {"mu": 2.0, "lambda": 0.5, "L_c": 0.1, "alpha1": 1.0, "alpha3": 0.5}
    assert run("energy-report", _write(tmp_path, "a.json", {"seed": 0, "cases": 2,
                                                            "material": material}),
               str(tmp_path / "a")) == 0
    report = (tmp_path / "a" / "report.json").read_bytes()
    echo = json.loads(report)["job"]["material"]
    assert echo == {"mu": 2.0, "lambda": 0.5, "L_c": 0.1, "alpha1": 1.0, "alpha2": 0.5,
                    "regime": "gkmt"}
    assert run("energy-report", _write(tmp_path, "b.json", {"seed": 0, "cases": 2,
                                                            "material": echo}),
               str(tmp_path / "b")) == 0
    assert (tmp_path / "b" / "report.json").read_bytes() == report


@pytest.mark.parametrize("material, named", [
    # a missing lambda is named by its JSON key, not by the field name lam
    ({"mu": 1.0, "L_c": 1.0, "alpha1": 1.0, "alpha2": 1.0}, "material: lambda: "),
    ({"mu": 1.0, "lambda": 1.0, "L_c": 1.0, "alpha1": 1.0}, "material: 'alpha2'"),
    ({"mu": 1.0, "lambda": 1.0, "L_c": 1.0, "alpha1": 1.0, "alpha2": 1.0, "nu": 0.3},
     "material: keys not read: ['nu']"),
    ({"mu": 1.0, "lambda": 1.0, "L_c": 1.0, "alpha1": 1.0, "alpha2": 0.3, "alpha3": 0.5},
     "are the same parameter"),
    ({"mu": 1.0, "lambda": 1.0, "L_c": 1.0, "alpha1": 1.0, "alpha2": None, "alpha3": 1.0},
     "material: alpha2: "),
], ids=["no_lambda", "no_alpha2", "nu", "alpha2_vs_alpha3", "null_alpha2"])
def test_bad_material_key_exits_2_naming_it(tmp_path, capsys, material, named):
    cfg = _write(tmp_path, "c.json", {"seed": 0, "cases": 2, "material": material})
    out = tmp_path / "o"
    assert run("energy-report", cfg, str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_alpha3_names_alpha2():
    parse = cli._material("gkmt")
    base = {"mu": 1.0, "lambda": 1.0, "L_c": 1.0, "alpha1": 1.0}
    assert parse({**base, "alpha3": 0.5}, {}).alpha2 == 0.5
    # a consistent duplicate is accepted
    assert parse({**base, "alpha2": 0.5, "alpha3": 0.5}, {}).alpha2 == 0.5


def test_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.json", {"seed": 7})
    run("bc-audit", cfg, str(tmp_path / "a"))
    run("bc-audit", cfg, str(tmp_path / "b"))
    a = (tmp_path / "a" / "bc-audit.csv").read_bytes()
    b = (tmp_path / "b" / "bc-audit.csv").read_bytes()
    assert a == b
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb


def test_bc_audit_resolves_a_field_that_order_4_does_not(tmp_path):
    # seed 22's cubic field is still pre-asymptotic at order 4 on the hemisphere
    # (order 4/8/16 divergence gaps 5.4e-4, 1.5e-2, 2.2e-11); its order is 4(3 + 2)
    cfg = _write(tmp_path, "c.json", {"seed": 22})
    out = tmp_path / "o"
    assert run("bc-audit", cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    resolved = {c["name"]: c for c in report["checks"]}["quadrature_resolved"]
    assert resolved["passed"] and resolved["details"]["orders"] == [20, 28]


@pytest.mark.parametrize("field, delta_field, order", [
    (None, None, 20),
    ({"family": "polynomial", "seed": 3, "degree": 4}, None, 24),
    ({"family": "conformal", "seed": 3}, {"family": "polynomial", "seed": 4, "degree": 1}, 16),
    ({"family": "zero"}, {"family": "polynomial", "seed": 4, "degree": 6}, 32),
], ids=["cubic", "quartic", "conformal", "sextic_delta"])
def test_bc_audit_runs_each_check_once_at_the_order_of_its_fields(
        tmp_path, monkeypatch, field, delta_field, order):
    # the order is 4(d + 2) for the larger degree d of the two fields, a conformal
    # field counting as 2; the work identity runs again at 8 orders more
    calls, raws = [], {name: getattr(cli, name) for name in (
        "surface_divergence_check", "stokes_flux_check", "boundary_work_identity")}
    for name, raw in raws.items():
        monkeypatch.setattr(cli, name, lambda *a, name=name, raw=raw: (
            calls.append((name, a[-1])), raw(*a))[1])
    cfg = {"seed": 0, **{k: v for k, v in (("field", field), ("delta_field", delta_field)) if v}}
    out = tmp_path / "o"
    assert run("bc-audit", _write(tmp_path, "c.json", cfg), str(out)) == 0
    assert sorted(calls) == [("boundary_work_identity", order),
                             ("boundary_work_identity", order + 8),
                             ("stokes_flux_check", order), ("surface_divergence_check", order)]
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert all(c["passed"] for c in checks.values())
    assert checks["quadrature_resolved"]["details"]["orders"] == [order, order + 8]
    # the rows hold the gaps of the library calls at those orders
    job = cli._parse({"seed": cli._SEED, **cli._COMMANDS["bc-audit"][1]}, cfg)
    u, du, patch, material = job["field"], job["delta_field"], job["patch"], job["material"]
    work = [raws["boundary_work_identity"](material, u, du, patch, q) for q in (order, order + 8)]
    assert checks["surface_divergence"]["gap"] == raws["surface_divergence_check"](u, patch, order)[2]
    assert checks["stokes_flux"]["gap"] == raws["stokes_flux_check"](u, patch, order)[2]
    assert checks["boundary_work_identity"]["gap"] == work[0].gap
    assert checks["quadrature_resolved"]["gap"] == abs(work[0].direct - work[1].direct)
    assert checks["quadrature_resolved"]["value"] == work[1].direct


_OFF_AXIS_CAP = {"type": "spherical_cap", "radius": 2.0, "theta_max": 1.0, "axis": [1.0, 1.0, 0.0]}


@pytest.mark.parametrize("cfg", [
    *({"seed": s, "patch": _OFF_AXIS_CAP} for s in (1, 4, 8, 9, 10, 11)),
    *({"seed": 5, "field": {"family": "polynomial", "seed": 5, "degree": d},
       "delta_field": {"family": "polynomial", "seed": 6, "degree": d}} for d in (4, 6)),
], ids=lambda v: json.dumps(v, separators=(",", ":")))
def test_bc_audit_closes_the_work_identity_that_order_16_left_open(tmp_path, cfg):
    # at a fixed order 16 the work identity of these jobs missed 1e-6: by 1.2e-6 to
    # 3.2e-6 on the off-axis cap, 9.7e-5 for the quartic fields and 4.6e-3 for the
    # sextic ones, whose divergence and Stokes rows failed too
    out = tmp_path / "o"
    assert run("bc-audit", _write(tmp_path, "c.json", cfg), str(out)) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert max(c["gap"] for c in checks) <= 1e-8


def test_hd_postulate_report_content(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "seed": 11,
        "material": {"mu": 1.0, "lambda": 1.0, "L_c": 0.5,
                     "alpha1": 0.0, "alpha2": 1.0},
    })
    out = tmp_path / "o"
    assert run("hd-postulate", cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["normal_moment_sup"]["value"] <= 1e-14
    assert by_name["residual_work_norm"]["value"] > 1e-11


def test_bvp_solve_small(tmp_path):
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2})
    out = tmp_path / "o"
    assert run("bvp-solve", cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"solver_residual", "coercivity_lambda_min", "korn_constant",
            "discrete_minimality"} <= names


def test_bvp_solve_passes_at_n_11(tmp_path):
    # on Shen's modes the Korn constant of N = 11 sits at sqrt 2 to round-off (2e-14),
    # well inside the check's 1e-9 slack
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 11})
    try:
        assert run("bvp-solve", cfg, str(tmp_path / "o")) == 0
    finally:
        solver._operators.cache_clear()  # the N = 11 operators hold about 90 MB


def test_bvp_solve_reads_the_body_couple(tmp_path):
    def energy(load):
        out = tmp_path / f"o{len(load)}"
        assert run("bvp-solve", _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2,
                                                              "load": load}), str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        return {c["name"]: c for c in report["checks"]}["energy_identity"]["value"]

    assert energy({"f_seed": 0, "g_seed": 3}) != energy({"f_seed": 0})


def test_bvp_solve_tabulates_once(tmp_path, monkeypatch):
    solver._operators.cache_clear()  # a cold cache: the job's one tabulation is its own
    calls = []

    def counting(*args):
        calls.append(args)
        return raw(*args)

    raw = solver._tabulate
    monkeypatch.setattr(solver, "_tabulate", counting)
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2})
    out = tmp_path / "o"
    assert run("bvp-solve", cfg, str(out)) == 0
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())
    korn = {c["name"]: c for c in report["checks"]}["korn_constant"]["value"]
    assert korn == pytest.approx(solver.korn_constant(2), rel=1e-12)


@pytest.mark.parametrize("mu, lam", [(1e-12, 1e12), (1e-300, 1e300)])
def test_a_stiffness_not_positive_definite_exits_2_with_no_files(tmp_path, capsys, mu, lam):
    # a valid material (mu > 0, 3 lambda + 2 mu > 0) whose stiffness at N = 4 is, in
    # floating point, not positive definite: bvp-solve reports the solver's lambda_min
    material = {"mu": mu, "lambda": lam, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0}
    out = tmp_path / "o"
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 4, "material": material})
    assert main(["bvp-solve", "--config", cfg, "--out", str(out)]) == 2
    assert "not positive definite (lambda_min = -" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, mu, lam, says", [
    ("bvp-solve", 1.0, 1e308, "overflows against the mass: L^-1 K L^-T, M = L L', leaves the "
                              "floating-point range; lambda / mu = 1e+308"),
    ("bvp-solve", 1e308, 1e308, "the stiffness overflows the floating-point range (mu = 1e+308, "
                                "lambda = 1e+308, (alpha1 + alpha2) mu L_c^2 = inf); lambda / mu = 1"),
    ("cosserat-limit", 1e308, 1e308, "the stiffness overflows the floating-point range (mu = 1e+308"),
])
def test_an_overflowing_stiffness_exits_2_with_no_files(tmp_path, capsys, command, mu, lam, says):
    # at lambda = 1e308 the stiffness is finite (largest entry 9.4e300 at N = 2) but its
    # pencil with the mass overflows, which coercivity refuses before its eigen-solves;
    # at mu = lambda = 1e308, mu + lambda and so the stiffness overflow, which the
    # assembly refuses.  Warnings are errors here, so an overflow warning fails the job
    material = {"mu": mu, "lambda": lam, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0}
    out = tmp_path / "o"
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2, "material": material})
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert says in capsys.readouterr().err
    assert not out.exists()


def test_stiffness_symmetry_of_an_extreme_material_does_not_overflow(tmp_path):
    # the Frobenius norms of this K overflow; those of K over its largest entry do not,
    # and K is exactly symmetric.  Warnings are errors here, so an overflow fails the job
    material = {"mu": 1e-300, "lambda": 1e300, "L_c": 0.5, "alpha1": 1.0, "alpha2": 1.0}
    out = tmp_path / "o"
    assert run("bvp-solve", _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2,
                                                         "material": material}), str(out)) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["stiffness_symmetry"]["gap"] == 0.0


@pytest.mark.parametrize("korn, passed", [(1.0, True), (1.2, True), (np.sqrt(2.0), True),
                                          (np.sqrt(2.0) * (1.0 + 2e-9), False), (1.0 - 1e-12, False),
                                          (float("nan"), False)])
def test_korn_check_bounds_the_constant_by_one_and_sqrt2(monkeypatch, korn, passed):
    def assemble(*args):
        # a private copy of the shared operators, holding the substituted constant
        system = solver.assemble(*args)
        ops = replace(system.ops)
        vars(ops)["korn"] = korn  # where the cached property keeps its value
        return replace(system, ops=ops)

    monkeypatch.setattr(cli, "assemble", assemble)
    material = MaterialParams.for_regime("gkmt", L_c=0.5)
    checks = cli.bvp_checks(0, 2, LoadData(), material, {"solver_residual": 1e-10})
    check = {c.name: c for c in checks}["korn_constant"]
    assert bool(check.passed) == passed


@pytest.mark.parametrize("n", [1, 3, 4])
def test_a_warm_bvp_job_runs_one_cholesky_lu_and_eigen_solve_per_orbit(monkeypatch, n):
    # the mass's inverse factors are held with the shared operators: a warm job's only
    # Cholesky factorizations are solve's, one of its stiffness per orbit, and it runs one
    # LU solve (every member's load a column) and one eigen-solve, coercivity's, per orbit
    material = MaterialParams.for_regime("gkmt", L_c=0.5)
    systems, calls = [], {name: [] for name in ("cholesky", "solve", "eigvalsh", "eigh")}

    def assemble(*args):
        systems.append(solver.assemble(*args))
        return systems[-1]

    def counting(name, raw):
        return lambda a, *rest: (calls[name].append(a), raw(a, *rest))[1]

    def job():
        systems.clear()
        for made in calls.values():
            made.clear()
        cli.bvp_checks(0, n, LoadData(), material, {"solver_residual": 1e-10})
        [system] = systems
        return system, {name: len(made) for name, made in calls.items()}

    monkeypatch.setattr(cli, "assemble", assemble)
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    solver._operators.cache_clear()
    # the mass's, solve's and Korn's sym grad's factors (the cold Gauss rule of the tables
    # runs an eigen-solve of its own)
    cold, counts = job()
    orbits = len(cold.ops.basis.orbits)
    assert counts["cholesky"] == 3 * orbits and counts["solve"] == orbits
    warm, counts = job()
    assert warm.ops is cold.ops
    assert counts == {"cholesky": orbits, "solve": orbits, "eigvalsh": orbits, "eigh": 0}
    assert all(a is K for a, K in zip(calls["cholesky"], warm.K))


@pytest.mark.parametrize("command, n", [("bvp-solve", 4), ("bvp-solve", 5), ("cosserat-limit", 4)])
def test_a_warm_solver_job_plans_no_contraction(tmp_path, monkeypatch, command, n):
    # the load work and the Grams run fixed BLAS contractions: a warm job never asks
    # einsum for a contraction path
    import numpy._core.einsumfunc as einsumfunc
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": n, "load": {"f_seed": 1, "g_seed": 2}})
    assert run(command, cfg, str(tmp_path / "cold")) == 0
    planned, raw = [], einsumfunc.einsum_path
    monkeypatch.setattr(einsumfunc, "einsum_path", lambda *a, **k: (planned.append(a), raw(*a, **k))[1])
    assert run(command, cfg, str(tmp_path / "warm")) == 0
    assert planned == []


@pytest.mark.parametrize("command", ["bvp-solve", "cosserat-limit"])
def test_a_solver_quadrature_order_exits_2_before_tabulating(tmp_path, monkeypatch, capsys, command):
    # the solver's Gauss order follows from N: the key is one the command does not read
    solver._operators.cache_clear()  # a cold cache: the accepted job's one tabulation is its own
    calls = []

    def counting(*args):
        calls.append(args)
        return raw(*args)

    raw = solver._tabulate
    monkeypatch.setattr(solver, "_tabulate", counting)
    order = 3 + 6  # the order the solver uses at N = 3
    cfg = {"seed": 0, "n_modes": 3, "quadrature_order": order}
    out = tmp_path / "rejected"
    assert main([command, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert "quadrature_order" in capsys.readouterr().err
    assert calls == [] and not out.exists()
    out = tmp_path / "accepted"
    assert main([command, "--config", _write(tmp_path, "c.json", {"seed": 0, "n_modes": 3}),
                 "--out", str(out)]) == 0
    assert len(calls) == 1 and out.exists()


def test_solver_csvs_do_not_depend_on_the_operator_cache(tmp_path):
    # bvp-solve and cosserat-limit at one N share the solver's cached operators: a
    # second pass writes the first pass's bytes, and so does each job on a cleared cache
    jobs = [("bvp-solve", {"seed": 0, "n_modes": 3, "load": {"f_seed": 1, "g_seed": 2}}),
            ("cosserat-limit", {"seed": 0, "n_modes": 3})]

    def csvs(tag, clear=False):
        out = []
        for command, cfg in jobs:
            if clear:
                solver._operators.cache_clear()
            d = tmp_path / f"{tag}-{command}"
            assert run(command, _write(tmp_path, "c.json", cfg), str(d)) == 0
            out.append((d / f"{command}.csv").read_bytes())
        return out

    solver._operators.cache_clear()
    first = csvs("first")
    assert csvs("second") == first
    assert csvs("cleared", clear=True) == first


def test_cosserat_limit_small(tmp_path):
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2,
                                      "mu_c_values": [10.0, 100.0, 1000.0]})
    out = tmp_path / "o"
    assert run("cosserat-limit", cfg, str(out)) == 0
    rows = (out / "cosserat-limit.csv").read_text().splitlines()
    assert rows[0] == "check,value,gap,tolerance,passed"
    assert len(rows) == 1 + 3 + 2  # per-mu_c rows + the two verdicts


def test_cosserat_limit_row_names_are_unique(tmp_path):
    # 1000.0001 reads 1000 in :g form; a name whose :g form reads back stays
    assert [cli._label(mc) for mc in (10.0, 100.0, 1000.0, 10000.0, 1e6, 1000.0001, 7)] == [
        "10", "100", "1000", "10000", "1e+06", "1000.0001", "7"]
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2,
                                      "mu_c_values": [1000.0, 1000.0001, 10000.0]})
    out = tmp_path / "o"
    assert run("cosserat-limit", cfg, str(out)) in (0, 1)
    names = [row.split(",")[0] for row in (out / "cosserat-limit.csv").read_text().splitlines()]
    assert names[1:4] == ["relative_error_mu_c_1000", "relative_error_mu_c_1000.0001",
                          "relative_error_mu_c_10000"]
    assert len(set(names)) == len(names)


def test_cosserat_limit_converges_at_large_mu_c(tmp_path):
    # the reduced form has no term that grows with mu_c, so the first-order
    # penalty error stays above round-off far into the asymptotic range
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 3,
                                      "mu_c_values": [1e8, 1e9, 1e10]})
    out = tmp_path / "o"
    assert run("cosserat-limit", cfg, str(out)) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    errors = [checks[f"relative_error_mu_c_{mc:g}"]["value"] for mc in (1e8, 1e9, 1e10)]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert abs(checks["convergence_order"]["value"] - 1.0) <= 1e-6


def test_cosserat_limit_reads_alpha1_plus_alpha2(tmp_path):
    # the Cosserat limit is the clamped problem, whose curvature is
    # (alpha1 + alpha2) mu L_c^2 G(curl curl u / 2): modified and hd share one
    # sweep, gkmt has its own, frozen at its values before alpha entered
    def csv(name, material=None):
        cfg = {"seed": 0} if material is None else {"seed": 0, "material": {
            "mu": 1.0, "lambda": 1.0, "L_c": 0.5, **material}}
        out = tmp_path / name
        assert run("cosserat-limit", _write(tmp_path, "c.json", cfg), str(out)) == 0
        return (out / "cosserat-limit.csv").read_bytes()

    modified = csv("modified", {"alpha1": 1.0, "alpha2": 0.0})
    hd = csv("hd", {"alpha1": 0.0, "alpha2": 1.0})
    gkmt = csv("gkmt")
    assert modified == hd
    assert modified != gkmt
    rows = {row.split(",")[0]: float(row.split(",")[1])
            for row in gkmt.decode().splitlines()[1:]}
    for mc, err in [("10", 1.1334458269429519), ("100", 0.15548893891422105),
                    ("1000", 0.016299218193234061), ("10000", 0.0016391799245969783)]:
        assert rows[f"relative_error_mu_c_{mc}"] == pytest.approx(err, rel=1e-12), mc


@pytest.mark.parametrize("material", [
    {"mu": 1.0, "lambda": 1.0, "L_c": 0.5, "alpha1": 0.0, "alpha2": 0.0},
    {"mu": 1.0, "lambda": 1.0, "L_c": 0.0, "alpha1": 1.0, "alpha2": 1.0},
], ids=["classical", "L_c=0"])
def test_cosserat_limit_without_curvature_energy_exits_2_before_tabulating(
        tmp_path, monkeypatch, material):
    # (alpha1 + alpha2) L_c^2 = 0: every mu_c gives the limit, so there is no
    # convergence to measure
    solver._operators.cache_clear()  # a cold cache: a tabulation would fail
    monkeypatch.setattr(solver, "_tabulate", None)
    cfg = _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2, "material": material})
    out = tmp_path / "o"
    assert run("cosserat-limit", cfg, str(out)) == 2
    assert not out.exists()


def _small_curvature(tmp_path, L_c):
    return _write(tmp_path, "c.json", {"seed": 0, "n_modes": 2, "material": {
        "mu": 1.0, "lambda": 1.0, "L_c": L_c, "alpha1": 1.0, "alpha2": 1.0}})


@pytest.mark.parametrize("L_c", [1e-4, 1e-6])
def test_cosserat_limit_with_errors_below_round_off_exits_2(tmp_path, capsys, L_c):
    # a tiny curvature modulus leaves the penalty error of some mu_c at round-off
    # (below 100 eps here), so no convergence order can be fitted to the sweep
    out = tmp_path / "o"
    assert run("cosserat-limit", _small_curvature(tmp_path, L_c), str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "the error at mu_c = " in err and f"L_c = {L_c:g}" in err


def test_cosserat_limit_with_a_small_curvature_modulus_above_round_off(tmp_path):
    out = tmp_path / "o"
    assert run("cosserat-limit", _small_curvature(tmp_path, 1e-3), str(out)) == 0
    rows = {row.split(",")[0]: float(row.split(",")[1])
            for row in (out / "cosserat-limit.csv").read_text().splitlines()[1:]}
    for mc, err in [("10", 1.7633809572011837e-10), ("100", 1.7633685872132266e-11),
                    ("1000", 1.7634962184105142e-12), ("10000", 1.7576044421635029e-13)]:
        assert rows[f"relative_error_mu_c_{mc}"] == pytest.approx(err, rel=1e-2), mc
    assert rows["convergence_order"] == pytest.approx(1.0004243582179222, abs=1e-3)


def test_conformal_demo(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "seed": 2, "points": 4,
        "material": {"mu": 1.0, "lambda": 1.0, "L_c": 1.0,
                     "alpha1": 0.0, "alpha2": 1.0},
    })
    out = tmp_path / "o"
    assert run("conformal-demo", cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "couple_stress_closed_form" in names  # m = 2 mu L_c^2 alpha2 anti(w), any regime


@pytest.mark.parametrize("regime, rows", [("gkmt", 4), ("hd", 4)])
def test_conformal_demo_reports_its_points_as_metrics(tmp_path, regime, rows):
    material = MaterialParams.for_regime(regime, L_c=0.7)
    cfg = _write(tmp_path, "c.json", {"seed": 5, "points": 7,
                                      "material": cli._jsonable(material)})
    for side in "ab":
        assert run("conformal-demo", cfg, str(tmp_path / side)) == 0
    report = (tmp_path / "a" / "report.json").read_bytes()
    assert report == (tmp_path / "b" / "report.json").read_bytes()
    points = json.loads(report)["metrics"]["points"]
    u = random_conformal(5)
    x = np.random.default_rng(6).uniform(-1.0, 1.0, (7, 3))
    M = grad_curl_from_grad2(u.grad2(x))
    assert np.array_equal(points["x"], x)
    assert np.array_equal(points["value"], u.value(x))
    assert np.array_equal(points["w_curv"], w_curv(material, M).value)
    # the points are ungated: the CSV holds only the checks
    csv_rows = (tmp_path / "a" / "conformal-demo.csv").read_text().splitlines()[1:]
    assert len(csv_rows) == rows
    assert not any(row.startswith("point_") for row in csv_rows)


def test_no_check_of_a_non_solving_command_passes_unconditionally(tmp_path):
    # residual_work_norm is inverted (it passes above 1e3 tol) but finite
    for command, cfg in _NON_SOLVER.items():
        out = tmp_path / command
        assert run(command, _write(tmp_path, f"{command}.json", {"seed": 0, **cfg}),
                   str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"], command
        for c in report["checks"]:
            assert math.isfinite(float(c["tolerance"])), (command, c["name"])
        assert (report["metrics"] == {}) == (command != "conformal-demo"), command


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_row_holds_python_floats_and_a_bool(tmp_path, monkeypatch, command):
    # _fmt writes a Python float with .17g; a numpy scalar would take str()
    rows, write = [], cli._write_outputs

    def capture(out_dir, name, job, checks, *rest):
        rows.extend(checks)
        return write(out_dir, name, job, checks, *rest)

    monkeypatch.setattr(cli, "_write_outputs", capture)
    assert run(command, _write(tmp_path, "c.json", {"seed": 0}), str(tmp_path / "o")) == 0
    assert rows
    for c in rows:
        assert [type(c.value), type(c.gap), type(c.tolerance), type(c.passed)] == [
            float, float, float, bool], c


def test_unknown_command():
    assert run("frobnicate", "nope.json") == 2


def test_main_entry_point(tmp_path, base_config):
    rc = main(["verify-kinematics", "--config", base_config,
               "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 0


#: small configs of the six commands that never solve
_NON_SOLVER = {
    "verify-operators": {"cases": 10}, "energy-report": {"cases": 10},
    "verify-kinematics": {"fields": 2, "points": 2, "fd_fields": 1},
    "bc-audit": {}, "hd-postulate": {"quadrature_order": 8}, "conformal-demo": {"points": 2},
}

_RUN_IN_FRESH_INTERPRETER = """
import json, sys
from costress.cli import main
jobs = json.loads(sys.argv[1])
codes = [main([c, "--config", cfg, "--out", out]) for c, cfg, out in jobs]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_command_imports_scipy(tmp_path):
    # the pytest process holds scipy already (the tests' oracle): the 8 commands run
    # in one fresh interpreter, from the source tree as `python -m costress` would be
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    configs = {**_NON_SOLVER, "bvp-solve": {"n_modes": 2}, "cosserat-limit": {"n_modes": 2}}
    jobs = [(c, _write(tmp_path, f"{c}.json", {"seed": 0, **cfg}), str(tmp_path / c))
            for c, cfg in configs.items()]
    assert sorted(configs) == sorted(cli._COMMANDS)
    proc = subprocess.run([sys.executable, "-c", _RUN_IN_FRESH_INTERPRETER, json.dumps(jobs)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(jobs), "scipy": []}
    report = json.loads((tmp_path / "bvp-solve" / "report.json").read_text())
    assert sorted(report["environment"]) == ["blas_threads", "numpy_version", "package_version"]


def test_report_records_the_blas_thread_count(tmp_path):
    # the README's determinism contract holds at one BLAS thread count; from N = 7
    # on the count moves last digits, never a verdict, and report.json names it
    if cli._blas_threads() == "unknown" or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs OpenBLAS and two usable cores: it caps its count at the cores")
    config = _write(tmp_path, "n8.json", {"seed": 3, "n_modes": 8})
    reports = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "costress", "bvp-solve", "--config", config,
                               "--out", str(out)], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC),
                                   "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        reports[threads] = json.loads((out / "report.json").read_text())
    assert [r["environment"]["blas_threads"] for r in reports.values()] == ["1", "2"]
    assert ([(c["name"], c["passed"]) for c in reports["1"]["checks"]]
            == [(c["name"], c["passed"]) for c in reports["2"]["checks"]])


def test_the_blas_thread_count_is_read_once_per_process(tmp_path, base_config, monkeypatch):
    # a read costs about a millisecond, a share of a small job's compute
    loads, load = [], cli.ctypes.CDLL
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda lib: loads.append(lib) or load(lib))
    cli._blas_threads.cache_clear()
    envs, counts = [], []
    for i in range(2):
        run("verify-operators", base_config, str(tmp_path / str(i)))
        envs.append(json.loads((tmp_path / str(i) / "report.json").read_text())["environment"])
        counts.append(len(loads))
    assert envs[0] == envs[1]
    assert counts[1] == counts[0]      # the second job loaded no library


@pytest.mark.parametrize("command", ["bc-audit", "hd-postulate"])
def test_the_quadrature_order_flag_is_refused(tmp_path, base_config, capsys, command):
    # no command takes a Gauss order by flag: bc-audit's follows from its fields, and
    # hd-postulate reads its order from the config alone
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", base_config, "--out", str(out), "--quadrature-order", "8"])
    assert exc.value.code == 2
    assert "--quadrature-order" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", range(3))
def test_hd_postulate_defaults_to_order_16_for_a_conformal_field(tmp_path, seed):
    # the rule 4(d + 2) with a conformal field's d = 2: the default job writes the bytes
    # of the same job at an explicit order 16, its echo included
    outs = []
    for i, cfg in enumerate(({"seed": seed}, {"seed": seed, "quadrature_order": 16})):
        outs.append(tmp_path / str(i))
        assert run("hd-postulate", _write(tmp_path, f"{i}.json", cfg), str(outs[-1])) == 0
    for name in ("hd-postulate.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert json.loads((outs[0] / "report.json").read_text())["job"]["quadrature_order"] == 16


def test_hd_postulate_orders_a_polynomial_field_by_its_degree(tmp_path):
    cfg = {"seed": 0, "field": {"family": "polynomial", "seed": 1, "degree": 5}}
    out = tmp_path / "o"
    assert run("hd-postulate", _write(tmp_path, "c.json", cfg), str(out)) == 0
    assert json.loads((out / "report.json").read_text())["job"]["quadrature_order"] == 28


def _schema_keys(schema, prefix=""):
    """Every key of a schema, nested ones as ``tolerances.<name>``."""
    keys = set()
    for key, entry in schema.items():
        if isinstance(entry, dict):
            keys |= _schema_keys(entry, f"{key}.")
        else:
            keys.add(prefix + key)
    return keys


def _readme_tables():
    """Command -> the keys listed in its README table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tables, command = {}, None
    for line in text.splitlines():
        if line.startswith("### `"):
            command = line.split("`")[1]
            tables[command] = set()
        elif command and line.startswith("| `"):
            tables[command].add(line.split("`")[1])
        elif line.startswith("## "):
            command = None
    return tables


def test_readme_tables_list_each_schema():
    assert _readme_tables() == {
        command: {"seed"} | _schema_keys(schema) for command, (_, schema) in cli._COMMANDS.items()
    }


def test_readme_material_line_names_the_keys_the_parser_reads():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys_part = text.split("\n- *material*: ", 1)[1].split(";", 1)[0]
    named = set(re.findall(r"`(\w+)`", keys_part))
    echo = cli._jsonable(MaterialParams.for_regime("gkmt"))
    # a candidate replaces the key it would alias: lam for lambda, alpha3 for alpha2
    stands_for = {"lam": "lambda", "alpha3": "alpha2"}

    def accepted(key):
        d = dict(echo)
        d[key] = d.pop(stands_for.get(key, key), 1.0)
        try:
            cli._material("gkmt")(d, {})
        except ValueError:
            return False
        return True

    fields = {f.name for f in dataclasses.fields(MaterialParams)}
    assert {k for k in named | set(echo) | fields | {"mu_c"} if accepted(k)} == named


def test_readme_python_blocks_run(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


# small valid values per key, and values that are wrong in type or range
_VALID = {
    "seed": [0, 5], "cases": [1, 3], "fields": [1, 2], "points": [1, 2], "degree": [0, 3],
    "fd_fields": [1], "n_modes": [1, 2], "quadrature_order": [4, 8],
    "mu_c_values": [[10.0, 100.0], [1.0, 2.0, 5.0]],
    "material": [{"mu": 1.0, "lambda": 1.0, "L_c": 0.5, "alpha1": 0.0, "alpha2": 1.0}],
    "field": [{"family": "polynomial", "seed": 1, "degree": 2}, {"family": "conformal", "seed": 3}],
    "delta_field": [{"family": "polynomial", "seed": 2, "degree": 1}],
    "patch": [{"type": "box_face", "which": "x-"}, {"type": "spherical_cap", "theta_max": 1.0}],
    "load": [{"f_seed": 1}, {"g_seed": 2, "g_degree": 1}],
}
_INVALID = [-3, -1, 0, 2.5, True, "3", None, [], {}, [1, "a"], float("nan"),
            {"type": "spherical_cap", "radius": -1}, {"family": "polynomial", "seed": 1}]
# sizes that keep each job small unless a drawn value replaces them
_SMALL = {"cases": 2, "fields": 1, "points": 1, "n_modes": 1, "quadrature_order": 8}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_configs_exit_0_1_2(data):
    command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
    schema = cli._COMMANDS[command][1]
    cfg = {"seed": 0, **{k: v for k, v in _SMALL.items() if k in schema}}
    for key in data.draw(st.sets(st.sampled_from(sorted({"seed", "bogus", *schema})))):
        if key == "tolerances":
            names = sorted(schema[key])
            cfg[key] = data.draw(st.dictionaries(st.sampled_from(names + ["stokes"]),
                                                 st.sampled_from([1e-3, 0, -1, "x"]),
                                                 max_size=2))
        else:
            cfg[key] = data.draw(st.sampled_from(_VALID.get(key, []) + _INVALID))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), "c.json", cfg)
        out = Path(tmp) / "o"
        code = run(command, path, str(out))
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()


def _operator_gaps_per_case(seed, cases):
    """Reference: the gaps of operator_checks, drawn and checked one case at a time."""
    rng = np.random.default_rng(seed)
    g_round = g_norm = g_rec = g_orth = g_contract = 0.0
    for _ in range(cases):
        v = rng.uniform(-1.0, 1.0, 3)
        X = rng.uniform(-1.0, 1.0, (3, 3))
        E = rng.uniform(-1.0, 1.0, (3, 3, 3))
        g_round = max(g_round, float(np.max(np.abs(axl(anti(v)) - v))))
        g_norm = max(g_norm, abs(inner(anti(v), anti(v)) - 2.0 * v @ v))
        devsym, skew, spherical = cartan_decompose(X)
        g_rec = max(g_rec, float(np.max(np.abs(devsym + skew + spherical - X))))
        g_orth = max(g_orth, abs(inner(devsym, skew)), abs(inner(devsym, spherical)),
                     abs(inner(skew, spherical)))
        loop = np.array([sum(E[i, j, k] * X[k, j] for j in range(3) for k in range(3))
                         for i in range(3)])
        g_contract = max(g_contract, float(np.max(np.abs(contract_E_X(E, X) - loop))))
    return [g_round, g_norm, g_rec, g_orth, g_contract]


def _energy_gaps_per_case(seed, cases, material):
    """Reference: the form-spread gaps of energy_checks, one case at a time, and
    the trace-free tensor drawn after the cases."""
    rng = np.random.default_rng(seed)
    g_curv = g_lin = 0.0
    for _ in range(cases):
        M = rng.uniform(-1.0, 1.0, (3, 3))
        M -= (np.trace(M) / 3.0) * np.eye(3)
        vals = np.array(list(w_curv(material, M).forms.values()))
        g_curv = max(g_curv, float((vals.max() - vals.min()) / max(1.0, np.max(np.abs(vals)))))
        lv = np.array(list(w_lin(material, rng.uniform(-1.0, 1.0, (3, 3))).forms.values()))
        g_lin = max(g_lin, float((lv.max() - lv.min()) / max(1.0, np.max(np.abs(lv)))))
    M = rng.uniform(-1.0, 1.0, (3, 3))
    M -= (np.trace(M) / 3.0) * np.eye(3)
    return [g_curv, g_lin], M


# one full block of cases and a partial one
@pytest.mark.parametrize("seed", range(5))
def test_blocked_checks_match_the_per_case_reference(seed):
    cases, tol = 1100, {"operators": 1e-12, "energy_forms": 1e-12}
    checks = cli.operator_checks(seed, cases, tol)
    ref = _operator_gaps_per_case(seed, cases)
    material = MaterialParams.for_regime("gkmt", mu=1.3, lam=0.7, L_c=0.6)
    energy = cli.energy_checks(seed, cases, material, tol)
    ref_forms, M = _energy_gaps_per_case(seed, cases, material)
    # the remaining checks see the tensor drawn after the cases: the same stream
    ref_nonneg = [float(w_curv(MaterialParams.for_regime(r, mu=1.3, lam=0.7, L_c=0.6), M))
                  for r in ("gkmt", "modified", "hd")]
    for c, g in zip(checks + energy, ref + ref_forms):
        assert abs(c.gap - g) <= 2.2e-15 and c.passed == (g <= 1e-12), c.name
        assert type(c.value) is float and type(c.gap) is float
    assert [c.value for c in energy[2:]] == ref_nonneg


def _kinematics_gaps_per_field(seed, fields, points, degree, fd_fields):
    """Reference: the gaps of kinematics_checks, one field at a time."""
    rng = np.random.default_rng(seed)
    g_curl = g_tr = g_fd = 0.0
    for i, s in enumerate(rng.integers(0, 2 ** 31, size=fields)):
        u = make_polynomial(int(s), degree)
        pts = rng.uniform(0.05, 0.95, (points, 3))
        state = kinematics(u, pts)
        g_curl = max(g_curl, float(np.max(np.abs(state.curl_u - 2.0 * state.axl_skw_grad))))
        g_tr = max(g_tr, float(np.max(np.abs(tr(state.grad_curl)))))
        if i < fd_fields:
            M_fd = grad_curl_from_grad2(fd_derivative_oracle(u, pts[0], 2))
            g_fd = max(g_fd, float(np.max(np.abs(M_fd - state.grad_curl[0]))))
    return [g_curl, g_tr, g_fd]


# (degree, points, fields, fd_fields): three blocks, the last one partial,
# every field against FD; one point per field, one block and a field more
@pytest.mark.parametrize("degree, points, fields, fd_fields",
                         [(4, 20, 2 * 9 + 5, 30), (6, 1, 99 + 1, 3)])
def test_kinematics_checks_match_the_per_field_loop(degree, points, fields, fd_fields):
    per_block = cli._BLOCK_BYTES // (8 * points * 27 * (degree + 1) ** 2)
    assert fields % per_block and fields > per_block
    tol = {"kinematics_closed": 1e-12, "kinematics_fd": 1e-8}
    for seed in range(10):
        checks = cli.kinematics_checks(seed, fields, points, degree, fd_fields, tol)
        assert [c.gap for c in checks] == _kinematics_gaps_per_field(
            seed, fields, points, degree, fd_fields), seed


def test_kinematics_checks_memory_stays_blocked():
    # unblocked, the grad2 contraction alone would hold 200 * 20 * 27 * 49
    # doubles, 42 MB; blocked it holds about 1 MB
    tol = {"kinematics_closed": 1e-12, "kinematics_fd": 1e-8}
    tracemalloc.start()
    try:
        cli.kinematics_checks(0, 200, 20, 6, 3, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
