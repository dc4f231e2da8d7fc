import numpy as np
import pytest

from costress.boundary import boundary_work_identity
from costress.constitutive import MaterialParams
from costress.fields import make_polynomial
from costress.surfaces import (
    BoxFace,
    SphericalCap,
    SurfacePatch,
    _gauss,
    _leggauss,
    stokes_flux_check,
    surface_divergence_check,
)
from oracles import PointwiseField, chart_gradient


@pytest.fixture
def hemisphere():
    return SphericalCap(center=np.zeros(3), radius=1.0, axis=(0.0, 0.0, 1.0),
                        theta_max=np.pi / 2.0)


@pytest.fixture
def face():
    return BoxFace.unit_cube_face("z+")


def test_face_geometry(face):
    assert np.allclose(face.frame(0.3, 0.7).x, [0.3, 0.7, 1.0])
    assert np.allclose(face.frame(0.5, 0.5).n, [0.0, 0.0, 1.0])
    # quadrature integrates the area exactly
    _, w, _ = face.quadrature(4)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)


def test_unit_cube_faces_outward():
    for which, n in [("x+", [1, 0, 0]), ("x-", [-1, 0, 0]), ("y+", [0, 1, 0]),
                     ("y-", [0, -1, 0]), ("z+", [0, 0, 1]), ("z-", [0, 0, -1])]:
        f = BoxFace.unit_cube_face(which)
        assert np.allclose(f.frame(0.5, 0.5).n, n), which


@pytest.mark.parametrize("which", ["z*", "z", "z+ ", "+z", "w+", ""])
def test_unit_cube_face_names_checked(which):
    with pytest.raises(ValueError, match="unknown unit cube face"):
        BoxFace.unit_cube_face(which)


@pytest.mark.parametrize("kwargs", [
    {"radius": -1.0}, {"radius": 0.0}, {"radius": np.inf}, {"radius": np.nan},
    {"theta_max": 0.0}, {"theta_max": -0.5}, {"theta_max": np.pi + 1e-9}, {"theta_max": np.nan},
    {"axis": (0.0, 0.0, 0.0)}, {"axis": (np.nan, 0.0, 1.0)}, {"axis": (np.inf, 0.0, 1.0)},
    {"axis": (0.0, 1.0)}, {"center": (0.0, 0.0)}, {"center": (np.nan, 0.0, 0.0)},
], ids=repr)
def test_spherical_cap_arguments_checked(kwargs):
    with pytest.raises(ValueError):
        SphericalCap(**kwargs)


def test_spherical_cap_accepts_the_full_sphere():
    cap = SphericalCap(radius=2.0, theta_max=np.pi, axis=(0.0, 3.0, 0.0))
    assert np.allclose(cap.e3, [0.0, 1.0, 0.0])
    _, w, _ = cap.quadrature(16)
    assert np.sum(w) == pytest.approx(16.0 * np.pi, rel=1e-12)


def test_hemisphere_geometry(hemisphere):
    fr = hemisphere.frame(np.pi / 4, 0.0)
    assert np.linalg.norm(fr.x) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(fr.n, fr.x, atol=1e-14)  # radially outward
    _, w, _ = hemisphere.quadrature(16)
    assert np.sum(w) == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_frames_batch_matches_pointwise(hemisphere, face):
    # a stacked batch of chart points equals the per-point calls
    for patch in (hemisphere, face):
        (S, T), _, _ = patch.quadrature(4)
        fb = patch.frame(S, T)
        assert fb.x.shape == fb.n.shape == (16, 3)
        assert fb.tangents.shape == fb.dn.shape == fb.dual.shape == (16, 2, 3)
        for i, (s, t) in enumerate(zip(S, T)):
            fr = patch.frame(float(s), float(t))
            assert fr.x.shape == fr.n.shape == (3,)
            assert fr.tangents.shape == fr.dn.shape == fr.dual.shape == (2, 3)
            assert np.allclose(fb.x[i], fr.x, atol=1e-14)
            assert np.allclose(fb.tangents[i], fr.tangents, atol=1e-14)
            assert np.allclose(fb.n[i], fr.n, atol=1e-14)
            assert np.allclose(fb.dual[i], fr.dual, atol=1e-10)
            # dual tangents: x^a . x_b = delta_ab
            assert np.allclose(fr.dual @ np.swapaxes(fr.tangents, -1, -2), np.eye(2),
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("patch", [
    SphericalCap(), SphericalCap(radius=2.0, theta_max=1.0, axis=(1.0, 1.0, 0.0)),
    BoxFace.unit_cube_face("z+"), BoxFace.unit_cube_face("x-"),
], ids=["hemisphere", "off_axis_cap", "face_z+", "face_x-"])
def test_normal_derivatives_match_the_fd_stencil(patch):
    # the chart's closed-form tangents and normal derivatives, (36, 3, 2)
    # like the chart gradient of x and n
    (S, T), _, fr = patch.quadrature(6)
    closed = np.swapaxes(fr.dn, -1, -2)
    assert closed.shape == (36, 3, 2)
    fd = chart_gradient(patch, lambda s, t: patch.frame(s, t).n, S, T)
    assert np.allclose(closed, fd, rtol=0.0, atol=1e-9)
    fd = chart_gradient(patch, lambda s, t: patch.frame(s, t).x, S, T)
    assert np.allclose(np.swapaxes(fr.tangents, -1, -2), fd, rtol=0.0, atol=1e-9)
    # a scalar chart pair is a batch of one
    one = patch.frame(float(S[7]), float(T[7]))
    assert np.array_equal(np.swapaxes(one.dn, -1, -2), closed[7])
    assert np.array_equal(one.tangents, fr.tangents[7])


def test_conormal_is_tangent_and_outward(hemisphere, face):
    cap = SphericalCap(radius=2.0, theta_max=1.0, axis=(1.0, 1.0, 0.0))
    # an interior point of each patch: the face centre, the caps' poles
    pole = lambda c: c.center + c.radius * c.e3
    for patch, inside in ((face, face.frame(0.5, 0.5).x), (hemisphere, pole(hemisphere)),
                          (cap, pole(cap))):
        for side in patch.edge_sides:
            _, fr, nu = patch.edge_quadrature(side, 5)
            edge = fr.tangents[..., 1 if side in ("smin", "smax") else 0, :]
            assert np.allclose(np.linalg.norm(nu, axis=-1), 1.0, rtol=0.0, atol=1e-14)
            assert np.max(np.abs(np.sum(nu * fr.n, axis=-1))) <= 1e-14
            assert np.max(np.abs(np.sum(nu * edge, axis=-1))
                          / np.linalg.norm(edge, axis=-1)) <= 1e-14
            # outward: away from the interior point
            assert np.all(np.sum(nu * (fr.x - inside), axis=-1) > 0.0)
    # at the equator of the upper hemisphere the conormal points down
    _, _, nu = hemisphere.edge_quadrature("smax", 5)
    assert np.allclose(nu, [0.0, 0.0, -1.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("patch", [
    SphericalCap(), SphericalCap(radius=2.0, theta_max=1.0, axis=(1.0, 1.0, 0.0)),
    BoxFace.unit_cube_face("z+"),
], ids=["hemisphere", "off_axis_cap", "face_z+"])
def test_edge_rules_read_every_chart_tangent_from_their_frame(patch, monkeypatch):
    # the frame of an edge rule is the patch frame at its nodes
    (s0, s1), (t0, t1) = patch.s_range, patch.t_range
    s_nodes, t_nodes = _gauss(5, s0, s1)[0], _gauss(5, t0, t1)[0]
    nodes = {"smin": (np.full(5, s0), t_nodes), "smax": (np.full(5, s1), t_nodes),
             "tmin": (s_nodes, np.full(5, t0)), "tmax": (s_nodes, np.full(5, t1))}
    for side in patch.edge_sides:
        _, fr, _ = patch.edge_quadrature(side, 5)
        ref = patch.frame(*nodes[side])
        for name in ("x", "tangents", "n", "dn", "jac", "dual"):
            assert np.array_equal(getattr(fr, name), getattr(ref, name)), (side, name)

    # and the checks that integrate along edges evaluate the chart map
    # only inside a frame, once per frame build
    depth, calls = [0], {"frames": 0, "inside": 0, "outside": 0}
    build, chart = SurfacePatch.frame, type(patch).chart

    def frame(self, s, t):
        calls["frames"] += 1
        depth[0] += 1
        try:
            return build(self, s, t)
        finally:
            depth[0] -= 1

    def counted_chart(self, s, t):
        calls["inside" if depth[0] else "outside"] += 1
        return chart(self, s, t)

    monkeypatch.setattr(SurfacePatch, "frame", frame)
    monkeypatch.setattr(type(patch), "chart", counted_chart)
    p = MaterialParams.for_regime("gkmt", L_c=0.5)
    u = make_polynomial(0, 3)
    for run in (lambda: boundary_work_identity(p, u, make_polynomial(1, 3), patch, 8),
                lambda: surface_divergence_check(u, patch, 8),
                lambda: stokes_flux_check(u, patch, 8)):
        calls.update(frames=0, inside=0, outside=0)
        run()
        assert calls["outside"] == 0 and calls["inside"] == calls["frames"] > 0


def test_stokes_rigid_rotation(hemisphere, face):
    # u = (-y, x, 0): curl = (0, 0, 2); hemisphere flux = 2 pi, face flux = 2
    class Rot:
        def value(self, x):
            x = np.asarray(x)
            return np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1])], axis=-1)

        def grad(self, x):
            return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    flux, circ, gap = stokes_flux_check(Rot(), hemisphere, order=8)
    assert flux == pytest.approx(2.0 * np.pi, abs=1e-10)
    assert gap <= 1e-10
    flux, circ, gap = stokes_flux_check(Rot(), face, order=8)
    assert flux == pytest.approx(2.0, abs=1e-12)
    assert gap <= 1e-12


def test_stokes_polynomial(hemisphere):
    u = make_polynomial(3, 3)
    flux, circ, gap = stokes_flux_check(u, hemisphere, order=16)
    assert gap <= 1e-6


def test_surface_divergence_theorem(hemisphere, face):
    u = make_polynomial(41, 4)
    for patch in (hemisphere, face):
        gaps = [surface_divergence_check(u, patch, order=o)[2]
                for o in (4, 8, 16)]
        assert gaps[2] <= 1e-6
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12
    # the floor at order 32: the closed-form div_S leaves only quadrature
    # error and round-off (measured 1.7e-14, 5.2e-14 and 5.2e-16 over these
    # cubic fields)
    cap = SphericalCap(radius=2.0, theta_max=1.0, axis=(1.0, 1.0, 0.0))
    for patch, floor in ((hemisphere, 2e-13), (cap, 2e-13), (face, 1e-14)):
        gaps = [surface_divergence_check(make_polynomial(seed, 3), patch, order=32)[2]
                for seed in range(20)]
        assert max(gaps) <= floor


def test_surface_divergence_trivial_cases(face, hemisphere):
    # constant tangential field on a flat face: zero divergence, and the
    # edge integral telescopes
    v = PointwiseField(lambda x: np.array([1.0, 0.0, 0.0]))
    lhs, rhs, gap = surface_divergence_check(v, face, order=4)
    assert abs(lhs) <= 1e-12 and gap <= 1e-12
    # purely normal field on the cap: tangential part vanishes
    vn = PointwiseField(lambda x: x / np.linalg.norm(x))
    lhs, rhs, gap = surface_divergence_check(vn, hemisphere, order=8)
    assert gap <= 1e-9


def test_edge_quadrature_lengths(face, hemisphere):
    total = sum(np.sum(face.edge_quadrature(side, 8)[0]) for side in face.edge_sides)
    assert total == pytest.approx(4.0, abs=1e-13)   # unit square perimeter
    rim = np.sum(hemisphere.edge_quadrature("smax", 16)[0])
    assert rim == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_unknown_edge_side_raises(face):
    with pytest.raises(ValueError):
        face.edge_quadrature("rim", 4)


def test_the_cached_gauss_rule_is_read_only_and_its_scaled_copies_are_fresh():
    nodes, weights = _leggauss(5)
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    x, w = _gauss(5, 0.0, 1.0)
    x[0] = w[0] = -1.0
    assert np.array_equal(_gauss(5, 0.0, 1.0)[0], 0.5 + 0.5 * nodes)
