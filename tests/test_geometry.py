import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvfun as cf


def test_ball_curvature_data(ball2, ball3, rule2, rule3):
    for body, rule in ((ball2, rule2), (ball3, rule3)):
        h, x, radii, s, H = cf.curvature_arrays(body, rule.nodes)
        assert np.max(np.abs(h - 1.0)) < 1e-12
        assert np.max(np.abs(x - rule.nodes)) < 1e-12
        assert np.max(np.abs(radii - 1.0)) < 1e-12
        assert np.max(np.abs(s - 1.0)) < 1e-12
        assert np.max(np.abs(H - 1.0)) < 1e-12


def test_normalized_symmetric_function_layout(ellipsoid211, rule3):
    h, x, radii, s, H = cf.curvature_arrays(ellipsoid211, rule3.nodes)
    assert s.shape == (len(rule3), 3)
    assert np.all(s[:, 0] == 1.0)
    mean = 0.5 * (radii[:, 0] + radii[:, 1])
    assert np.max(np.abs(s[:, 1] - mean)) < 1e-10
    prod = radii[:, 0] * radii[:, 1]
    assert np.max(np.abs(s[:, 2] - prod)) < 1e-10


def test_duality_between_s_and_H(corpus2, ellipsoid211, pball3d, rule2, rule3):
    # H_j * s_top = s_{n-1-j}, exactly as arrays are constructed
    for body in corpus2:
        h, x, radii, s, H = cf.curvature_arrays(body, rule2.nodes)
        top = s[:, -1]
        assert np.max(np.abs(H * top[:, None] - s[:, ::-1])) < 1e-12
    for body in (ellipsoid211, pball3d):
        h, x, radii, s, H = cf.curvature_arrays(body, rule3.nodes)
        top = s[:, -1]
        assert np.max(np.abs(H * top[:, None] - s[:, ::-1] * np.ones_like(H))) < 1e-10


def test_euler_relations(ellipse21, ellipsoid211, pball05):
    for body in (ellipse21, ellipsoid211, pball05):
        rule = cf.default_rule(body.dim)
        U = rule.nodes[::37]
        h = body.support(U)
        grad = body.gradient(U)
        hess = body.hessian(U)
        assert np.max(np.abs(np.sum(grad * U, axis=1) - h)) < 1e-10
        assert np.max(np.abs(np.einsum("nij,nj->ni", hess, U))) < 1e-10


def test_ellipse_principal_radius():
    body = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0]))
    pt = cf.curvature_at(body, np.array([1.0, 0.0]))
    # at the end of the long axis the curvature is a/b^2 = 2, radius 1/2
    assert abs(pt.radii[0] - 0.5) < 1e-12
    pt = cf.curvature_at(body, np.array([0.0, 1.0]))
    assert abs(pt.radii[0] - 4.0) < 1e-12


def test_ellipsoid_gauss_curvature(ellipsoid211):
    pt = cf.curvature_at(ellipsoid211, np.array([1.0, 0.0, 0.0]))
    # radii at the tip of the long axis are b^2/a = c^2/a = 1/2
    assert np.max(np.abs(np.sort(pt.radii) - 0.5)) < 1e-10
    # s_top is the product of the radii, H_top its reciprocal a^2/(b^2 c^2)
    assert abs(pt.s[-1] - 0.25) < 1e-10
    assert abs(pt.H[-1] - 4.0) < 1e-10
    assert abs(pt.x[0] - 2.0) < 1e-10


def test_curvature_at_rejects_non_unit():
    body = cf.make_ball(2)
    with pytest.raises(ValueError, match="unit vector"):
        cf.curvature_at(body, np.array([1.0, 1.0]))


def _fd_hessian_column(body, U, axis, step):
    # second differences of the 1-homogeneous extension, which normalizes
    # internally (the analytic gradient/hessian callables are only a contract
    # on the unit sphere itself)
    dim = body.dim
    e = np.zeros(dim)
    e[axis] = step
    cols = []
    for j in range(dim):
        ej = np.zeros(dim)
        ej[j] = step
        v = (cf.support_extension(body, U + e + ej)
             - cf.support_extension(body, U + e - ej)
             - cf.support_extension(body, U - e + ej)
             + cf.support_extension(body, U - e - ej)) / (4 * step * step)
        cols.append(v)
    return np.stack(cols, axis=1)


def test_gradient_hessian_match_finite_differences(ellipse21, ellipsoid211, pball05, pball3d):
    step = 1e-4
    for body in (ellipse21, ellipsoid211, pball05, pball3d):
        rule = cf.default_rule(body.dim)
        U = rule.nodes[:: max(1, len(rule) // 7)]
        grad = body.gradient(U)
        hess = body.hessian(U)
        for axis in range(body.dim):
            e = np.zeros(body.dim)
            e[axis] = step
            up = cf.support_extension(body, U + e)
            dn = cf.support_extension(body, U - e)
            fd_grad = (up - dn) / (2 * step)
            denom = np.maximum(np.abs(grad[:, axis]), 1.0)
            assert np.max(np.abs(fd_grad - grad[:, axis]) / denom) < 1e-6
            coarse = _fd_hessian_column(body, U, axis, 2e-3)
            fine = _fd_hessian_column(body, U, axis, 1e-3)
            fd_hess = (4.0 * fine - coarse) / 3.0
            denom = np.maximum(np.abs(hess[:, axis, :]), 1.0)
            assert np.max(np.abs(fd_hess - hess[:, axis, :]) / denom) < 1e-6


def test_support_extension_is_one_homogeneous(ellipse21):
    U = cf.default_rule(2).nodes[::41]
    base = cf.support_extension(ellipse21, U)
    scaled = cf.support_extension(ellipse21, 2.5 * U)
    assert np.max(np.abs(scaled - 2.5 * base)) < 1e-12


def test_volumes(ball2, ball3, ellipse21, ellipsoid211):
    assert abs(cf.body_volume(ball2) - math.pi) < 1e-12
    assert abs(cf.body_volume(ball3) - 4 * math.pi / 3) < 1e-10
    assert abs(cf.body_volume(ellipse21) - 2 * math.pi) < 1e-10
    assert abs(cf.body_volume(ellipsoid211) - 8 * math.pi / 3) < 1e-8


def test_polar_volume(ball2, ellipse21, ellipsoid211):
    assert abs(cf.polar_volume(ball2) - math.pi) < 1e-12
    assert abs(cf.polar_volume(ellipse21) - math.pi / 2) < 1e-10
    assert abs(cf.polar_volume(ellipsoid211) - 2 * math.pi / 3) < 1e-8


def test_polar_body_volume_agreement(ellipse21):
    polar = cf.polar_body(ellipse21)
    assert abs(cf.body_volume(polar) - cf.polar_volume(ellipse21)) < 1e-10


def test_polar_body_unavailable(pball05):
    with pytest.raises(ValueError, match="polar"):
        cf.polar_body(pball05)


def test_centroid_and_recenter(ball2):
    assert np.max(np.abs(cf.centroid(ball2))) < 1e-14
    c = np.array([0.1, -0.2])
    shifted = cf.recenter(ball2, c)
    assert np.max(np.abs(cf.centroid(shifted) + c)) < 1e-10
    with pytest.raises(ValueError, match="interior"):
        cf.recenter(ball2, np.array([1.5, 0.0]))


def test_transform_scaling(ellipse21):
    big = cf.transform(ellipse21, 2.0)
    assert abs(cf.body_volume(big) - 4 * cf.body_volume(ellipse21)) < 1e-8
    assert abs(cf.polar_volume(big) - cf.polar_volume(ellipse21) / 4) < 1e-8
    with pytest.raises(ValueError):
        cf.transform(ellipse21, -1.0)


def test_transform_rotation(ellipse21, rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = cf.transform(ellipse21, q)
    assert abs(cf.body_volume(rotated) - cf.body_volume(ellipse21)) < 1e-9
    with pytest.raises(ValueError, match="orthogonal"):
        cf.transform(ellipse21, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_perturbed_ball_limits():
    flat = cf.make_perturbed_ball(2, mode=3, eps=0.0)
    rule = cf.default_rule(2)
    h, x, radii, s, H = cf.curvature_arrays(flat, rule.nodes)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    with pytest.raises(cf.BodyConstructionError, match="0.125"):
        cf.make_perturbed_ball(2, mode=3, eps=0.2)
    with pytest.raises(cf.BodyConstructionError):
        cf.make_perturbed_ball(2, mode=2, eps=0.05)
    with pytest.raises(cf.BodyConstructionError):
        cf.make_perturbed_ball(3, mode=99, eps=0.01)


def test_perturbed_ball_convexity_check(pball05, pball3d):
    for body in (pball05, pball3d):
        cf.check_c2plus(body)


def test_from_support_matches_analytic(ellipse21):
    M = cf.ellipsoid_matrix([2.0, 1.0])

    def h(U):
        U = np.asarray(U, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", U, M, U))

    fd = cf.from_support(h, 2)
    U = cf.default_rule(2).nodes[::23]
    ha, xa, ra, sa, Ha = cf.curvature_arrays(ellipse21, U)
    hf, xf, rf, sf, Hf = cf.curvature_arrays(fd, U)
    assert np.max(np.abs(ha - hf)) < 1e-10
    # curvature from double finite differencing loses accuracy; this path is
    # for experiments, not verification
    assert np.max(np.abs(ra - rf) / np.abs(ra)) < 1e-3


def test_petty_ratio_constancy(ellipse21, ellipsoid211, pball05):
    for body in (ellipse21, ellipsoid211):
        stats = cf.petty_ratio_stats(body)
        assert stats.spread < 1e-9
    stats = cf.petty_ratio_stats(pball05)
    assert stats.spread > 0.1


def test_body_from_dict_round_trip(tmp_path):
    specs = [
        {"dim": 2, "type": "ball", "radius": 1.5},
        {"dim": 2, "type": "ellipsoid", "semi_axes": [2.0, 1.0]},
        {"dim": 3, "type": "ellipsoid", "semi_axes": [2.0, 1.0, 1.0]},
        {"dim": 2, "type": "perturbed_ball", "mode": 3, "epsilon": 0.05},
        {"dim": 2, "type": "ball", "translate": [0.1, 0.0]},
    ]
    for spec in specs:
        body = cf.body_from_dict(spec)
        assert body.dim == spec["dim"]
        cf.check_c2plus(body)
    with pytest.raises(ValueError, match="unknown body spec keys"):
        cf.body_from_dict({"dim": 2, "type": "ball", "wobble": 1})
    with pytest.raises(ValueError, match="missing required key"):
        cf.body_from_dict({"dim": 2})
    with pytest.raises(ValueError, match="unknown body type"):
        cf.body_from_dict({"dim": 2, "type": "torus"})

    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"dim": 2, "type": "ellipsoid", "semi_axes": [2, 1]}))
    body = cf.load_body(path)
    assert body.label == "ellipse"
    assert abs(cf.body_volume(body) - 2 * math.pi) < 1e-10


def test_load_body_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        cf.load_body(path)


def test_convexity_error_reports_direction():
    def h(U):
        U = np.asarray(U, dtype=float)
        theta = np.arctan2(U[..., 1], U[..., 0])
        return 1.0 + 0.3 * np.cos(3 * theta)

    bad = cf.from_support(h, 2, label="wavy")
    with pytest.raises(cf.ConvexityError, match="wavy"):
        cf.curvature_arrays(bad, cf.circle_rule(64).nodes)
    with pytest.raises(cf.ConvexityError):
        cf.check_c2plus(bad, rule=cf.circle_rule(64))
    # the same construction stays convex at a small amplitude
    disk = cf.make_perturbed_ball(2, mode=3, eps=0.12)
    _, _, radii, _, _ = cf.curvature_arrays(disk, cf.circle_rule(64).nodes)
    assert radii.min() > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_zero_radius_raises_without_warning(dim):
    # a zero hessian: every radius is 0, so the duality division hits 0/0;
    # the positivity test must report it, not a numpy RuntimeWarning
    def support(U):
        return np.ones(np.shape(U)[:-1])

    def hessian(U):
        return np.zeros(np.shape(U) + (dim,))

    flat = cf.SupportBody(dim, support, lambda U: np.asarray(U, dtype=float),
                          hessian, "flat%d" % dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cf.ConvexityError, match="tangential hessian eigenvalue"):
            cf.check_c2plus(flat)
        with pytest.raises(cf.ConvexityError, match="tangential hessian eigenvalue"):
            cf.curvature_grid(flat)


def test_curvature_grid_caching(ball2, rule2):
    g1 = cf.curvature_grid(ball2, rule2)
    g2 = cf.curvature_grid(ball2, rule2)
    assert g1 is g2
    assert not g1.h.flags.writeable
    assert np.max(np.abs(g1.s_top - 1.0)) < 1e-12
    # calls without a rule hit the same entry
    assert cf.curvature_grid(ball2) is cf.curvature_grid(ball2)
    # rules are keys by identity: a rule with the same name but other
    # weights gets its own entries and values
    doubled = cf.SphereRule(2, rule2.nodes, 2.0 * rule2.weights, rule2.name)
    assert cf.curvature_grid(ball2, doubled) is not g1
    assert cf.asa(ball2, 1.0, doubled).value == 2.0 * cf.asa(ball2, 1.0, rule2).value


def test_curvature_cache_dies_with_body():
    body = cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 1.0]))
    cf.asa(body, 1.0)
    grid = weakref.ref(cf.curvature_grid(body))
    assert grid() is not None
    del body
    gc.collect()
    assert grid() is None


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.5, 3.0),
    b=st.floats(0.5, 3.0),
    angle=st.floats(0.0, math.pi),
)
def test_ellipse_volume_formula(a, b, angle):
    q = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    M = cf.ellipsoid_matrix([a, b], rotation=q)
    body = cf.make_ellipsoid(2, M)
    assert abs(cf.body_volume(body) - math.pi * a * b) < 1e-8 * max(1.0, a * b)
