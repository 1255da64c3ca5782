import dataclasses
import gc
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvfun as cf
from curvfun import geometry


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


def test_polar_body_cached_on_body():
    body = cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 1.0]))
    polar = cf.polar_body(body)
    assert cf.polar_body(body) is polar
    # the limit runs on the cached polar, whose grid then serves a repeat
    cf.limit_p_zero(body, cf.WeightIndex.zero(3))
    assert ("grid", cf.default_rule(3)) in polar._cache
    # the polar, and so its grid, dies with the body
    grid = weakref.ref(cf.curvature_grid(polar))
    del body, polar
    gc.collect()
    assert grid() is None


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


_RADIUS_BODIES = {
    "disk": lambda: cf.make_ball(2),
    "ellipse21": lambda: cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0])),
    "rotated": lambda: cf.make_ellipsoid(
        2, [[2.2, -0.7], [-0.7, 0.9]]),
    "pert10": lambda: cf.make_perturbed_ball(2, mode=3, eps=0.1),
    "scaled": lambda: cf.transform(cf.make_perturbed_ball(2, mode=5, eps=0.02), 2.5),
    "rotation": lambda: cf.transform(
        cf.make_ellipsoid(2, cf.ellipsoid_matrix([3.0, 1.0])), _rotation(0.4)),
    "recenter": lambda: cf.recenter(
        cf.make_ellipsoid(2, cf.ellipsoid_matrix([1.5, 0.8], _rotation(1.1))), [0.2, -0.3]),
}


@pytest.mark.parametrize("name", sorted(_RADIUS_BODIES))
def test_radius_oracle_matches_hessian(name, rng):
    body = _RADIUS_BODIES[name]()
    theta = rng.uniform(0.0, 2 * math.pi, 4000)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    h, r = body.support_radius(U)
    # the fused oracle's h is the support oracle's, bit for bit
    assert np.array_equal(h, body.support(U))
    # curvature_arrays takes the radius from the hessian's tangential form
    _, _, radii, _, _ = cf.curvature_arrays(body, U)
    assert r.shape == (4000,)
    assert np.max(np.abs(r - radii[:, 0]) / radii[:, 0]) < 1e-14


def test_radius_oracle_only_in_the_plane(ellipsoid211, ball3, pball3d):
    for body in (ellipsoid211, ball3, pball3d):
        assert body.support_radius is None
    assert cf.from_support(lambda U: np.ones(U.shape[:-1]), 2).support_radius is None
    with pytest.raises(ValueError, match="dimension 2"):
        cf.SupportBody(3, ball3.support, ball3.gradient, ball3.hessian, "b",
                       support_radius=lambda U: (ball3.support(U), ball3.support(U)))


@pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 2), (3, 2), (7, 2), (4000, 2),
                                   (1, 1, 2), (3, 5, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_ellipse_support_matches_einsum(shape, rng):
    m = np.array([[2.2, -0.7], [-0.7, 0.9]])
    body = cf.make_ellipsoid(2, m)
    for _ in range(50):
        theta = rng.uniform(0.0, 2 * math.pi, shape[:-1])
        U = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        want = np.sqrt(np.einsum("...i,ij,...j->...", U, m, U))
        if U.size >= 6:
            assert np.array_equal(body.support(U), want)
        else:
            # einsum pairs the terms of fewer than three rows: 1 ulp apart
            assert np.allclose(body.support(U), want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 2), (3, 2), (4000, 2), (3, 5, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_ellipse_gradient_matches_einsum(shape, rng):
    m = np.array([[2.2, -0.7], [-0.7, 0.9]])
    body = cf.make_ellipsoid(2, m)
    for _ in range(50):
        theta = rng.uniform(0.0, 2 * math.pi, shape[:-1])
        U = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        # the general-dimension form: every sum has two terms either way
        mu = np.einsum("ij,...j->...i", m, U)
        h = np.sqrt(np.einsum("...i,...i->...", U, mu))
        assert np.array_equal(body.gradient(U), mu / h[..., None])


_ORACLE_BODIES = {
    "ball2": lambda: cf.make_ball(2),
    "ball3": lambda: cf.make_ball(3),
    "ellipse": lambda: cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0])),
    "ellipsoid": lambda: cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 0.5])),
    "pert2": lambda: cf.make_perturbed_ball(2, mode=3, eps=0.1),
    "pert3": lambda: cf.make_perturbed_ball(3, mode=3, eps=0.05),
    "from_support": lambda: cf.from_support(
        cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0])).support, 2),
    "scaled": lambda: cf.transform(cf.make_perturbed_ball(2, mode=3, eps=0.1), 1.3),
    "rotation": lambda: cf.transform(
        cf.make_ellipsoid(2, cf.ellipsoid_matrix([3.0, 1.0])), _rotation(0.4)),
    "rotation3": lambda: cf.transform(
        cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 0.5])),
        [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]),
    "recenter": lambda: cf.recenter(
        cf.make_ellipsoid(2, cf.ellipsoid_matrix([1.5, 0.8])), [0.2, -0.3]),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_BODIES))
def test_oracles_take_lists_and_integer_arrays(name):
    body = _ORACLE_BODIES[name]()
    rows = np.eye(body.dim, dtype=int)
    rows = np.concatenate([rows, -rows])
    oracles = [body.support, body.gradient, body.hessian]
    if body.support_radius is not None:
        oracles.append(lambda U: np.stack(body.support_radius(U)))
    for oracle in oracles:
        want = oracle(rows.astype(float))
        for U in (rows, rows.tolist()):
            assert np.array_equal(oracle(U), want)


def test_centroid_and_recenter(ball2):
    assert np.max(np.abs(cf.centroid(ball2))) < 1e-14
    c = np.array([0.1, -0.2])
    shifted = cf.recenter(ball2, c)
    assert np.max(np.abs(cf.centroid(shifted) + c)) < 1e-10
    with pytest.raises(ValueError, match="interior"):
        cf.recenter(ball2, np.array([1.5, 0.0]))


def _dim_of(d):
    # the reference dimension for a dim argument: 3 for a value equal to 3,
    # else 2, so an entry point refusing d gets oracles, nodes or a matrix
    # it could use
    return 3 if d == 3 else 2


_BALL_ORACLES = {dim: cf.make_ball(dim) for dim in (2, 3)}
_SMALL_RULES = {2: cf.circle_rule(16), 3: cf.sphere_rule(8, 16)}

# entry point: (the argument's name in the error, call with dim set to d)
_DIM_ENTRIES = {
    "SupportBody": ("dim", lambda d: cf.SupportBody(
        d, *(getattr(_BALL_ORACLES[_dim_of(d)], f) for f in ("support", "gradient", "hessian")),
        "b")),
    "SphereRule": ("dim", lambda d: cf.SphereRule(
        d, _SMALL_RULES[_dim_of(d)].nodes, _SMALL_RULES[_dim_of(d)].weights, "r")),
    "make_ball": ("dim", lambda d: cf.make_ball(d)),
    "make_ellipsoid": ("dim", lambda d: cf.make_ellipsoid(
        d, np.diag([4.0, 1.0, 2.0][:_dim_of(d)]))),
    "make_perturbed_ball": ("dim", lambda d: cf.make_perturbed_ball(d, 3, 0.05)),
    "from_support": ("dim", lambda d: cf.from_support(_BALL_ORACLES[_dim_of(d)].support, d)),
    "default_rule": ("dim", lambda d: cf.default_rule(d)),
    "parse_rule_spec": ("dim", lambda d: cf.parse_rule_spec(
        "16" if _dim_of(d) == 2 else "8x16", d)),
    "body_from_dict": ("body spec dim", lambda d: cf.body_from_dict({"dim": d, "type": "ball"})),
    "WeightIndex.zero": ("dim", lambda d: cf.WeightIndex.zero(d)),
}


@pytest.mark.parametrize("entry", sorted(_DIM_ENTRIES))
def test_every_entry_point_reads_dim_by_one_rule(entry):
    name, call = _DIM_ENTRIES[entry]
    for bad in (2.7, "2", True, 4):
        with pytest.raises(ValueError, match="^%s must be 2 or 3, got %s$"
                           % (name, re.escape(repr(bad)))):
            call(bad)
    # 2.0 and numpy integers give what the int gives, with an int dim
    for same, dim in ((2.0, 2), (np.int64(3), 3)):
        got, want = call(same), call(dim)
        if isinstance(want, cf.WeightIndex):
            assert got == want and hash(got) == hash(want)
            continue
        assert type(got.dim) is int and got.dim == dim
        if isinstance(want, cf.SphereRule):
            assert got.name == want.name
            assert got.nodes.tobytes() == want.nodes.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
        else:
            g, w = cf.curvature_grid(got), cf.curvature_grid(want)
            assert g.h.tobytes() == w.h.tobytes() and g.s.tobytes() == w.s.tobytes()


def test_transform_scaling(ellipse21):
    big = cf.transform(ellipse21, 2.0)
    assert abs(cf.body_volume(big) - 4 * cf.body_volume(ellipse21)) < 1e-8
    assert abs(cf.polar_volume(big) - cf.polar_volume(ellipse21) / 4) < 1e-8
    with pytest.raises(ValueError):
        cf.transform(ellipse21, -1.0)
    # a non-finite scale is refused by name, before any oracle warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite, got %g" % scale):
                cf.transform(ellipse21, scale)


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
        cf.curvature_grid(body)


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
        cf.curvature_grid(body)
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
    # the same ellipse given by its matrix has the same grid bits
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 2, "type": "ellipsoid", "matrix": [[4, 0], [0, 1]]}))
    for name in ("h", "s"):
        assert (getattr(cf.curvature_grid(cf.load_body(path)), name).tobytes()
                == getattr(cf.curvature_grid(body), name).tobytes())
    # a translated file keeps its own label
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"dim": 2, "type": "ball", "translate": [0.1, 0.0],
                                "label": "moved"}))
    assert cf.load_body(path).label == "moved"
    assert cf.body_from_dict({"dim": 2, "type": "ball", "translate": [0.1, 0.0],
                              "label": "moved"}).label == "moved"


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
        cf.curvature_grid(bad, rule=cf.circle_rule(64))
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


def test_curvature_grid_holds_h_and_s(ellipse21, ellipsoid211, pball3d):
    assert [f.name for f in dataclasses.fields(cf.CurvatureGrid)] == ["h", "s"]
    # the grid's arrays are curvature_arrays' at the rule's nodes, bit for bit
    for body in (ellipse21, ellipsoid211, pball3d):
        rule = cf.default_rule(body.dim)
        grid = cf.curvature_grid(body, rule)
        h, _, _, s, _ = cf.curvature_arrays(body, rule.nodes)
        assert grid.h.tobytes() == h.tobytes()
        assert grid.s.tobytes() == s.tobytes()
    # 8192 nodes of the 64x128 rule: h and s_0..s_2 as float64
    assert grid.h.nbytes + grid.s.nbytes == 8192 * 4 * 8


def _nan_support_body(dim):
    # a unit ball's oracles with support values that are all NaN
    ball = cf.make_ball(dim)
    return cf.SupportBody(dim, lambda U: np.full(np.shape(U)[:-1], math.nan),
                          ball.gradient, ball.hessian, "nan%d" % dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_nan_support_fails_the_positivity_test(dim):
    body = _nan_support_body(dim)
    nodes = cf.default_rule(dim).nodes
    # one test, so one message from every gate
    messages = []
    for gate in (cf.curvature_grid, lambda b: cf.curvature_arrays(b, nodes)):
        with pytest.raises(cf.ConvexityError, match="support function nan <= 0") as info:
            gate(body)
        messages.append(str(info.value))
    assert messages == [messages[0]] * 2
    assert messages[0].endswith("; origin not interior")
    assert body._cache == {}
    # recenter validates through the grid, so it raises the same error
    with pytest.raises(cf.ConvexityError, match="support function nan <= 0") as info:
        cf.recenter(body, np.zeros(dim))
    assert str(info.value).endswith("; origin not interior")


def test_nan_radius_fails_the_positivity_test():
    ball = cf.make_ball(2)
    body = cf.SupportBody(2, ball.support, ball.gradient,
                          lambda U: math.nan * ball.hessian(U), "nan-hessian")
    with pytest.raises(cf.ConvexityError, match="eigenvalue nan"):
        cf.curvature_grid(body)


@pytest.mark.parametrize("build, message", [
    (lambda: cf.make_ball(3, math.nan), "ball radius must be positive and finite, got nan"),
    (lambda: cf.make_ball(2, math.inf), "ball radius must be positive and finite, got inf"),
    (lambda: cf.make_perturbed_ball(2, 3, math.nan),
     "eps must be nonnegative and finite, got nan"),
    (lambda: cf.make_perturbed_ball(3, 3, math.inf),
     "eps must be nonnegative and finite, got inf"),
    (lambda: cf.ellipsoid_matrix([1.0, math.nan, 2.0]),
     "semi-axes must be positive and finite"),
    (lambda: cf.make_ellipsoid(2, [[math.inf, 0.0], [0.0, 1.0]]),
     "ellipsoid matrix must be finite"),
], ids=["ball-nan", "ball-inf", "pert2-nan", "pert3-inf", "semi-axes-nan", "matrix-inf"])
def test_constructors_refuse_non_finite_parameters(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cf.BodyConstructionError, match=message):
            build()


def test_curvature_cache_dies_with_body():
    body = cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 1.0]))
    z = cf.WeightIndex.zero(3)
    cf.asa(body, 1.0)
    cf.kl_divergence(body, z, "PQ")
    cf.hellinger(body, z, 0.5)
    cf.body_volume(body)
    cf.polar_volume(body)
    grid = weakref.ref(cf.curvature_grid(body))
    logs = [weakref.ref(a) for a in body._cache[("logs", cf.default_rule(3))]]
    assert grid() is not None and all(ref() is not None for ref in logs)
    del body
    gc.collect()
    assert grid() is None
    assert all(ref() is None for ref in logs)


def _fresh_ellipsoid(dim):
    return cf.make_ellipsoid(dim, cf.ellipsoid_matrix([2.0, 1.0, 1.0][:dim]))


@pytest.mark.parametrize("dim", [2, 3])
def test_volumes_cached_with_fresh_bits(dim):
    body = _fresh_ellipsoid(dim)
    rule = cf.default_rule(dim)
    doubled = cf.SphereRule(dim, rule.nodes, 2.0 * rule.weights, rule.name)
    for volume in (cf.body_volume, cf.polar_volume):
        first = volume(body)
        assert volume(body).hex() == first.hex()
        assert volume(body, rule).hex() == first.hex()
        assert volume(_fresh_ellipsoid(dim)).hex() == first.hex()
        # another rule is another entry
        assert volume(body, doubled) == 2.0 * first
    entries = {key: v for key, v in body._cache.items()
               if key[0] in ("volume", "polar_volume")}
    assert set(entries) == {(kind, r) for kind in ("volume", "polar_volume")
                            for r in (rule, doubled)}
    assert all(type(v) is float for v in entries.values())


def test_volume_of_non_convex_body_stores_nothing():
    def h(U):
        U = np.asarray(U, dtype=float)
        return 1.0 + 0.3 * np.cos(3 * np.arctan2(U[..., 1], U[..., 0]))

    body = cf.from_support(h, 2, label="wavy")
    for _ in range(2):
        for volume in (cf.body_volume, cf.polar_volume):
            with pytest.raises(cf.ConvexityError):
                volume(body)
    assert body._cache == {}


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


_LENGTHS = [1, 2, 3, 7, 8, 100, 8192]


@pytest.mark.parametrize("nodes", _LENGTHS + ["64x128", "16x32"])
def test_tangent_frames_match_cross(nodes, rng):
    # the frames are np.cross and np.linalg.norm written out: same bits
    if isinstance(nodes, str):
        U = cf.parse_rule_spec(nodes, 3).nodes
    else:
        U = rng.standard_normal((nodes, 3))
        U /= np.linalg.norm(U, axis=1)[:, None]
    ref = np.where((np.abs(U[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    t1 = np.cross(ref, U)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(U, t1)
    f1, f2 = geometry._tangent_frames(U)
    assert np.stack(f1, axis=1).tobytes() == t1.tobytes()
    assert np.stack(f2, axis=1).tobytes() == t2.tobytes()


def _einsum_forms(hess, t1, t2):
    t1, t2 = np.stack(t1, axis=1), np.stack(t2, axis=1)
    return [np.einsum("li,lij,lj->l", a, hess, b) for a, b in ((t1, t1), (t1, t2), (t2, t2))]


@pytest.mark.parametrize("length", _LENGTHS)
def test_tangential_forms_match_einsum_on_random_stacks(length, rng):
    for _ in range(5):
        hess = rng.standard_normal((length, 3, 3))
        t1, t2 = tuple(rng.standard_normal((3, length))), tuple(rng.standard_normal((3, length)))
        forms = geometry._tangential_forms(hess, t1, t2)
        for got, want in zip(forms, _einsum_forms(hess, t1, t2)):
            assert got.tobytes() == want.tobytes()


def test_curvature_core_matches_einsum_on_default_rule():
    c, s = math.cos(0.7), math.sin(0.7)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    bodies = [cf.make_ball(3), _fresh_ellipsoid(3),
              cf.make_ellipsoid(3, cf.ellipsoid_matrix([3.0, 1.0, 0.5], q)),
              cf.make_perturbed_ball(3, mode=3, eps=0.05)]
    U = cf.default_rule(3).nodes
    frames = geometry._tangent_frames(U)
    for body in bodies:
        hess = body.hessian(U)
        b11, b12, b22 = _einsum_forms(hess, *frames)
        forms = geometry._tangential_forms(hess, *frames)
        assert [f.tobytes() for f in forms] == [f.tobytes() for f in (b11, b12, b22)]
        # the radii and s as whole-array expressions of the einsum forms
        mean = 0.5 * (b11 + b22)
        disc = np.sqrt(np.maximum(0.25 * (b11 - b22) ** 2 + b12 * b12, 0.0))
        _, radii, s = geometry._curvature_core(body, U)
        assert radii.tobytes() == np.stack([mean - disc, mean + disc], axis=1).tobytes()
        want = np.stack([np.ones_like(mean), mean, b11 * b22 - b12 * b12], axis=1)
        assert s.tobytes() == want.tobytes()


def _spec_files(tmp_path):
    specs = {
        "disk": {"dim": 2, "type": "ball", "radius": 1.5},
        "ellipse": {"dim": 2, "type": "ellipsoid", "semi_axes": [2.0, 1.0]},
        "pdisk": {"dim": 2, "type": "perturbed_ball", "mode": 3, "epsilon": 0.05},
        "ball": {"dim": 3, "type": "ball"},
        "ellipsoid": {"dim": 3, "type": "ellipsoid", "semi_axes": [2.0, 1.0, 1.0]},
        "shifted": {"dim": 3, "type": "ellipsoid", "semi_axes": [2.0, 1.0, 1.0],
                    "translate": [0.1, 0.0, -0.2]},
    }
    for name, spec in specs.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(spec))
    return specs


def test_validated_load_keeps_the_default_grid(tmp_path):
    for name, spec in _spec_files(tmp_path).items():
        rule = cf.default_rule(spec["dim"])
        body = cf.load_body(tmp_path / (name + ".json"))
        grid = body._cache[("grid", rule)]
        assert cf.curvature_grid(body) is grid
        assert not grid.h.flags.writeable and not grid.s.flags.writeable
        # the bits of curvature_arrays on the rule's nodes
        h, _, _, s, _ = cf.curvature_arrays(body, rule.nodes)
        assert grid.h.tobytes() == h.tobytes()
        assert grid.s.tobytes() == s.tobytes()


def test_no_grid_kept_without_a_passing_check():
    def h(U):
        U = np.asarray(U, dtype=float)
        return 1.0 + 0.3 * np.cos(3 * np.arctan2(U[..., 1], U[..., 0]))

    wavy = cf.from_support(h, 2, label="wavy")
    with pytest.raises(cf.ConvexityError):
        cf.curvature_grid(wavy)
    assert wavy._cache == {}


def test_check_then_integral_evaluates_the_hessian_once():
    base = _fresh_ellipsoid(3)
    calls = []

    def hessian(U):
        calls.append(len(U))
        return base.hessian(U)

    body = cf.SupportBody(3, base.support, base.gradient, hessian, "counted")
    cf.curvature_grid(body)
    cf.asa(body, 1.0)
    assert calls == [len(cf.default_rule(3).nodes)]


@pytest.mark.parametrize("dim", [2, 3])
def test_perturbed_ball_keeps_its_validating_grid(dim):
    body = cf.make_perturbed_ball(dim, mode=3, eps=0.05)
    rule = cf.default_rule(dim)
    assert set(body._cache) == {("grid", rule)}
    grid = body._cache[("grid", rule)]
    h, _, _, s, _ = cf.curvature_arrays(body, rule.nodes)
    assert grid.h.tobytes() == h.tobytes()
    assert grid.s.tobytes() == s.tobytes()


@pytest.mark.parametrize("spec, cores", [
    ({"dim": 2, "type": "perturbed_ball", "mode": 3, "epsilon": 0.05}, 1),
    ({"dim": 3, "type": "perturbed_ball", "mode": 3, "epsilon": 0.05}, 1),
    ({"dim": 3, "type": "ellipsoid", "semi_axes": [2.0, 1.0, 1.0]}, 1),
    # recenter wraps the validated ball, so the shifted body builds its own
    ({"dim": 2, "type": "perturbed_ball", "mode": 5, "epsilon": 0.02,
      "translate": [0.1, -0.2]}, 2),
], ids=["pdisk", "pball3", "ellipsoid", "translated-pdisk"])
def test_load_then_integral_computes_the_core(tmp_path, monkeypatch, spec, cores):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(spec))
    calls = []
    core = geometry._curvature_core

    def counted(body, U):
        calls.append(len(U))
        return core(body, U)

    monkeypatch.setattr(geometry, "_curvature_core", counted)
    cf.asa(cf.load_body(path), 1.0)
    assert calls == [len(cf.default_rule(spec["dim"]).nodes)] * cores


@pytest.mark.parametrize("spec", [
    {"dim": 3, "type": "perturbed_ball", "epsilon": 0.05, "translate": [0.1, 0, 0]},
    {"dim": 2, "type": "perturbed_ball", "mode": 5, "epsilon": 0.02, "translate": [0.1, -0.2]},
], ids=["pball3", "pdisk5"])
def test_translated_body_keeps_only_its_own_grid(spec):
    body = cf.body_from_dict(spec)
    rule = cf.default_rule(spec["dim"])
    # body.support converts its input, then calls the shifted oracle
    (oracle,) = [cell.cell_contents for cell in body.support.__closure__]
    inner = [cell.cell_contents for cell in oracle.__closure__
             if isinstance(cell.cell_contents, cf.SupportBody)]
    assert len(inner) == 1 and inner[0] is not body
    # the unshifted ball validated itself, but only the shifted grid is read
    assert inner[0]._cache == {}
    assert set(body._cache) == {("grid", rule)}


def test_body_spec_dim_may_be_a_whole_float():
    # 2.0 is the number 2, as a mode of 3.0 is 3 (2.7 and "2" are refused:
    # see test_cli.test_non_finite_body_file_exits_2)
    body = cf.body_from_dict({"dim": 2.0, "type": "perturbed_ball", "mode": 3.0,
                              "epsilon": 0.05, "label": "pdisk"})
    assert (body.dim, type(body.dim), body.label) == (2, int, "pdisk")
