import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import curvfun as cf
from curvfun import randpoly
from curvfun._extrap import neville_to_zero, neville_weights


def test_limit_constant_values():
    # closed forms: (n-1)^((n+1)/(n-1)) Gamma(n+1+2/(n-1)) / (2 (n+1)! bdry^(2/(n-1)))
    assert abs(cf.random_polytope_constant(2) - 0.5) < 1e-14
    assert abs(cf.random_polytope_constant(3) - 1.0 / math.pi) < 1e-14
    # the closed form is meaningful for every n >= 2
    assert cf.random_polytope_constant(4) > 0.0
    with pytest.raises(ValueError):
        cf.random_polytope_constant(1)


def test_boundary_density_on_ball(ball2, ball3):
    d2 = cf.boundary_density(ball2, p=1.0)
    assert np.max(np.abs(d2.values - 1.0)) < 1e-12
    assert abs(d2.normalizer - 2 * math.pi) < 1e-12
    assert abs(d2.envelope - 1.5) < 1e-12
    d3 = cf.boundary_density(ball3, p=1.0)
    assert np.max(np.abs(d3.values - 1.0)) < 1e-10
    assert abs(d3.normalizer - 4 * math.pi) < 1e-10


def test_boundary_density_validation(ball2, ball3):
    with pytest.raises(ValueError, match="finite"):
        cf.boundary_density(ball2, p=math.inf)
    with pytest.raises(ValueError, match="safety"):
        cf.boundary_density(ball2, safety=1.0)
    with pytest.raises(ValueError):
        cf.boundary_density(ball3, index=cf.WeightIndex.zero(2))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_density_functional_identity(ellipse21, ellipsoid211, pball05, p):
    for body in (ellipse21, ellipsoid211, pball05):
        for index in (cf.WeightIndex.zero(body.dim),):
            density = cf.boundary_density(body, index=index, p=p)
            check = cf.density_functional_identity(density)
            assert check.rel_error < 1e-12
            want = cf.weighted_asa(body, index, p).value
            assert abs(check.rhs - want) / want < 1e-12


def test_density_identity_weighted_index(ellipse21):
    index = cf.WeightIndex(2, 1.0, (2,))
    density = cf.boundary_density(ellipse21, index=index, p=2.0)
    check = cf.density_functional_identity(density)
    assert check.rel_error < 1e-12


def test_sample_boundary_uniform_on_disk(ball2):
    density = cf.boundary_density(ball2, p=1.0)
    points, info = cf.sample_boundary(density, 4096, seed=3, return_stats=True)
    assert points.shape == (4096, 2)
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(points.mean(axis=0))) < 4.0 / math.sqrt(4096)
    # constant density: acceptance rate is 1/safety in expectation; the
    # stats describe the whole batch, so accepted can exceed the request
    assert abs(info.acceptance_rate - 2.0 / 3.0) < 0.03
    assert info.accepted >= 4096
    assert info.proposals >= info.accepted


def test_sample_boundary_deterministic(ball2, ellipse21):
    for body in (ball2, ellipse21):
        density = cf.boundary_density(body, p=1.0)
        a = cf.sample_boundary(density, 257, seed=11)
        b = cf.sample_boundary(density, 257, seed=11)
        assert np.array_equal(a, b)
        c = cf.sample_boundary(density, 257, seed=12)
        assert not np.array_equal(a, c)
        with pytest.raises(ValueError, match="count must be >= 1"):
            cf.sample_boundary(density, 0)


def test_sample_boundary_sphere_latitude_law(ball3):
    # uniform boundary sampling on the unit sphere: the polar angle has
    # CDF (1 - cos phi)/2
    density = cf.boundary_density(ball3, p=1.0)
    points = cf.sample_boundary(density, 20000, seed=7)
    phi = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    res = stats.kstest(phi, lambda x: 0.5 * (1.0 - np.cos(x)))
    assert res.pvalue > 0.01


def test_envelope_violation_detected(ball2):
    density = cf.boundary_density(ball2, p=1.0)
    broken = dataclasses.replace(density, safety=0.5)
    with pytest.raises(cf.EnvelopeError, match="u="):
        cf.sample_boundary(broken, 64, seed=0)


def test_envelope_violation_from_coarse_rule():
    # nine equally spaced angles never see the mode-3 crest, so a tight
    # safety factor underestimates the true supremum of the density
    body = cf.make_perturbed_ball(2, mode=3, eps=0.1)
    density = cf.boundary_density(body, p=1.0, rule=cf.circle_rule(9), safety=1.05)
    with pytest.raises(cf.EnvelopeError):
        cf.sample_boundary(density, 200, seed=0)
    # the default rule resolves the crest and the same draw succeeds
    fine = cf.boundary_density(body, p=1.0, safety=1.05)
    points = cf.sample_boundary(fine, 200, seed=0)
    assert points.shape == (200, 2)


def _counting_body(body, support_radius=None):
    # the body's own oracles, with the rows each call receives recorded;
    # support_radius, if given, is counted and passed on as the fused oracle
    calls = {"support": [], "gradient": [], "hessian": [], "support_radius": []}

    def support(U):
        calls["support"].append(len(U))
        return body.support(U)

    def gradient(U):
        calls["gradient"].append(len(U))
        return body.gradient(U)

    def hessian(U):
        calls["hessian"].append(len(U))
        return body.hessian(U)

    def pair(U):
        calls["support_radius"].append(len(U))
        return support_radius(U)

    counted = cf.SupportBody(body.dim, support, gradient, hessian, body.label,
                             support_radius=support_radius and pair)
    return counted, calls


def test_cold_curvature_grid_skips_gradient(ellipse21, ellipsoid211):
    # grids hold no boundary points, so building one never asks for them
    for base in (ellipse21, ellipsoid211):
        body, calls = _counting_body(base)
        cf.curvature_grid(body)
        assert calls["gradient"] == []
        assert calls["hessian"] == [len(cf.default_rule(base.dim).nodes)]


@pytest.mark.parametrize("count", [1, 1000, 70000])
def test_sample_boundary_maps_only_accepted_rows(ellipse21, count):
    body, calls = _counting_body(ellipse21)
    density = cf.boundary_density(body, p=1.0)
    calls["gradient"].clear()
    calls["hessian"].clear()
    _, info = cf.sample_boundary(density, count, seed=4, return_stats=True)
    # boundary points are computed for accepted proposals only, and no
    # round evaluates more rows than the budget
    assert sum(calls["gradient"]) == info.accepted
    assert sum(calls["hessian"]) == info.proposals
    assert max(calls["hessian"]) <= randpoly._ROUND_ROWS
    assert max(calls["gradient"]) <= randpoly._ROUND_ROWS
    if count == 70000:
        assert len(calls["hessian"]) > 1


def test_sample_boundary_with_radius_oracle_skips_hessian(ellipse21):
    body, calls = _counting_body(ellipse21, support_radius=ellipse21.support_radius)
    density = cf.boundary_density(body, p=1.0)
    # the tabulated density comes from the hessian, the target does not
    assert sum(calls["hessian"]) == 512
    calls["hessian"].clear()
    calls["gradient"].clear()
    points, info = cf.sample_boundary(density, 70000, seed=4, return_stats=True)
    assert calls["hessian"] == []
    assert sum(calls["gradient"]) == info.accepted
    assert max(calls["gradient"]) <= randpoly._ROUND_ROWS
    # the hessian's target accepts the same proposals on this stream
    hessian_only, _ = _counting_body(ellipse21)
    plain = cf.boundary_density(hessian_only, p=1.0)
    assert np.array_equal(points, cf.sample_boundary(plain, 70000, seed=4))


@pytest.mark.parametrize("fixture", ["ball2", "ellipse21", "pball10"])
def test_sampler_round_calls_fused_oracle_once(request, fixture):
    base = request.getfixturevalue(fixture)
    body, calls = _counting_body(base, support_radius=base.support_radius)
    density = cf.boundary_density(body, p=1.0)
    for rows in calls.values():
        rows.clear()
    _, info = cf.sample_boundary(density, 1000, seed=4, return_stats=True)
    # one round: the fused oracle sees every proposal in one call, and the
    # target asks neither support nor hessian
    assert calls["support_radius"] == [info.proposals]
    assert calls["support"] == []
    assert calls["hessian"] == []
    assert sum(calls["gradient"]) == info.accepted


def test_sample_boundary_from_support_uses_hessian():
    m = np.diag([4.0, 1.0])
    fd = cf.from_support(
        lambda U: np.sqrt(np.einsum("...i,ij,...j->...", U, m, U)), 2)
    body, calls = _counting_body(fd)
    density = cf.boundary_density(body, p=1.0)
    calls["hessian"].clear()
    points, info = cf.sample_boundary(density, 500, seed=6, return_stats=True)
    assert sum(calls["hessian"]) == info.proposals
    # the points lie on the ellipse x^2/4 + y^2 = 1
    on_curve = points[:, 0] ** 2 / 4.0 + points[:, 1] ** 2
    assert np.max(np.abs(on_curve - 1.0)) < 1e-6


def test_sample_boundary_sizes_round_from_acceptance(ellipse21):
    count = 1000
    density = cf.boundary_density(ellipse21, p=1.0)
    # the rate the sampler sizes rounds from: Z over the envelope's mass
    rate = density.normalizer / density._mass
    _, info = cf.sample_boundary(density, count, seed=5, return_stats=True)
    assert info.accepted >= count
    assert info.proposals <= math.ceil((count + 4.0 * math.sqrt(count)) / rate)


@pytest.mark.parametrize("fixture", ["ellipse21", "pball10"])
def test_planar_sampling_law(request, fixture):
    # the sampled normal angles follow the target density: KS test of the
    # points' polar angles against the CDF of target tabulated on a fine
    # grid of normal angles (trapezoid cumulative sum), carried to polar
    # angles by the boundary map u -> x(u), which keeps the order
    body = request.getfixturevalue(fixture)
    density = cf.boundary_density(body, p=1.0)
    points, info = cf.sample_boundary(density, 20000, seed=17, return_stats=True)
    assert points.shape == (20000, 2)
    grid = np.linspace(0.0, 2.0 * math.pi, (1 << 16) + 1)
    U = np.stack([np.cos(grid), np.sin(grid)], axis=1)
    f = density.target(U)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    x = np.asarray(body.gradient(U))
    phi = np.unwrap(np.arctan2(x[:, 1], x[:, 0]))
    psi = phi[0] + np.mod(np.arctan2(points[:, 1], points[:, 0]) - phi[0], 2.0 * math.pi)
    res = stats.kstest(psi, lambda v: np.interp(v, phi, cdf))
    assert res.pvalue > 0.01
    # the arc envelope accepts about 1/safety of the proposals; one global
    # bound accepted 1/3 on the ellipse and 0.43 on the perturbed disk
    assert info.acceptance_rate >= 0.6


def _shuffled(rule, seed):
    perm = np.random.default_rng(seed).permutation(len(rule))
    return cf.SphereRule(rule.dim, rule.nodes[perm], rule.weights[perm], rule.name)


def test_sample_boundary_ignores_rule_node_order(ellipse21, pball10):
    # arcs are built from the sorted node angles, and qhull triangulates the
    # nodes in lexicographic order, so a rule holding the same nodes and
    # weights in another order samples the same points
    rule = cf.circle_rule(512)
    for body in (ellipse21, pball10):
        want = cf.sample_boundary(cf.boundary_density(body, p=1.0, rule=rule), 3000, seed=8)
        got = cf.sample_boundary(cf.boundary_density(body, p=1.0, rule=_shuffled(rule, 3)),
                                 3000, seed=8)
        assert np.array_equal(got, want)
    rule = cf.sphere_rule(16, 32)
    body = cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 1.0]))
    want = cf.sample_boundary(cf.boundary_density(body, p=1.0, rule=rule), 2000, seed=8)
    got = cf.sample_boundary(cf.boundary_density(body, p=1.0, rule=_shuffled(rule, 3)),
                             2000, seed=8)
    assert np.array_equal(got, want)


def _arc_rule(angles):
    # a planar rule on the given node angles; the weights play no part in
    # the arcs
    nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return cf.SphereRule(2, nodes, np.full(len(angles), 2.0 * math.pi / len(angles)),
                         str(len(angles)))


def test_boundary_density_index_must_be_weight_index(ball2):
    # the check every entry point shares, made before index.dim is read
    with pytest.raises(TypeError, match="index must be a WeightIndex"):
        cf.boundary_density(ball2, index=(0, 0.0, (0,)), p=1.0)


def test_planar_rule_gap_of_pi_refused(ball2):
    # eight nodes over a quarter turn leave a gap of 3 pi / 2, which no
    # chord spans
    rule = _arc_rule(np.linspace(0.0, 0.5 * math.pi, 8))
    with pytest.raises(ValueError, match=r"gap of 4\.71239 rad"):
        cf.boundary_density(ball2, p=1.0, rule=rule)


def test_chord_hat_on_coarse_rule(ball2):
    # four arcs of pi / 2: |p|^2 on a chord falls to 0.5 at its midpoint, so
    # a hat not exactly proportional to |p|^2 skews the angles.  The disk's
    # density is constant; the hat's mass is 2 height tan(pi / 4) an arc
    rule = _arc_rule(0.5 * math.pi * np.arange(4))
    density = cf.boundary_density(ball2, p=1.0, rule=rule)
    # on the unit disk a point's polar angle is its normal angle
    points, info = cf.sample_boundary(density, 20000, seed=21, return_stats=True)
    theta = np.arctan2(points[:, 1], points[:, 0])
    res = stats.kstest(np.mod(theta, 2.0 * math.pi), stats.uniform(0.0, 2.0 * math.pi).cdf)
    assert res.pvalue > 0.01
    want = (2.0 / 3.0) * (0.5 * math.pi) / (2.0 * math.tan(0.25 * math.pi))
    assert abs(info.acceptance_rate - want) < 0.02


@pytest.fixture(scope="module")
def ellipsoid315():
    return cf.make_ellipsoid(3, cf.ellipsoid_matrix([3.0, 1.0, 0.5]))


@pytest.mark.parametrize("spec", ["64x128", "8x16"])
def test_spatial_sampling_law(ellipsoid211, spec):
    # the sampled normals follow the target density: the 2:1:1 ellipsoid's
    # target depends on u only through c = u . e_1, whose law is 2 pi
    # target(c) dc / Z; KS test of c against that CDF tabulated on a fine
    # grid.  The coarse rule's triangles are wide, so proposals not uniform
    # on them would skew the law
    rule = cf.parse_rule_spec(spec, 3)
    density = cf.boundary_density(ellipsoid211, p=1.0, rule=rule)
    points = cf.sample_boundary(density, 20000, seed=17)
    # x = M u / h(u) on the ellipsoid, so u is M^-1 x normalized
    u = points / np.array([4.0, 1.0, 1.0])
    c = u[:, 0] / np.linalg.norm(u, axis=1)
    grid = np.linspace(-1.0, 1.0, (1 << 14) + 1)
    f = density.target(np.stack([grid, np.sqrt(1.0 - grid * grid), 0.0 * grid], axis=1))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))])
    fine = cf.boundary_density(ellipsoid211, p=1.0)
    assert 2.0 * math.pi * cdf[-1] == pytest.approx(fine.normalizer, rel=1e-6)
    cdf /= cdf[-1]
    res = stats.kstest(c, lambda x: np.interp(x, grid, cdf))
    assert res.pvalue > 0.01


@pytest.mark.parametrize("fixture", ["ellipsoid211", "ellipsoid315"])
def test_spatial_acceptance(request, fixture):
    # the triangle hat accepts 0.63 on the 2:1:1 ellipsoid and 0.56 on the
    # 3:1:0.5 one, where one global bound accepted 0.34 and 0.056
    density = cf.boundary_density(request.getfixturevalue(fixture), p=1.0)
    _, info = cf.sample_boundary(density, 20000, seed=0, return_stats=True)
    assert density.normalizer / density._mass >= 0.55
    assert info.acceptance_rate >= 0.55


def test_spatial_hat_sees_polar_cap(ellipsoid315):
    # each polar cap of the 16x32 rule is one coplanar 32-gon with every
    # node on its rim, fanned into thin triangles: the one over the pole
    # and its neighbours see rim values of about 7.8, far below the
    # target's 14.7 at the pole, which only the facet normal's sample sees
    rule = cf.sphere_rule(16, 32)
    density = cf.boundary_density(ellipsoid315, p=1.0, rule=rule)
    points = cf.sample_boundary(density, 200000, seed=0)
    assert points.shape == (200000, 3)


def test_triangle_hat_on_coarse_rule(ball3):
    # the octahedron's eight faces lie at distance 1 / sqrt(3): |p|^3 on a
    # face falls to 0.19 at its centre, so a hat not exactly proportional
    # to |p|^3 skews the law.  The ball's density is constant, so z is
    # uniform on [-1, 1]; the hat's mass is height area / d^2 a face
    nodes = np.concatenate([np.eye(3), -np.eye(3)])
    rule = cf.SphereRule(3, nodes, np.full(6, 4.0 * math.pi / 6.0), "octahedron")
    density = cf.boundary_density(ball3, p=1.0, rule=rule)
    points, info = cf.sample_boundary(density, 20000, seed=21, return_stats=True)
    res = stats.kstest(points[:, 2], stats.uniform(-1.0, 2.0).cdf)
    assert res.pvalue > 0.01
    want = (2.0 / 3.0) * (4.0 * math.pi) / (8.0 * (math.sqrt(3.0) / 2.0) * 3.0)
    assert abs(info.acceptance_rate - want) < 0.02


def test_spatial_rule_must_surround_origin(ball3):
    # the upper half of a product rule: the face across its lowest ring
    # faces the origin from outside
    rule = cf.sphere_rule(16, 32)
    upper = rule.nodes[:, 2] > 0.0
    half = cf.SphereRule(3, rule.nodes[upper], rule.weights[upper], "16x32-upper")
    with pytest.raises(ValueError, match="does not surround the origin"):
        cf.boundary_density(ball3, p=1.0, rule=half)


def test_boundary_density_kept_on_body():
    body = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0]))
    density = cf.boundary_density(body, p=1.0)
    assert cf.boundary_density(body, p=1.0) is density
    assert cf.boundary_density(body, p=1.0, rule=cf.default_rule(2), safety=1.5) is density
    other = cf.boundary_density(body, p=1.0, safety=2.0)
    assert other is not density
    assert other.envelope == pytest.approx(density.envelope * 2.0 / 1.5, rel=1e-15)
    # a replaced safety rebuilds the arcs from the new fields
    wider = dataclasses.replace(density, safety=2.0 * density.safety)
    assert wider._mass == pytest.approx(2.0 * density._mass, rel=1e-15)
    assert np.allclose(wider._cells[0][4], 2.0 * density._cells[0][4], rtol=1e-15, atol=0.0)
    # the densities die with the body, though each refers back to it
    ref = weakref.ref(body)
    del body, density, other, wider
    gc.collect()
    assert ref() is None


def test_envelope_is_safety_times_peak(ellipse21, ellipsoid211):
    # safety is the density's one scale; envelope is read from it
    names = [f.name for f in dataclasses.fields(cf.BoundaryDensity)]
    assert "envelope" not in names and len(names) == 8
    for body in (ellipse21, ellipsoid211):
        density = cf.boundary_density(body, p=1.0, safety=1.7)
        assert density.envelope == density.safety * np.max(density.sphere_values)
        with pytest.raises(TypeError):
            dataclasses.replace(density, envelope=2.0)
    _, info = cf.sample_boundary(density, 10, seed=0, return_stats=True)
    assert info._fields == ("accepted", "proposals", "acceptance_rate")


@pytest.fixture(scope="module")
def rotated_recentered_ellipse():
    c, s = math.cos(0.9), math.sin(0.9)
    body = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 0.7], [[c, -s], [s, c]]))
    return cf.recenter(body, [0.3, -0.1])


@pytest.mark.parametrize("fixture, n", [
    pytest.param("ellipse21", 40, id="ellipse21"),
    pytest.param("pball10", 40, id="pball10"),
    pytest.param("ball2", 1000, id="ball2-1000"),
    pytest.param("rotated_recentered_ellipse", 1000, id="rotated-recentered-1000"),
])
def test_expected_deficit_matches_public_calls(request, fixture, n):
    # the estimator's trials are the public calls on [seed, N, trial]
    # streams, so a rebuild from them gives the same bits
    density = cf.boundary_density(request.getfixturevalue(fixture), p=1.0)
    seed, trials = 9, 6
    est = cf.expected_deficit(density, n, trials=trials, seed=(seed, n))
    vol = cf.body_volume(density.body, density.rule)
    deficits = [
        vol - cf.hull_volume(cf.sample_boundary(
            density, n, seed=np.random.default_rng([seed, n, t]))).volume
        for t in range(trials)]
    assert est.mean == math.fsum(deficits) / trials


def test_hull_volume_2d():
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    out = cf.hull_volume(square)
    assert not out.degenerate
    assert abs(out.volume - 4.0) < 1e-14
    theta = 2 * math.pi * np.arange(5) / 5
    pentagon = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    out = cf.hull_volume(pentagon)
    assert abs(out.volume - 2.3776412907378837) < 1e-13
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    out = cf.hull_volume(collinear)
    assert out.degenerate and out.volume == 0.0
    out = cf.hull_volume(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert out.degenerate


@pytest.mark.parametrize("n", [3, 50, 4000])
def test_hull_volume_2d_matches_fsum_shoelace(n):
    # points off an ellipse, ordered by angle about their mean: the area is
    # the shoelace sum rounded as math.fsum rounds it, bit for bit
    rng = np.random.default_rng(n)
    theta = rng.uniform(0.0, 2 * math.pi, n)
    pts = np.stack([3.0 * np.cos(theta), 0.5 * np.sin(theta)], axis=1) + [1e3, -7.0]
    c = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]), kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    cross = xs * np.roll(ys, -1) - np.roll(xs, -1) * ys
    expected = 0.5 * abs(math.fsum(cross.tolist()))
    assert cf.hull_volume(pts).volume.hex() == expected.hex()
    # the interior point and the vertex the cyclic order starts at move
    # with the row order; the correctly rounded area does not
    for other in (pts[rng.permutation(n)], np.roll(pts, n // 3 + 1, axis=0)):
        assert cf.hull_volume(other).volume.hex() == expected.hex()


def test_hull_volume_3d():
    simplex = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    out = cf.hull_volume(simplex)
    assert not out.degenerate
    assert abs(out.volume - 1.0 / 6.0) < 1e-14
    coplanar = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    out = cf.hull_volume(coplanar)
    assert out.degenerate and out.volume == 0.0


def test_hull_volume_validation():
    with pytest.raises(ValueError):
        cf.hull_volume(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        cf.hull_volume(np.zeros(8))


def test_expected_deficit(ball2):
    density = cf.boundary_density(ball2, p=1.0)
    est = cf.expected_deficit(density, 64, trials=200, seed=1)
    assert 0.0 < est.mean < math.pi
    assert est.stderr > 0.0
    assert est.scaled_mean == pytest.approx(64.0 ** 2 * est.mean)
    again = cf.expected_deficit(density, 64, trials=200, seed=1)
    assert est == again
    bigger = cf.expected_deficit(density, 128, trials=200, seed=1)
    assert bigger.mean < est.mean
    more_trials = cf.expected_deficit(density, 64, trials=800, seed=1)
    assert more_trials.stderr < est.stderr
    with pytest.raises(ValueError):
        cf.expected_deficit(density, 64, trials=1)


def test_interpretation_check_disk(ball2):
    out = cf.interpretation_check(ball2, p=1.0, n_schedule=(100, 200, 400),
                                  trials=300, seed=5)
    assert abs(out.target - 4 * math.pi ** 3) < 1e-9
    assert out.rel_error < 0.1
    assert out.constant == pytest.approx(0.5)
    assert len(out.estimates) == 3


def test_extrapolated_stderr_from_neville_weights(ball2):
    # criterion 9's schedule in the plane, x = N^-2: weights 0.0222, -0.444
    # and 1.422, a noise gain of about 1.49
    w = neville_weights([nn ** -2.0 for nn in (1000, 2000, 4000)])
    assert w == pytest.approx([1 / 45, -4 / 9, 64 / 45], rel=1e-12)
    out = cf.interpretation_check(ball2, p=1.0, n_schedule=(100, 200, 400),
                                  trials=50, seed=5)
    w = neville_weights([nn ** -2.0 for nn in out.n_schedule])
    ests = out.estimates
    # the weights reproduce the Neville value and carry the error bars
    assert out.extrapolated == pytest.approx(
        sum(wi * e.scaled_mean for wi, e in zip(w, ests)), rel=1e-12)
    assert out.extrapolated_stderr == pytest.approx(
        math.sqrt(sum((wi * e.scaled_stderr) ** 2 for wi, e in zip(w, ests))), rel=1e-12)


def test_interpretation_check_dim3_gate(ball3):
    with pytest.raises(ValueError, match="allow_dim3"):
        cf.interpretation_check(ball3, p=1.0)
    out = cf.interpretation_check(ball3, p=1.0, n_schedule=(8, 12, 16),
                                  trials=30, seed=2, allow_dim3=True)
    assert math.isfinite(out.extrapolated)
    assert out.target > 0.0


def test_interpretation_check_schedule_validation(ball2):
    with pytest.raises(ValueError, match="at least 3"):
        cf.interpretation_check(ball2, n_schedule=(100, 200), trials=16, seed=0)
    with pytest.raises(ValueError):
        cf.interpretation_check(ball2, n_schedule=(2, 100, 200), trials=16, seed=0)
    # sizes are read as integers, so 100.5 repeats 100
    for sched in ((100, 200, 100), (100, 100.5, 200)):
        with pytest.raises(ValueError, match="distinct"):
            cf.interpretation_check(ball2, n_schedule=sched, trials=16, seed=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite, got %r" % bad):
            cf.interpretation_check(ball2, n_schedule=(100, 200, bad), trials=16, seed=0)
    # the Neville tableau behind it takes the same rule on its steps
    with pytest.raises(ValueError, match="at least 2"):
        neville_to_zero([0.1], [1.0])
    with pytest.raises(ValueError, match="distinct"):
        neville_to_zero([0.1, 0.1, 0.2], [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite, got nan"):
        neville_to_zero([0.1, math.nan], [1.0, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        neville_to_zero([0.1, 0.2, 0.3], [1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=40))
def test_hull_of_circle_points_bounded_by_disk(angles):
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    out = cf.hull_volume(pts)
    assert out.volume <= math.pi + 1e-12
    assert out.volume >= 0.0
