import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import curvfun as cf
from curvfun import randpoly


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
    broken = dataclasses.replace(density, envelope=0.5)
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


def _counting_body(body):
    # the body's own oracles, with the rows each gradient and hessian call
    # receives recorded
    calls = {"gradient": [], "hessian": []}

    def gradient(U):
        calls["gradient"].append(len(U))
        return body.gradient(U)

    def hessian(U):
        calls["hessian"].append(len(U))
        return body.hessian(U)

    counted = cf.SupportBody(body.dim, body.support, gradient, hessian, body.label)
    return counted, calls


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


def test_sample_boundary_sizes_round_from_acceptance(ellipse21):
    count = 1000
    density = cf.boundary_density(ellipse21, p=1.0)
    rate = density.normalizer / (density.envelope * 2.0 * math.pi)
    _, info = cf.sample_boundary(density, count, seed=5, return_stats=True)
    assert info.accepted >= count
    assert info.proposals <= math.ceil((count + 4.0 * math.sqrt(count)) / rate)


@pytest.mark.parametrize("fixture", ["ellipse21", "pball10"])
def test_expected_deficit_matches_public_calls(request, fixture):
    # the estimator runs the public sampler and hull on [seed, N, trial]
    # streams, so a rebuild from those calls gives the same bits
    density = cf.boundary_density(request.getfixturevalue(fixture), p=1.0)
    seed, n, trials = 9, 40, 6
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


def test_interpretation_check_dim3_gate(ball3):
    with pytest.raises(ValueError, match="allow_dim3"):
        cf.interpretation_check(ball3, p=1.0)
    out = cf.interpretation_check(ball3, p=1.0, n_schedule=(8, 12, 16),
                                  trials=30, seed=2, allow_dim3=True)
    assert math.isfinite(out.extrapolated)
    assert out.target > 0.0


def test_interpretation_check_schedule_validation(ball2):
    with pytest.raises(ValueError):
        cf.interpretation_check(ball2, n_schedule=(100, 200), trials=16, seed=0)
    with pytest.raises(ValueError):
        cf.interpretation_check(ball2, n_schedule=(2, 100, 200), trials=16, seed=0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=40))
def test_hull_of_circle_points_bounded_by_disk(angles):
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    out = cf.hull_volume(pts)
    assert out.volume <= math.pi + 1e-12
    assert out.volume >= 0.0
