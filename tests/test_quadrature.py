import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvfun as cf


def test_circle_rule_weight_sum():
    rule = cf.circle_rule(64)
    assert abs(math.fsum(rule.weights.tolist()) - 2 * math.pi) < 1e-12


def test_sphere_rule_weight_sum():
    rule = cf.sphere_rule(24, 48)
    assert abs(math.fsum(rule.weights.tolist()) - 4 * math.pi) < 1e-12


@pytest.mark.parametrize("n_nodes", [2, 4, 7])
def test_circle_rule_rejects_tiny_grids(n_nodes):
    with pytest.raises(ValueError):
        cf.circle_rule(n_nodes)


def test_nodes_are_unit_vectors():
    for rule in (cf.circle_rule(128), cf.sphere_rule(16, 32)):
        norms = np.linalg.norm(rule.nodes, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_circle_cos_squared():
    rule = cf.circle_rule(64)
    val = cf.integrate(rule, lambda u: u[:, 0] ** 2)
    assert abs(val - math.pi) < 1e-12


def test_sphere_third_coordinate_squared():
    rule = cf.sphere_rule(32, 64)
    val = cf.integrate(rule, lambda u: u[:, 2] ** 2)
    assert abs(val - 4 * math.pi / 3) < 1e-12


def test_ellipse_perimeter_matches_elliptic_integral():
    # 4*a*E(1 - b^2/a^2) for semi-axes (2, 1), evaluated once with
    # scipy.special.ellipe and frozen here.
    oracle = 9.688448220547675
    body = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0]))
    rule = cf.circle_rule(4096)
    h, x, radii, s, H = cf.curvature_arrays(body, rule.nodes)
    perimeter = cf.integrate(rule, radii[:, 0])
    assert abs(perimeter - oracle) / oracle < 1e-12


def test_refinement_plateau():
    body = cf.make_perturbed_ball(2, mode=3, eps=0.05)
    vals = []
    for n in (512, 1024, 2048):
        rule = cf.circle_rule(n)
        h, x, radii, s, H = cf.curvature_arrays(body, rule.nodes)
        vals.append(cf.integrate(rule, h * radii[:, 0]) / 2.0)
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-14
    assert abs(vals[2] - vals[1]) / abs(vals[2]) < 1e-10


def test_integrate_rejects_bad_shapes():
    rule = cf.circle_rule(16)
    with pytest.raises(ValueError):
        cf.integrate(rule, np.ones(17))
    with pytest.raises(ValueError):
        cf.integrate(rule, np.ones((16, 2)))


def test_integrate_reports_nonfinite_node():
    rule = cf.circle_rule(16)
    vals = np.ones(16)
    vals[5] = np.nan
    with pytest.raises(ValueError, match="node 5"):
        cf.integrate(rule, vals)


def test_integrate_accepts_callable():
    rule = cf.circle_rule(32)
    assert abs(cf.integrate(rule, lambda u: np.ones(len(u))) - 2 * math.pi) < 1e-12


def test_parse_rule_spec():
    r2 = cf.parse_rule_spec("256", 2)
    assert r2.dim == 2 and len(r2.weights) == 256
    r3 = cf.parse_rule_spec("24x48", 3)
    assert r3.dim == 3 and len(r3.weights) == 24 * 48
    with pytest.raises(ValueError):
        cf.parse_rule_spec("24x48", 2)
    with pytest.raises(ValueError):
        cf.parse_rule_spec("256", 3)
    with pytest.raises(ValueError):
        cf.parse_rule_spec("abc", 2)


def test_default_rules(rule2, rule3):
    # one shared rule per dimension, so default-rule calls can hit caches
    assert cf.default_rule(2) is rule2
    assert cf.default_rule(3) is rule3
    assert rule2.dim == 2
    assert rule3.dim == 3
    assert abs(math.fsum(rule2.weights.tolist()) - 2 * math.pi) < 1e-12
    assert abs(math.fsum(rule3.weights.tolist()) - 4 * math.pi) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
)
def test_trig_polynomials_integrate_exactly(coeffs):
    # equally spaced nodes integrate low-degree trig polynomials to the
    # constant term times 2*pi
    rule = cf.circle_rule(256)
    theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
    vals = np.full(len(theta), coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        vals = vals + c * np.cos(k * theta)
    got = cf.integrate(rule, vals)
    scale = max(1.0, max(abs(c) for c in coeffs))
    assert abs(got - 2 * math.pi * coeffs[0]) < 1e-9 * scale
