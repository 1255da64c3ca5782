import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvfun as cf
from curvfun.quadrature import _exact_sum


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_reports_nonfinite_node(bad):
    rule = cf.circle_rule(16)
    vals = np.ones(16)
    vals[5] = bad
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


def _bits(f, a):
    # the exact bits of the result, or the error fsum raises (an overflowing
    # intermediate, or inf - inf)
    try:
        return f(a).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _fsum(a):
    return math.fsum(a.tolist())


@st.composite
def float_arrays(draw):
    # signed values over the whole finite range (subnormals included, as
    # drawn floats and as small exponents), sometimes with cancelling pairs
    n = draw(st.integers(1, 70_000))
    head = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         max_size=min(n, 32)))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, 1023))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi, n, endpoint=True))
    a[:len(head)] = head
    k = draw(st.integers(0, n // 2))
    a[n - k:] = -a[rng.permutation(k)]
    return a


@settings(max_examples=150, deadline=None)
@given(a=float_arrays())
def test_exact_sum_matches_fsum(a):
    assert _bits(_exact_sum, a) == _bits(_fsum, a)
    if len(a) >= 8:
        rule = cf.circle_rule(len(a))
        assert _bits(lambda v: cf.integrate(rule, v), a) == _bits(_fsum, a * rule.weights)


@pytest.mark.parametrize("values", [
    [1e308, 1e308, -1e308],  # exact sum finite, but fsum's partial sum overflows
    [1.5e308, 1.5e308],
    [1.7e308, -1.7e308, 1.0],
    [2.0**1000, 2.0**-1074, -(2.0**1000)],
    [np.inf, 1.0],
    [-np.inf, 1.0],
    [np.inf, -np.inf],
    [np.nan, 1.0],
    [-0.0, -0.0],
])
def test_exact_sum_fallback_matches_fsum(values):
    a = np.array(values)
    assert _bits(_exact_sum, a) == _bits(_fsum, a)


@pytest.mark.parametrize("values", [
    [1e308] * 8,  # every product overflows to inf
    [1e308, -1e308] * 4,  # inf - inf
    [1e308, 1.0] * 4,
    [1e307] * 8,  # finite products whose sum overflows
])
def test_integrate_overflow_matches_fsum(values):
    rule = cf.circle_rule(8)
    big = cf.SphereRule(2, rule.nodes, np.full(8, 16.0), "8x16")
    values = np.array(values)
    with np.errstate(over="ignore"):
        expected = _bits(_fsum, values * big.weights)
        assert _bits(lambda v: cf.integrate(big, v), values) == expected
