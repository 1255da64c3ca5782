import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvfun as cf


BALL_INDICES_2 = [
    cf.WeightIndex(0, 0.0, (0,)),
    cf.WeightIndex(1, -0.5, (1,)),
    cf.WeightIndex(2, 1.5, (2,)),
    cf.WeightIndex(3, 2.0, (3,)),
]
BALL_INDICES_3 = [
    cf.WeightIndex(0, 0.0, (0, 0)),
    cf.WeightIndex(1, 0.7, (1, 0)),
    cf.WeightIndex(2, 0.0, (2, 0)),
    cf.WeightIndex(2, 1.0, (0, 1)),
    cf.WeightIndex(3, -1.0, (1, 1)),
]


@pytest.mark.parametrize("index", BALL_INDICES_2)
@pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 2.0, math.inf])
def test_ball_law_dim2(ball2, index, p):
    got = cf.weighted_asa(ball2, index, p).value
    want = index.c_n * 2 * math.pi
    assert abs(got - want) / want < 1e-12


@pytest.mark.parametrize("index", BALL_INDICES_3)
@pytest.mark.parametrize("p", [0.5, math.inf])
def test_ball_law_dim3(ball3, index, p):
    got = cf.weighted_asa(ball3, index, p).value
    want = index.c_n * 4 * math.pi
    assert abs(got - want) / want < 1e-10


def test_ball_law_binomial_normalizer():
    assert cf.WeightIndex(2, 0.0, (2, 0)).c_n == 4
    assert cf.WeightIndex(2, 0.0, (0, 1)).c_n == 1
    assert cf.WeightIndex(3, 0.0, (1, 1)).c_n == 2
    assert cf.WeightIndex(3, 0.0, (3, 0)).c_n == 8
    assert cf.WeightIndex(3, 0.0, (3,)).c_n == 1


def test_ellipse_classical_closed_form(ellipse21):
    # sigma * (a*b)^((n-p)/(n+p)) on the (2,1) ellipse
    for p in (-1.0, 0.0, 0.5, 1.0, 2.0, 7.0):
        want = 2 * math.pi * 2.0 ** ((2 - p) / (2 + p))
        got = cf.asa(ellipse21, p).value
        assert abs(got - want) / want < 1e-11
    assert abs(cf.asa(ellipse21, math.inf).value - math.pi) < 1e-11
    assert abs(cf.asa(ellipse21, 1.0).value - 7.916317428905746) < 1e-12


def test_ellipsoid_classical_closed_form(ellipsoid211):
    for p in (-1.0, 0.0, 1.0, 2.0, 7.0):
        want = 4 * math.pi * 2.0 ** ((3 - p) / (3 + p))
        got = cf.asa(ellipsoid211, p).value
        assert abs(got - want) / want < 1e-8
    want = 4 * math.pi / 2.0
    assert abs(cf.asa(ellipsoid211, math.inf).value - want) / want < 1e-8


@pytest.mark.parametrize("index", [cf.WeightIndex(1, 0.5, (1,)), cf.WeightIndex(2, 0.0, (2,))])
@pytest.mark.parametrize("p", [-0.5, 1.0, 3.0])
def test_weighted_ellipsoid_reduces_to_zero_p(ellipse21, index, p):
    # on an ellipsoid the density ratio is the constant (prod a)^-2, so
    # omega^p = c^(p/(n+p)) * omega^0 for every weight index
    c = 0.25
    base = cf.weighted_asa(ellipse21, index, 0.0).value
    got = cf.weighted_asa(ellipse21, index, p).value
    want = c ** (p / (2 + p)) * base
    assert abs(got - want) / want < 1e-10


def test_p_limits_match_volumes(ellipse21, ellipsoid211):
    z2 = cf.WeightIndex.zero(2)
    z3 = cf.WeightIndex.zero(3)
    assert abs(cf.weighted_volume(ellipse21, z2) - cf.body_volume(ellipse21)) < 1e-10
    assert abs(cf.weighted_polar_volume(ellipse21, z2) - cf.polar_volume(ellipse21)) < 1e-10
    assert abs(cf.weighted_volume(ellipsoid211, z3) - cf.body_volume(ellipsoid211)) < 1e-8
    assert abs(cf.weighted_polar_volume(ellipsoid211, z3) - cf.polar_volume(ellipsoid211)) < 1e-8


@pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_homogeneity_under_scaling(ellipse21, pball05, a, p):
    for body in (ellipse21, pball05):
        for index in (cf.WeightIndex.zero(2), cf.WeightIndex(1, 0.5, (1,))):
            q = cf.homogeneity_degree(2, p, index.k)
            base = cf.weighted_asa(body, index, p).value
            scaled = cf.weighted_asa(cf.transform(body, a), index, p).value
            assert abs(scaled - a ** q * base) / abs(scaled) < 1e-8


def test_homogeneity_degree_values():
    assert cf.homogeneity_degree(2, 1.0, 0.0) == pytest.approx(2.0 / 3.0)
    assert cf.homogeneity_degree(2, 2.0, 0.0) == pytest.approx(0.0)
    assert cf.homogeneity_degree(3, math.inf, 1.0) == pytest.approx(-4.0)
    # up to where n(n-p) overflows, the degree is that expression's bits
    for n, p in ((2, 8e307), (2, -8e307), (3, 5e307), (3, 7.5)):
        assert cf.homogeneity_degree(n, p, 0.0) == n * (n - p) / (n + p)


def test_rotation_invariance(ellipse21, ellipsoid211, rng):
    for body in (ellipse21, ellipsoid211):
        q, _ = np.linalg.qr(rng.standard_normal((body.dim, body.dim)))
        rot = cf.transform(body, q)
        for p in (1.0, 2.0):
            a = cf.asa(body, p).value
            b = cf.asa(rot, p).value
            assert abs(a - b) / a < 1e-9


def test_asa_exponents():
    alpha, beta = cf.asa_exponents(2, 1.0)
    assert alpha == pytest.approx(1.0 / 3.0)
    assert beta == pytest.approx(0.0)
    alpha, beta = cf.asa_exponents(3, math.inf)
    assert alpha == 1.0
    assert beta == 3.0
    # up to where n(p-1) overflows, beta is that expression's bits
    for n, p in ((2, 8e307), (2, -8e307), (3, 5e307), (3, 7.5)):
        assert cf.asa_exponents(n, p)[1] == n * (p - 1.0) / (n + p)


def test_p_validation(ball2):
    with pytest.raises(ValueError, match="excluded"):
        cf.asa(ball2, -2.0)
    with pytest.raises(ValueError):
        cf.asa(ball2, float("nan"))
    with pytest.raises(ValueError):
        cf.asa(ball2, -math.inf)


def test_weight_index_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        cf.WeightIndex(-1, 0.0, (1,))
    with pytest.raises(ValueError, match="constraint"):
        cf.WeightIndex(2, 0.0, (1,))
    with pytest.raises(ValueError, match="constraint"):
        cf.WeightIndex(1, 0.0, (0, 1))
    with pytest.raises(ValueError, match="length"):
        cf.WeightIndex(1, 0.0, (1, 0, 0))
    with pytest.raises(ValueError):
        cf.WeightIndex(1, 0.0, (1.5,))


def test_index_dim_mismatch(ball3):
    with pytest.raises(ValueError):
        cf.weighted_asa(ball3, cf.WeightIndex.zero(2), 1.0)


def test_functional_value_metadata(ellipse21):
    out = cf.weighted_asa(ellipse21, cf.WeightIndex.zero(2), 1.0)
    assert out.body_label == "ellipse21"
    assert out.rule_name == "512"
    assert out.p == 1.0


def test_asa_shares_one_zero_index(ellipse21, ellipsoid211):
    for body in (ellipse21, ellipsoid211):
        zero = cf.WeightIndex.zero(body.dim)
        first = cf.asa(body, 1.0)
        assert first.index == zero
        assert cf.asa(body, 0.5).index is first.index
        assert first.value.hex() == cf.weighted_asa(body, zero, 1.0).value.hex()


def test_weighted_asa_repeat_returns_the_record():
    for dim, index in ((2, cf.WeightIndex(1, 0.5, (1,))), (3, cf.WeightIndex(2, 1.0, (0, 1)))):
        body = cf.make_ellipsoid(dim, cf.ellipsoid_matrix([2.0, 1.0, 1.0][:dim]))
        first = cf.weighted_asa(body, index, 1.0)
        assert cf.weighted_asa(body, index, 1.0) is first
        # an equal but distinct index gets a record that holds it
        twin = cf.WeightIndex(index.m, index.k, index.i)
        other = cf.weighted_asa(body, twin, 1.0)
        assert other.index is twin and other is not first
        assert other.value.hex() == first.value.hex()
        # every field is that of a fresh body's first call
        fresh = cf.make_ellipsoid(dim, cf.ellipsoid_matrix([2.0, 1.0, 1.0][:dim]))
        want = cf.weighted_asa(fresh, index, 1.0)
        for rec in (first, other):
            for field in dataclasses.fields(rec):
                got, ref = getattr(rec, field.name), getattr(want, field.name)
                assert got == ref and type(got) is type(ref)
            assert rec.value.hex() == want.value.hex()


def test_weighted_asa_repeat_keeps_the_sign_of_a_zero_p():
    body = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0]))
    index = cf.WeightIndex.zero(2)
    plus = cf.weighted_asa(body, index, 0.0)
    minus = cf.weighted_asa(body, index, -0.0)
    assert math.copysign(1.0, plus.p) == 1.0 and math.copysign(1.0, minus.p) == -1.0
    assert minus.value.hex() == plus.value.hex()
    assert cf.weighted_asa(body, index, 0.0) is plus


def test_weight_index_hash_is_taken_once():
    index = cf.WeightIndex(3, -1.0, (1, 1))
    assert hash(index) == hash((3, -1.0, (1, 1)))
    # the stored hash is not a field: equality, repr and asdict see (m, k, i) only
    assert [f.name for f in dataclasses.fields(index)] == ["m", "k", "i"]
    assert dataclasses.asdict(index) == {"m": 3, "k": -1.0, "i": (1, 1)}
    assert repr(index) == "WeightIndex(m=3, k=-1.0, i=(1, 1))"
    assert index == cf.WeightIndex(3, -1, [1, 1])
    assert index != cf.WeightIndex(3, 0.0, (1, 1))
    for twin in (pickle.loads(pickle.dumps(index)), copy.copy(index), copy.deepcopy(index),
                 dataclasses.replace(index)):
        assert twin == index and hash(twin) == hash(index)
    moved = dataclasses.replace(index, k=2.5)
    assert hash(moved) == hash((3, 2.5, (1, 1))) and moved != index


@pytest.mark.parametrize("m, k, i, field", [
    (0, math.inf, (0,), "k"),
    (0, -math.inf, (0,), "k"),
    (0, math.nan, (0,), "k"),
    (math.inf, 0.0, (0,), "m"),
    (math.nan, 0.0, (0,), "m"),
    (1, 0.0, (math.inf,), "i"),
    (0, 0.0, (0, math.nan), "i"),
])
def test_weight_index_refuses_non_finite(m, k, i, field):
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        cf.WeightIndex(m, k, i)


def test_lutwak_density(ball2, ellipse21):
    for p in (0.5, 1.0, 4.0, math.inf):
        assert abs(cf.lutwak_density(ball2, p, np.array([1.0, 0.0])) - 1.0) < 1e-12
    got = cf.lutwak_density(ellipse21, 1.0, np.array([1.0, 0.0]))
    assert abs(got - 0.5 ** (2.0 / 3.0)) < 1e-12
    got = cf.lutwak_density(ellipse21, math.inf, np.array([1.0, 0.0]))
    assert abs(got - 0.25) < 1e-12


def test_lutwak_density_takes_unit_directions_only(ball2, ellipse21):
    # curvature_at's direction rule, with its messages
    for u, message in (([1.0, 1.0], "unit vector, |u| = 1.41421356237"),
                       ([1.0, 0.0, 0.0], r"shape \(3,\) does not match dim 2")):
        for query in (cf.curvature_at, lambda b, u: cf.lutwak_density(b, 1.0, u)):
            with pytest.raises(ValueError, match=message):
                query(ball2, u)
    # a unit direction within 1e-10 is taken as given
    u = np.array([0.6, 0.8 + 1e-12])
    h, _, _, s, _ = cf.curvature_arrays(ellipse21, u[None, :])
    alpha, beta = cf.asa_exponents(2, 1.0)
    want = float(s[0, -1] ** (1.0 - alpha) * h[0] ** -beta)
    assert cf.lutwak_density(ellipse21, 1.0, u) == want


def test_mu_density_masses(ellipse21, rule2):
    for index in (cf.WeightIndex.zero(2), cf.WeightIndex(2, 1.0, (2,))):
        mu = cf.mu_density(ellipse21, index, rule2)
        g = cf.curvature_grid(ellipse21, rule2)
        omega0 = cf.weighted_asa(ellipse21, index, 0.0, rule2).value
        assert abs(cf.integrate(rule2, mu * g.h) - omega0) / omega0 < 1e-12
        omega_inf = cf.weighted_asa(ellipse21, index, math.inf, rule2).value
        density = 1.0 / (g.s_top * g.h ** 2)
        assert abs(cf.integrate(rule2, mu * density) - omega_inf) / omega_inf < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.25, 4.0),
    p=st.floats(-1.5, 30.0),
    k=st.floats(-3.0, 3.0),
)
def test_scaled_ball_closed_form(a, p, k):
    # omega(aB) = c_n * sigma * a^q with q = n(n-p)/(n+p) - k, any index
    body = cf.make_ball(2, a)
    index = cf.WeightIndex(1, k, (1,))
    got = cf.weighted_asa(body, index, p).value
    q = cf.homogeneity_degree(2, p, k)
    want = 2 * math.pi * a ** q
    assert abs(got - want) / want < 1e-9


@settings(max_examples=30, deadline=None)
@given(i1=st.integers(0, 3), i2=st.integers(0, 2))
def test_weight_index_constraint_encodes_m(i1, i2):
    m = i1 + 2 * i2
    index = cf.WeightIndex(m, 0.0, (i1, i2))
    assert index.dim == 3
    assert index.sum_i == i1 + i2
    assert index.c_n == 2 ** i1
    if m + 1 != 2 * i2 + i1:  # any wrong m must be rejected
        with pytest.raises(ValueError):
            cf.WeightIndex(m + 1, 0.0, (i1, i2))


def _old_power(base, expo):
    # the power as every integrand formed it from its own log of the grid
    if expo == 0.0:
        return np.ones_like(base)
    return np.exp(expo * np.log(base))


def _old_weight_factor(g, index):
    n = index.dim
    out = float(index.c_n) * _old_power(g.h, index.m - index.k)
    for j, v in enumerate(index.i, start=1):
        if v:
            out = out * _old_power(g.s[:, n - 1 - j], float(v))
    return out


def _bitwise_indices(dim):
    # the suite's indices with the k-values of its k-interpolation claims,
    # the ball-law indices, and one index whose every factor is exactly 1
    grids = cf.default_suite_grids(dim)
    ks = {k for triple in grids["kinterp_triples"] for k in triple}
    out = [cf.WeightIndex(index.m, k, index.i)
           for index in grids["indices"] for k in sorted(ks | {index.k})]
    out += BALL_INDICES_2 if dim == 2 else BALL_INDICES_3
    if dim == 2:
        out.append(cf.WeightIndex(1, 1.0, (1,)))
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_integrands_equal_the_power_chain(dim):
    rule = cf.default_rule(dim)
    bodies = [cf.make_ellipsoid(dim, cf.ellipsoid_matrix([2.0, 1.0, 0.7][:dim])),
              cf.make_perturbed_ball(dim, mode=3, eps=0.05)]
    for body in bodies:
        g = cf.curvature_grid(body)
        for index in _bitwise_indices(dim):
            factor = _old_weight_factor(g, index)
            for p in (0.0, -0.0, 0.5, 1.0, 2.0, 16.0, math.inf, -1.5):
                alpha, beta = cf.asa_exponents(dim, p)
                vals = (factor * _old_power(g.s_top, 1.0 - alpha - index.sum_i)
                        * _old_power(g.h, -beta))
                want = math.fsum((vals * rule.weights).tolist())
                assert cf.weighted_asa(body, index, p).value.hex() == want.hex()
            mu = factor * _old_power(g.s_top, 1.0 - index.sum_i)
            assert cf.mu_density(body, index).tobytes() == mu.tobytes()
            pair = cf.cone_densities(body, index)
            p_old = 1.0 / (g.s_top * _old_power(g.h, float(dim)))
            ratio = 1.0 / (g.s_top * _old_power(g.h, float(dim + 1)))
            assert pair.p.tobytes() == p_old.tobytes()
            assert pair.ratio.tobytes() == ratio.tobytes()
            assert pair.mu.tobytes() == mu.tobytes()


def test_grid_logs_are_kept_once_per_rule():
    body = cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 0.7]))
    rule = cf.default_rule(3)
    cf.asa(body, 1.0)
    logs = body._cache[("logs", rule)]
    log_h, log_top = logs
    # a second miss, and every other integrand, finds the same arrays
    cf.asa(body, 2.0)
    cf.mu_density(body, cf.WeightIndex(1, 0.0, (1, 0)))
    cf.cone_densities(body, cf.WeightIndex.zero(3))
    cf.kl_divergence(body, cf.WeightIndex.zero(3), "PQ")
    assert body._cache[("logs", rule)] is logs
    assert logs[0] is log_h and logs[1] is log_top
    assert not log_h.flags.writeable and not log_top.flags.writeable
    g = cf.curvature_grid(body)
    assert log_h.tobytes() == np.log(g.h).tobytes()
    assert log_top.tobytes() == np.log(g.s_top).tobytes()
    # another rule is another entry; the middle column's log is not kept
    other = cf.sphere_rule(16, 32)
    cf.asa(body, 1.0, other)
    assert {key for key in body._cache if key[0] == "logs"} == {("logs", rule), ("logs", other)}


@pytest.mark.parametrize("p", [1e308, -1e308, 9e307, -9e307, 1.7976931348623157e308])
def test_huge_finite_p_is_the_infinite_limit(p):
    # n * (p - 1) overflows for |p| above about 1.8e308 / n; the exponents are
    # then taken with the division first and equal the p = inf values
    bodies = [cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0])),
              cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 0.7]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for body in bodies:
            n = body.dim
            assert cf.asa_exponents(n, p) == cf.asa_exponents(n, math.inf)
            assert cf.homogeneity_degree(n, p, 0.5) == cf.homogeneity_degree(n, math.inf, 0.5)
            index = cf.default_suite_grids(n)["indices"][1]
            assert (cf.weighted_asa(body, index, p).value
                    == cf.weighted_asa(body, index, math.inf).value)
            density = cf.boundary_density(body, p=p)
            assert math.isfinite(density.normalizer)
            assert np.all(np.isfinite(density.values))
