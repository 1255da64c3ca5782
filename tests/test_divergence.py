import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvfun as cf


GENS = [cf.kl_generator(), cf.neg_log_generator(), cf.sqrt_generator(),
        cf.power_generator(2.0), cf.power_generator(0.25), cf.linear_generator(1.0, 0.0)]


def test_adjoint_pointwise():
    t = np.geomspace(1e-3, 1e3, 200)
    kl_star = cf.adjoint(cf.kl_generator())
    assert np.max(np.abs(kl_star(t) - (-np.log(t)))) < 1e-12 * np.max(np.abs(np.log(t)))
    for alpha in (-1.0, 0.25, 2.0, 3.0):
        gen = cf.power_generator(alpha)
        star = cf.adjoint(gen)
        assert np.max(np.abs(star(t) - t ** (1 - alpha)) / t ** (1 - alpha)) < 1e-12


@pytest.mark.parametrize("gen", GENS, ids=lambda g: g.name)
def test_adjoint_involution(gen):
    t = np.geomspace(1e-2, 1e2, 101)
    back = cf.adjoint(cf.adjoint(gen))
    ref = np.asarray(gen(t), dtype=float)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(back(t) - ref)) < 1e-11 * scale
    assert back.name == gen.name
    assert cf.adjoint(gen).name == "adj(%s)" % gen.name


@pytest.mark.parametrize("gen", GENS, ids=lambda g: g.name)
def test_declared_shapes(gen):
    assert cf.check_shape(gen)
    assert cf.check_shape(cf.adjoint(gen))
    assert cf.adjoint(gen).shape == gen.shape


def test_generator_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        cf.DivergenceGenerator(name="bad", fn=lambda t: t, shape="wavy")


def test_linear_divergence_is_mass(ellipse21):
    z = cf.WeightIndex.zero(2)
    om0 = cf.weighted_asa(ellipse21, z, 0.0).value
    ominf = cf.weighted_asa(ellipse21, z, math.inf).value
    got = cf.f_divergence(ellipse21, z, cf.linear_generator(2.0, 0.3))
    assert abs(got - (2.0 * ominf + 0.3 * om0)) < 1e-10


@pytest.mark.parametrize("gen", GENS[:4], ids=lambda g: g.name)
def test_direction_swap_matches_adjoint(ellipse21, pball05, gen):
    z = cf.WeightIndex.zero(2)
    for body in (ellipse21, pball05):
        qp = cf.f_divergence(body, z, gen, direction="QP")
        star = cf.f_divergence(body, z, cf.adjoint(gen), direction="PQ")
        assert abs(qp - star) <= 1e-10 * max(1.0, abs(qp))


def test_direction_validation(ball2):
    z = cf.WeightIndex.zero(2)
    with pytest.raises(ValueError, match="direction"):
        cf.f_divergence(ball2, z, cf.kl_generator(), direction="PP")
    with pytest.raises(ValueError, match="direction"):
        cf.kl_divergence(ball2, z, "QQ")


def _fresh_body(dim):
    # a generic body: its cone density ratio is not constant
    return cf.make_perturbed_ball(dim, mode=3, eps=0.05 if dim == 2 else 0.02)


DIVERGENCE_CALLS = {
    "kl-PQ": lambda b, z: cf.kl_divergence(b, z, "PQ"),
    "kl-QP": lambda b, z: cf.kl_divergence(b, z, "QP"),
    "kl-PQ-normalized": lambda b, z: cf.kl_divergence(b, z, "PQ", normalized=True),
    "kl-QP-normalized": lambda b, z: cf.kl_divergence(b, z, "QP", normalized=True),
    "hellinger": lambda b, z: cf.hellinger(b, z, 0.5),
    "renyi": lambda b, z: cf.renyi(b, z, 0.5),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_divergences_cached_with_fresh_bits(dim):
    z = cf.WeightIndex.zero(dim)
    body = _fresh_body(dim)
    for name, call in DIVERGENCE_CALLS.items():
        first = call(body, z)
        assert call(body, z).hex() == first.hex(), name
        assert call(_fresh_body(dim), z).hex() == first.hex(), name
    # four kl entries and one hellinger entry (renyi reads it), each a float
    kinds = [key[0] for key in body._cache]
    assert kinds.count("kl") == 4 and kinds.count("hellinger") == 1
    assert all(type(v) is float for key, v in body._cache.items()
               if key[0] in ("kl", "hellinger"))


def test_divergence_cache_keys():
    body = _fresh_body(2)
    z = cf.WeightIndex.zero(2)
    rule = cf.default_rule(2)
    # a rule is a key by identity, whatever its name
    doubled = cf.SphereRule(2, rule.nodes, 2.0 * rule.weights, rule.name)
    cf.kl_divergence(body, z, "PQ")
    cf.kl_divergence(body, z, "PQ", normalized=1)
    cf.kl_divergence(body, z, "PQ", normalized=True)
    cf.kl_divergence(body, z, "PQ", rule=doubled)
    cf.kl_divergence(body, cf.WeightIndex(1, 0.0, (1,)), "PQ")
    cf.hellinger(body, z, 1)
    cf.hellinger(body, z, 1.0)
    cf.hellinger(body, z, 0.25)
    assert cf.hellinger(body, z, 0.25, doubled) == 2.0 * cf.hellinger(body, z, 0.25)
    assert {key for key in body._cache if key[0] in ("kl", "hellinger")} == {
        ("kl", z, "PQ", False, rule),
        ("kl", z, "PQ", True, rule),
        ("kl", z, "PQ", False, doubled),
        ("kl", cf.WeightIndex(1, 0.0, (1,)), "PQ", False, rule),
        ("hellinger", z, 1.0, rule),
        ("hellinger", z, 0.25, rule),
        ("hellinger", z, 0.25, doubled),
    }


def test_divergence_bad_input_stores_nothing():
    body = _fresh_body(2)
    z = cf.WeightIndex.zero(2)
    wrong = cf.WeightIndex.zero(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="direction"):
            cf.kl_divergence(body, z, "QQ")
        with pytest.raises(ValueError, match="index dimension"):
            cf.kl_divergence(body, wrong, "PQ")
        with pytest.raises(ValueError, match="index dimension"):
            cf.hellinger(body, wrong, 0.5)
        with pytest.raises(TypeError, match="WeightIndex"):
            cf.hellinger(body, (0, 0.0, (0,)), 0.5)
    # the body holds only the grid make_perturbed_ball validated it with
    assert set(body._cache) == {("grid", cf.default_rule(2))}
    # a non-finite alpha is refused on every call and leaves no entry
    cf.hellinger(body, z, 0.5)
    size = len(body._cache)
    for _ in range(2):
        with pytest.raises(ValueError, match="alpha must be finite"):
            cf.hellinger(body, z, math.nan)
        with pytest.raises(ValueError, match="alpha must be finite"):
            cf.renyi(body, z, math.nan)
    assert len(body._cache) == size
    # so is a finite alpha whose integrand overflows
    for _ in range(2):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="non-finite integrand value inf at node 0"):
            cf.hellinger(body, z, 5000.0)
    assert len(body._cache) == size


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_refused_up_front(alpha):
    # refused before any integrand is formed: no numpy warning, no entry
    body = _fresh_body(2)
    z = cf.WeightIndex.zero(2)
    calls = {
        "hellinger": lambda: cf.hellinger(body, z, alpha),
        "renyi": lambda: cf.renyi(body, z, alpha),
        "power_generator": lambda: cf.power_generator(alpha),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(ValueError, match="alpha must be finite"):
                call()
    assert set(body._cache) == {("grid", cf.default_rule(2))}


def test_kl_closed_forms(ball2, ellipse21):
    z = cf.WeightIndex.zero(2)
    assert abs(cf.kl_divergence(ball2, z, "PQ")) < 1e-12
    assert abs(cf.kl_divergence(ball2, z, "QP")) < 1e-12
    # constant density ratio 1/4 on the (2,1) ellipse
    want_pq = -2 * math.pi * math.log(2.0)
    assert abs(cf.kl_divergence(ellipse21, z, "PQ") - want_pq) < 1e-9
    # omega^0 = 4*pi here, and log(1/c) = log 4
    want_qp = 8 * math.pi * math.log(2.0)
    assert abs(cf.kl_divergence(ellipse21, z, "QP") - want_qp) < 1e-9


def test_normalized_kl_nonnegative(ball2, ellipse21, ellipsoid211, pball05):
    for body in (ball2, ellipse21, ellipsoid211):
        z = cf.WeightIndex.zero(body.dim)
        for direction in ("PQ", "QP"):
            val = cf.kl_divergence(body, z, direction, normalized=True)
            assert val > -1e-10
            assert abs(val) < 1e-7
    z = cf.WeightIndex.zero(2)
    for direction in ("PQ", "QP"):
        assert cf.kl_divergence(pball05, z, direction, normalized=True) > 1e-6


@pytest.mark.parametrize("p", [-1.0, 0.5, 1.0, 2.0, 7.0, 20.0])
def test_hellinger_bridges_to_functional(ellipse21, pball05, ellipsoid211, p):
    for body in (ellipse21, pball05, ellipsoid211):
        indices = [cf.WeightIndex.zero(body.dim)]
        if body.dim == 2:
            indices.append(cf.WeightIndex(2, 1.0, (2,)))
        else:
            indices.append(cf.WeightIndex(2, 1.0, (0, 1)))
        for index in indices:
            alpha = p / (body.dim + p)
            want = cf.weighted_asa(body, index, p).value
            got = cf.hellinger(body, index, alpha)
            assert abs(got - want) / want < 1e-10


def test_hellinger_endpoints(ellipse21):
    z = cf.WeightIndex.zero(2)
    om0 = cf.weighted_asa(ellipse21, z, 0.0).value
    ominf = cf.weighted_asa(ellipse21, z, math.inf).value
    assert abs(cf.hellinger(ellipse21, z, 0.0) - om0) < 1e-10
    assert abs(cf.hellinger(ellipse21, z, 1.0) - ominf) < 1e-10
    assert abs(cf.hellinger(ellipse21, z, 0.5) - 2 * math.pi) < 1e-10


def test_renyi(ball2, ellipse21):
    z = cf.WeightIndex.zero(2)
    with pytest.raises(ValueError, match="alpha = 1"):
        cf.renyi(ball2, z, 1.0)
    assert abs(cf.renyi(ball2, z, 2.0) - math.log(2 * math.pi)) < 1e-12
    # on the ellipse the ratio is constant: D_alpha = (alpha log c + log omega^0)/(alpha - 1)
    c = 0.25
    om0 = cf.weighted_asa(ellipse21, z, 0.0).value
    for alpha in (0.0, 0.5, 2.0, 3.0):
        want = (alpha * math.log(c) + math.log(om0)) / (alpha - 1.0)
        assert abs(cf.renyi(ellipse21, z, alpha) - want) < 1e-9


def test_cone_density_masses(ellipse21, rule2):
    z = cf.WeightIndex.zero(2)
    pair = cf.cone_densities(ellipse21, z, rule2)
    om0 = cf.weighted_asa(ellipse21, z, 0.0, rule2).value
    ominf = cf.weighted_asa(ellipse21, z, math.inf, rule2).value
    assert abs(cf.integrate(rule2, pair.q * pair.mu) - om0) / om0 < 1e-12
    assert abs(cf.integrate(rule2, pair.p * pair.mu) - ominf) / ominf < 1e-12
    assert np.max(np.abs(pair.ratio - pair.p / pair.q)) < 1e-14
    # constant ratio (prod a)^-2 = 1/4 on the ellipse
    assert np.max(np.abs(pair.ratio - 0.25)) < 1e-12


def test_jensen_linear_equality(ellipse21, pball05):
    z = cf.WeightIndex.zero(2)
    for body in (ellipse21, pball05):
        out = cf.jensen_bound(body, z, cf.linear_generator(3.0, -1.0))
        assert out.holds
        assert abs(out.gap) <= 1e-10 * max(abs(out.lhs), 1.0)
        assert out.rhs_stated == pytest.approx(out.rhs / 2.0)


def test_jensen_equality_on_constant_ratio(ellipse21, ellipsoid211):
    for body in (ellipse21, ellipsoid211):
        z = cf.WeightIndex.zero(body.dim)
        for gen in (cf.sqrt_generator(), cf.kl_generator()):
            out = cf.jensen_bound(body, z, gen)
            assert out.holds
            assert abs(out.gap) <= 1e-10 * max(abs(out.lhs), abs(out.rhs), 1.0)


def test_jensen_strict_directions(pball05):
    z = cf.WeightIndex.zero(2)
    concave = cf.jensen_bound(pball05, z, cf.sqrt_generator())
    assert concave.holds and concave.gap > 1e-6
    convex = cf.jensen_bound(pball05, z, cf.kl_generator())
    assert convex.holds and convex.gap < -1e-6


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-3.0, 4.0))
def test_power_adjoint_exponent(alpha):
    t = np.geomspace(0.1, 10.0, 37)
    star = cf.adjoint(cf.power_generator(alpha))
    want = t ** (1.0 - alpha)
    assert np.max(np.abs(star(t) - want) / want) < 1e-12
