import math

import numpy as np
import pytest

import curvfun as cf


Z2 = cf.WeightIndex.zero(2)
Z3 = cf.WeightIndex.zero(3)


def test_equality_classification(ball2, ellipse21, ellipsoid211, pball05, rng):
    assert cf.equality_class(ball2) == "ball"
    assert cf.equality_class(ellipse21) == "ellipsoid"
    assert cf.equality_class(ellipsoid211) == "ellipsoid"
    assert cf.equality_class(pball05) == "generic"
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    assert cf.equality_class(cf.transform(ball2, q)) == "ball"
    assert cf.equality_class(cf.transform(ellipse21, q)) == "ellipsoid"
    # the label is kept on the body, next to its grid
    fresh = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0]))
    assert cf.equality_class(fresh) == "ellipsoid"
    assert fresh._cache[("equality_class", cf.default_rule(2))] == "ellipsoid"


def test_petty_stats_on_ellipse(ellipse21):
    stats = cf.petty_ratio_stats(ellipse21)
    assert abs(stats.vmin - 0.25) < 1e-10
    assert abs(stats.vmax - 0.25) < 1e-10
    assert stats.spread < 1e-10


def test_holder_three_verdicts(ball2, ellipse21, pball05):
    rep = cf.verify_holder_three(ball2, Z2, 1.0, 0.0, 4.0)
    assert rep.verdict == "equality"
    rep = cf.verify_holder_three(ellipse21, Z2, 1.0, 0.0, 4.0)
    assert rep.verdict == "equality"
    assert rep.equality_case == "ellipsoid"
    rep = cf.verify_holder_three(pball05, Z2, 1.0, 0.0, 4.0)
    assert rep.verdict == "holds"
    assert rep.strict
    assert rep.lhs <= rep.rhs


def test_holder_three_hypothesis_guard(ellipse21):
    # order reversed: the exponent hypothesis fails
    rep = cf.verify_holder_three(ellipse21, Z2, 4.0, 0.0, 1.0)
    assert rep.verdict == "hypothesis_violated"
    # degenerate r = s
    rep = cf.verify_holder_three(ellipse21, Z2, 1.0, 1.0, 4.0)
    assert rep.verdict == "hypothesis_violated"


def test_holder_three_theta_weights(ellipse21):
    rep = cf.verify_holder_three(ellipse21, Z2, 1.0, 0.0, 4.0)
    theta_t = rep.extra["theta_t"]
    theta_s = rep.extra["theta_s"]
    assert abs(theta_t + theta_s - 1.0) < 1e-12
    # exponents recombine the homogeneity degrees of the three functionals
    n, (r, s, t) = 2, (1.0, 0.0, 4.0)
    want_t = (r - s) * (n + t) / ((t - s) * (n + r))
    assert abs(theta_t - want_t) < 1e-12
    assert rep.extra["hypothesis"] > 1.0


def test_holder_volume_verdicts(ball2, ellipse21, ellipsoid211, pball05):
    for body in (ball2, ellipse21, ellipsoid211):
        index = cf.WeightIndex.zero(body.dim)
        rep = cf.verify_holder_volume(body, index, 1.0, 4.0)
        assert rep.verdict == "equality", (body.label, rep.slack)
    rep = cf.verify_holder_volume(pball05, Z2, 1.0, 4.0)
    assert rep.verdict == "holds" and rep.strict
    assert abs(rep.extra["e1"] + rep.extra["e2"] - 1.0) < 1e-12


def test_holder_volume_hypothesis_guard(ellipse21):
    rep = cf.verify_holder_volume(ellipse21, Z2, 2.0, 1.0)
    assert rep.verdict == "hypothesis_violated"
    rep = cf.verify_holder_volume(ellipse21, Z2, 0.0, 2.0)
    assert rep.verdict == "hypothesis_violated"


def test_holder_exponents_past_product_overflow(ellipse21):
    # above about 1e154 the products of the exponent quotients overflow;
    # there the quotients divide first, so the hypothesis stays finite and
    # the weights reach their scale-free limits.  The 1e10-scaled calls
    # still carry terms of order n / 1e10.
    for body in (ellipse21, cf.make_perturbed_ball(2, mode=3, eps=0.1)):
        big = cf.verify_holder_three(body, Z2, 1.5e160, 1e160, 1.7e160)
        ref = cf.verify_holder_three(body, Z2, 1.5e10, 1e10, 1.7e10)
        assert math.isfinite(big.extra["hypothesis"])
        limits = {"hypothesis": 21 / 17, "theta_t": 17 / 21, "theta_s": 4 / 21}
        for key, want in limits.items():
            assert big.extra[key] == pytest.approx(want, rel=1e-12)
            assert big.extra[key] == pytest.approx(ref.extra[key], rel=1e-9)
        assert big.verdict == ref.verdict == "equality"
        # a scaled pair drives the volume hypothesis (n+r)t / ((n+t)r) to 1
        vol = cf.verify_holder_volume(body, Z2, 1e160, 1.7e160)
        assert math.isfinite(vol.extra["hypothesis"])
        assert vol.verdict == "hypothesis_violated"
        # it holds with r = 5 while t (n + r) overflows
        big = cf.verify_holder_volume(body, Z2, 5.0, 1e308)
        ref = cf.verify_holder_volume(body, Z2, 5.0, 1e10)
        limits = {"hypothesis": 7 / 5, "e1": 2 / 7, "e2": 5 / 7}
        for key, want in limits.items():
            assert big.extra[key] == pytest.approx(want, rel=1e-12)
            assert big.extra[key] == pytest.approx(ref.extra[key], rel=1e-9)
        assert big.verdict == ref.verdict


def test_k_interpolation_verdicts(ball2, ellipse21, pball05):
    rep = cf.verify_k_interpolation(ball2, 0, (0,), 1.0, 0.0, 1.0, 2.0)
    assert rep.verdict == "equality"
    # equality needs a constant support function, so ellipsoids are strict
    rep = cf.verify_k_interpolation(ellipse21, 0, (0,), 1.0, 0.0, 1.0, 2.0)
    assert rep.verdict == "holds" and rep.strict
    rep = cf.verify_k_interpolation(pball05, 0, (0,), 1.0, 0.0, 1.0, 2.0)
    assert rep.verdict == "holds" and rep.strict
    with pytest.raises(ValueError):
        cf.verify_k_interpolation(ball2, 0, (0,), 1.0, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        cf.verify_k_interpolation(ball2, 0, (0,), 1.0, 0.0, 0.0, 2.0)


def test_report_record_shape(ellipse21):
    rep = cf.verify_holder_three(ellipse21, Z2, 1.0, 0.0, 4.0)
    rec = rep.to_record()
    for key in ("claim", "body", "params", "lhs", "rhs", "slack", "verdict", "equality_case"):
        assert key in rec
    assert rec["claim"] == "holder3"
    assert rec["body"] == "ellipse21"


def test_monotonicity_on_ellipse(ellipse21):
    grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    rep = cf.monotonicity_scan(ellipse21, Z2, grid)
    assert rep.verdict == "equality"
    form_i = np.asarray(rep.extra["form_i"])
    form_ii = np.asarray(rep.extra["form_ii"])
    # constants c and c^-n for the constant ratio c = 1/4
    assert np.max(np.abs(form_i - 0.25)) < 1e-9
    assert np.max(np.abs(form_ii - 16.0)) < 1e-7


def test_monotonicity_on_perturbed(pball05):
    grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    rep = cf.monotonicity_scan(pball05, Z2, grid)
    assert rep.verdict == "holds"
    form_i = rep.extra["form_i"]
    form_ii = rep.extra["form_ii"]
    assert all(b >= a * (1 - 1e-10) for a, b in zip(form_i, form_i[1:]))
    assert all(b <= a * (1 + 1e-10) for a, b in zip(form_ii, form_ii[1:]))
    assert any(rep.extra["strict_steps"])


def test_volume_normalized_sequence_is_not_monotone():
    # the (omega^p/omega^0)^(n+p) variant recorded for reference fails to be
    # monotone already on a strongly perturbed disk, and is non-constant on
    # any ball of radius != 1; this pins why no verdict is attached to it
    body = cf.make_perturbed_ball(2, mode=3, eps=0.1)
    grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    rep = cf.monotonicity_scan(body, cf.WeightIndex.zero(2), grid)
    vol_form = rep.extra["form_ii_vol"]
    diffs = np.diff(vol_form)
    assert (diffs < 0).any() and (diffs > 0).any()
    ball_r2 = cf.make_ball(2, 2.0)
    rep = cf.monotonicity_scan(ball_r2, cf.WeightIndex.zero(2), grid)
    assert rep.verdict == "equality"
    vol_form = np.asarray(rep.extra["form_ii_vol"])
    assert np.max(vol_form) / np.min(vol_form) > 10.0


def test_monotonicity_grid_validation(ball2, ball3, ellipse21, pball10):
    with pytest.raises(ValueError, match="at least 2"):
        cf.monotonicity_scan(ball2, Z2, (1.0,))
    with pytest.raises(ValueError, match="distinct"):
        cf.monotonicity_scan(ball2, Z2, (0.5, 0.5, 1.0))
    with pytest.raises(ValueError, match="contain 0"):
        cf.monotonicity_scan(ball2, Z2, (0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        cf.monotonicity_scan(ball2, Z2, (-3.0, -2.0, 1.0))
    # a non-finite entry would turn the forms into NaN
    with pytest.raises(ValueError, match="finite, got inf"):
        cf.monotonicity_scan(ball2, Z2, (1.0, 2.0, math.inf))
    with pytest.raises(ValueError, match="finite, got nan"):
        cf.monotonicity_scan(ball2, Z2, (1.0, 2.0, math.nan))
    with pytest.raises(ValueError, match="finite, got -inf"):
        cf.monotonicity_scan(ball2, Z2, (-math.inf, 1.0, 2.0))
    # from |p| of about 1.8e16 in the plane and 3.6e16 in space the
    # exponents round to p = inf's, so omega^p has omega^inf's bits
    for body in (ellipse21, pball10):
        for grid in ((1.0, 1e308), (1.0, 1e17), (1.0, 3e16), (-1e308, -1e17)):
            with pytest.raises(ValueError, match="cannot be told from p = inf"):
                cf.monotonicity_scan(body, Z2, grid)
    with pytest.raises(ValueError, match=r"p = 4e\+16 cannot be told from p = inf"):
        cf.monotonicity_scan(ball3, Z3, (1.0, 4e16))
    assert cf.monotonicity_scan(ball2, Z2, (1.0, 1e16)).verdict == "equality"
    assert cf.monotonicity_scan(ball3, Z3, (1.0, 3e16)).verdict == "equality"
    # (omega^p/omega^0)^(n+p) past the float range reads inf, and the
    # verdict is form_i's and form_ii's
    rep = cf.monotonicity_scan(pball10, Z2, (1.0, 1e5))
    assert rep.verdict == "holds" and rep.extra["form_ii_vol"][-1] == math.inf
    assert [round(v, 3) for v in rep.extra["form_ii"]] == [0.841, 0.722]
    # grids are normalized to increasing order rather than rejected
    rep = cf.monotonicity_scan(ball2, Z2, (4.0, 1.0, 2.0))
    assert rep.params["p_grid"] == [1.0, 2.0, 4.0]


def test_limit_p_infinity(ball2, ellipse21, pball05):
    rep = cf.limit_p_infinity(ball2, Z2)
    assert rep.verdict in ("equality", "holds")
    assert abs(rep.lhs - 1.0) < 1e-6
    assert rep.extra["targets_differ"] is False

    rep = cf.limit_p_infinity(ellipse21, Z2)
    assert rep.verdict in ("equality", "holds")
    assert abs(rep.lhs - 16.0) / 16.0 < 1e-4
    assert abs(rep.rhs - 16.0) / 16.0 < 1e-9
    assert abs(rep.extra["stated_form_target"] - 256.0) / 256.0 < 1e-9
    assert rep.extra["targets_differ"] is True

    rep = cf.limit_p_infinity(pball05, Z2)
    assert rep.verdict in ("equality", "holds")
    assert rep.slack < cf.LIMIT_TOL


def test_limit_p_zero(ball2, ellipse21, ellipsoid211, pball05):
    rep = cf.limit_p_zero(ball2, Z2)
    assert rep.verdict in ("equality", "holds")
    assert abs(rep.lhs - 1.0) < 1e-6

    rep = cf.limit_p_zero(ellipse21, Z2)
    assert rep.verdict in ("equality", "holds")
    assert abs(rep.lhs - 16.0) / 16.0 < 1e-4
    assert rep.extra["polar_label"]

    rep = cf.limit_p_zero(ellipsoid211, Z3)
    assert rep.verdict in ("equality", "holds")

    with pytest.raises(ValueError, match="polar"):
        cf.limit_p_zero(pball05, Z2)


def test_limit_schedule_validation(ball2, ellipse21, pball10):
    with pytest.raises(ValueError, match="at least 3"):
        cf.limit_p_infinity(ball2, Z2, p_schedule=(10.0, 30.0))
    with pytest.raises(ValueError, match="distinct"):
        cf.limit_p_infinity(ball2, Z2, p_schedule=(10.0, 10.0, 30.0))
    with pytest.raises(ValueError, match="finite, got inf"):
        cf.limit_p_infinity(ball2, Z2, p_schedule=(10.0, 30.0, math.inf))
    with pytest.raises(ValueError, match="finite, got nan"):
        cf.limit_p_infinity(ball2, Z2, p_schedule=(10.0, math.nan, 30.0))
    with pytest.raises(ValueError, match="at least 3"):
        cf.limit_p_zero(ball2, Z2, p_schedule=(0.3, 0.1))
    with pytest.raises(ValueError, match="distinct"):
        cf.limit_p_zero(ball2, Z2, p_schedule=(0.3, 0.1, 0.1))
    with pytest.raises(ValueError, match="finite, got inf"):
        cf.limit_p_zero(ball2, Z2, p_schedule=(0.3, 0.1, math.inf))
    with pytest.raises(ValueError, match="finite, got nan"):
        cf.limit_p_zero(ball2, Z2, p_schedule=(0.3, 0.1, math.nan))
    for body in (ellipse21, pball10):
        with pytest.raises(ValueError, match=r"p = 1e\+17 cannot be told from p = inf"):
            cf.limit_p_infinity(body, Z2, p_schedule=(10.0, 30.0, 100.0, 300.0, 1e17))
    with pytest.raises(ValueError, match="cannot be told from p = inf"):
        cf.limit_p_zero(ellipse21, Z2, p_schedule=(0.2, 0.05, 1e17))
    # G(p) divides by p
    with pytest.raises(ValueError, match="must not contain 0"):
        cf.limit_p_zero(ball2, Z2, p_schedule=(0.3, 0.1, 0.0))


def test_default_suite_grids():
    g2 = cf.default_suite_grids(2)
    assert len(g2["indices"]) == 3
    assert all(isinstance(ix, cf.WeightIndex) for ix in g2["indices"])
    g3 = cf.default_suite_grids(3)
    assert all(ix.dim == 3 for ix in g3["indices"])


def test_run_verification_suite(ball2, ellipse21, pball05):
    reports = cf.run_verification_suite([ball2, ellipse21, pball05])
    assert len(reports) >= 150
    verdicts = {r.verdict for r in reports}
    assert "violated" not in verdicts
    assert "hypothesis_violated" not in verdicts
    # the public suite_claims names the suite's claims in its order
    rules = {2: cf.default_rule(2), 3: cf.default_rule(3)}
    names = [name for name, _ in cf.suite_claims([ball2, ellipse21, pball05], rules)]
    assert names == [r.claim for r in reports]
    # a second run is served from the bodies' caches and must not differ
    again = cf.run_verification_suite([ball2, ellipse21, pball05])
    a = [r.to_record() for r in reports]
    b = [r.to_record() for r in again]
    assert a == b
    # the suite's petty claim is the public verify_petty
    petty = [rec for rec in a if rec["claim"] == "petty"]
    assert petty == [cf.verify_petty(body).to_record()
                     for body in (ball2, ellipse21, pball05)]
