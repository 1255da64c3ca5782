"""f-divergences of the cone measures attached to a convex body.

Relative to the weighting measure mu of a WeightIndex, the two densities

    p_K = H_{n-1} / h^n   (cone measure of the polar side)
    q_K = h               (cone measure of the body)

make (P_K, Q_K) a pair of finite measures on the boundary.  For a convexity
generator f the divergence is

    D_f(P_K, Q_K) = integral of f(p_K/q_K) * q_K dmu,

whose sphere-side integrand uses p_K/q_K = 1/(s_{n-1} h^(n+1)), the
Petty ratio H_{n-1}/h^(n+1).  The adjoint generator f*(t) = t f(1/t)
swaps the two arguments, Hellinger integrals interpolate the total masses,
and the Hellinger exponent alpha = p/(n+p) reproduces the weighted L_p
affine surface area.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .functionals import (WeightIndex, mu_density, weighted_asa, _check_index, _grid_logs,
                          _power)
from .geometry import _cached
from .quadrature import default_rule, integrate

__all__ = [
    "DivergenceGenerator",
    "ConeDensityPair",
    "adjoint",
    "kl_generator",
    "neg_log_generator",
    "power_generator",
    "sqrt_generator",
    "linear_generator",
    "cone_densities",
    "f_divergence",
    "kl_divergence",
    "hellinger",
    "renyi",
    "JensenBound",
    "jensen_bound",
    "check_shape",
]


@dataclass(frozen=True)
class DivergenceGenerator:
    """A generator f on (0, inf) with declared shape.

    Both cone densities are positive at every node, so f is only ever
    evaluated on (0, inf) and its limit at 0+ never enters a divergence.

    Attributes:
        name: identifier used in reports.
        fn: vectorized callable on positive arrays.
        shape: "convex", "concave" or "linear".
    """

    name: str
    fn: object
    shape: str

    def __post_init__(self):
        if self.shape not in ("convex", "concave", "linear"):
            raise ValueError("shape must be convex, concave or linear")

    def __call__(self, t):
        return self.fn(t)


def adjoint(gen):
    """The adjoint generator f*(t) = t * f(1/t).

    Shape is preserved; the adjoint of the adjoint is pointwise the
    original.
    """
    inner = gen.fn

    def fn(t):
        t = np.asarray(t, dtype=float)
        return t * inner(1.0 / t)

    name = gen.name[4:-1] if gen.name.startswith("adj(") else "adj(%s)" % gen.name
    return DivergenceGenerator(name=name, fn=fn, shape=gen.shape)


def kl_generator():
    """f(t) = t log t, the Kullback-Leibler generator (convex)."""
    return DivergenceGenerator(name="kl", fn=lambda t: t * np.log(t), shape="convex")


def neg_log_generator():
    """f(t) = -log t, the reverse Kullback-Leibler generator (convex)."""
    return DivergenceGenerator(name="neg-log", fn=lambda t: -np.log(t), shape="convex")


def _finite_alpha(alpha):
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite, got the non-finite value %r" % alpha)
    return alpha


def power_generator(alpha):
    """f(t) = t^alpha: convex outside [0, 1], concave inside, linear at ends.

    Raises:
        ValueError: for a non-finite alpha.
    """
    alpha = _finite_alpha(alpha)
    if alpha in (0.0, 1.0):
        shape = "linear"
    elif 0.0 < alpha < 1.0:
        shape = "concave"
    else:
        shape = "convex"
    return DivergenceGenerator(
        name="power(%g)" % alpha, fn=lambda t: _power(np.asarray(t, dtype=float), alpha),
        shape=shape)


def sqrt_generator():
    """f(t) = sqrt(t) (concave); its Jensen bound goes the upper way."""
    return replace(power_generator(0.5), name="sqrt")


def linear_generator(a=1.0, b=0.0):
    """f(t) = a*t + b, for which every divergence is an exact moment."""
    a, b = float(a), float(b)
    return DivergenceGenerator(
        name="linear(%g,%g)" % (a, b), fn=lambda t: a * np.asarray(t, dtype=float) + b,
        shape="linear")


def check_shape(gen):
    """Sampled sanity check of the declared shape.

    Not a proof; evaluates f on a logarithmic grid of 121 points over
    [1e-3, 1e3] and inspects the signs of the second divided differences
    (plain second differences would test convexity in log t instead, since
    the grid is non-uniform).
    """
    t = np.geomspace(1e-3, 1e3, 121)
    vals = np.asarray(gen(t), dtype=float)
    d1 = (vals[1:-1] - vals[:-2]) / (t[1:-1] - t[:-2])
    d2 = (vals[2:] - vals[1:-1]) / (t[2:] - t[1:-1])
    second = (d2 - d1) / (t[2:] - t[:-2])
    tol = 1e-9 * (1.0 + np.abs(d1) + np.abs(d2)) / (t[2:] - t[:-2])
    if gen.shape == "convex":
        return bool(np.all(second >= -tol))
    if gen.shape == "concave":
        return bool(np.all(second <= tol))
    return bool(np.all(np.abs(second) <= tol))


@dataclass(frozen=True)
class ConeDensityPair:
    """Node-wise cone measure densities and weighting measure of a body.

    Attributes:
        p: density H_{n-1}/h^n per node (polar-side cone measure).
        q: density h per node (body-side cone measure).
        mu: weighting measure density against the sphere measure per node.
        ratio: p/q = 1/(s_{n-1} h^(n+1)), the Petty ratio H_{n-1}/h^(n+1).
    """

    p: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    ratio: np.ndarray
    body_label: str
    index: WeightIndex
    rule_name: str


def cone_densities(body, index, rule=None):
    """Evaluate both cone densities and the mu weights on the rule nodes."""
    _check_index(body, index)
    if rule is None:
        rule = default_rule(body.dim)
    return _densities(body, index, rule)


def _densities(body, index, rule):
    # cone_densities for an index the caller has checked
    g, (log_h, _) = _grid_logs(body, rule)
    return ConeDensityPair(p=_inv_s_h(g, log_h, body.dim), q=g.h,
                           mu=mu_density(body, index, rule),
                           ratio=_inv_s_h(g, log_h, body.dim + 1),
                           body_label=body.label, index=index, rule_name=rule.name)


def _inv_s_h(g, log_h, e):
    # 1 / (s_{n-1} h^e), the power of h as _power forms it, from the log kept
    # with the grid: p for e = n, the ratio p/q for e = n + 1
    return 1.0 / (g.s_top * np.exp(float(e) * log_h))


def f_divergence(body, index, gen, rule=None, direction="PQ"):
    """D_f(P_K, Q_K) = integral of f(p/q) q dmu (or with roles swapped).

    Args:
        direction: "PQ" for D_f(P, Q), "QP" for D_f(Q, P).
    """
    if rule is None:
        rule = default_rule(body.dim)
    pair = cone_densities(body, index, rule)
    if direction == "PQ":
        vals = np.asarray(gen(pair.ratio), dtype=float) * pair.q
    elif direction == "QP":
        vals = np.asarray(gen(1.0 / pair.ratio), dtype=float) * pair.p
    else:
        raise ValueError("direction must be 'PQ' or 'QP', got %r" % direction)
    return integrate(rule, vals * pair.mu)


def kl_divergence(body, index, direction="PQ", rule=None, normalized=False):
    """Kullback-Leibler divergence of the cone measure pair.

    With normalized=True both measures are rescaled to probability measures
    first, which makes the result nonnegative (it vanishes exactly when the
    Petty ratio is constant, that is on centered ellipsoids).  Computed
    once per index, direction, normalization and rule and kept on the body.
    """
    _check_index(body, index)
    if direction not in ("PQ", "QP"):
        raise ValueError("direction must be 'PQ' or 'QP', got %r" % direction)
    if rule is None:
        rule = default_rule(body.dim)
    normalized = bool(normalized)

    def compute():
        pair = _densities(body, index, rule)
        if direction == "PQ":
            num, den, logr = pair.p, pair.q, np.log(pair.ratio)
        else:
            num, den, logr = pair.q, pair.p, -np.log(pair.ratio)
        if not normalized:
            return integrate(rule, num * logr * pair.mu)
        mass_num = integrate(rule, num * pair.mu)
        mass_den = integrate(rule, den * pair.mu)
        raw = integrate(rule, num * logr * pair.mu)
        return raw / mass_num + math.log(mass_den / mass_num)

    return _cached(body, ("kl", index, direction, normalized, rule), compute)


def hellinger(body, index, alpha, rule=None):
    """Hellinger integral of order alpha: integral of p^alpha q^(1-alpha) dmu.

    At alpha = p/(n+p) this equals the weighted L_p affine surface area;
    alpha=0 and alpha=1 give the total masses of Q and P.  Computed once
    per index, alpha and rule and kept on the body.

    Raises:
        ValueError: for a non-finite alpha.
    """
    alpha = _finite_alpha(alpha)
    _check_index(body, index)
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        # p^alpha q^(1-alpha) mu, each power as _power forms it; log q is the kept log h
        g, (log_h, _) = _grid_logs(body, rule)
        e = 1.0 - alpha
        q_part = np.ones_like(log_h) if e == 0.0 else np.exp(e * log_h)
        vals = _power(_inv_s_h(g, log_h, body.dim), alpha) * q_part
        return integrate(rule, vals * mu_density(body, index, rule))

    return _cached(body, ("hellinger", index, alpha, rule), compute)


def renyi(body, index, alpha, rule=None):
    """Renyi divergence log(Hellinger_alpha) / (alpha - 1) for finite alpha != 1."""
    alpha = float(alpha)
    if alpha == 1.0:
        raise ValueError("Renyi divergence is undefined at alpha = 1")
    return math.log(hellinger(body, index, alpha, rule)) / (alpha - 1.0)


@dataclass(frozen=True)
class JensenBound:
    """Comparison of D_f(P, Q) against the Jensen value of the mass ratio.

    rhs is f(omega^inf / omega^0) * omega^0 (the literal Jensen bound for
    the q-weighted mean of the density ratio); rhs_stated is the same with
    a 1/n multiplier, recorded because the two conventions circulate.
    Concave generators satisfy lhs <= rhs, convex ones the reverse, linear
    ones equality.
    """

    lhs: float
    rhs: float
    rhs_stated: float
    gap: float
    holds: bool
    shape: str


def jensen_bound(body, index, gen, rule=None):
    """Evaluate the Jensen comparison for a generator of declared shape."""
    lhs = f_divergence(body, index, gen, rule)
    om0 = weighted_asa(body, index, 0.0, rule).value
    ominf = weighted_asa(body, index, math.inf, rule).value
    arg = np.asarray([ominf / om0])
    rhs = float(np.asarray(gen(arg), dtype=float)[0]) * om0
    gap = rhs - lhs
    # the gap left to rounding: 1e-10 relative to max(|lhs|, |rhs|, 1)
    tol = 1e-10 * max(abs(lhs), abs(rhs), 1.0)
    if gen.shape == "concave":
        holds = gap >= -tol
    elif gen.shape == "convex":
        holds = gap <= tol
    else:
        holds = abs(gap) <= tol
    return JensenBound(lhs=lhs, rhs=rhs, rhs_stated=rhs / body.dim,
                       gap=gap, holds=holds, shape=gen.shape)
