"""Weighted L_p affine surface areas and their special cases.

The central object is the two-parameter family

    omega^p_{m,k,i}(K) = integral over the sphere of
        c_n * s_{n-1}^(1 - p/(n+p) - sum_j i_j)
            * prod_j s_{n-1-j}^(i_j)
            * h^(m - k - n(p-1)/(n+p)),

where s_j are the normalized symmetric functions of the principal radii,
h is the support function, the integer weights i = (i_1, ..., i_{n-1})
satisfy sum_j j*i_j = m, and c_n = prod_j binom(n-1, j)^(i_j).  This is the
boundary integral of the curvature-power weight transported to the sphere
by the reverse Gauss map (whose Jacobian is s_{n-1}).

Special slices: p=0 gives n times the weighted volume of K, the symbolic
p=inf gives n times the weighted volume of the polar body, and the zero
index recovers the classical L_p affine surface area.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _cached, curvature_arrays, curvature_grid
from .quadrature import default_rule, integrate

__all__ = [
    "WeightIndex",
    "FunctionalValue",
    "asa_exponents",
    "weighted_asa",
    "asa",
    "weighted_volume",
    "weighted_polar_volume",
    "homogeneity_degree",
    "lutwak_density",
    "mu_density",
]


@dataclass(frozen=True)
class WeightIndex:
    """Weight exponents (m, k, i) of the curvature-power measure.

    m is a nonnegative integer, k any real number, and i a tuple of
    nonnegative integers (i_1, ..., i_{n-1}) constrained by
    sum_j j * i_j = m.  The ambient dimension is len(i) + 1.
    """

    m: int
    k: float
    i: tuple

    def __post_init__(self):
        i = tuple(self.i)
        for name, vals in (("m", (self.m,)), ("k", (self.k,)), ("i", i)):
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.m != int(self.m) or self.m < 0:
            raise ValueError("m must be a nonnegative integer, got %r" % (self.m,))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "k", float(self.k))
        if len(i) not in (1, 2):
            raise ValueError("i must have length dim-1 (1 or 2), got %r" % (i,))
        if any(v != int(v) or v < 0 for v in i):
            raise ValueError("i entries must be nonnegative integers, got %r" % (i,))
        i = tuple(int(v) for v in i)
        object.__setattr__(self, "i", i)
        weighted = sum(j * v for j, v in enumerate(i, start=1))
        if weighted != self.m:
            raise ValueError(
                "weight constraint sum_j j*i_j = m violated: %r gives %d, m = %d"
                % (i, weighted, self.m))
        # the dataclass's own hash value, taken once: every cache key that
        # holds an index hashes it on each lookup
        object.__setattr__(self, "_hash", hash((self.m, self.k, self.i)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self):
        return len(self.i) + 1

    @property
    def sum_i(self):
        return sum(self.i)

    @property
    def c_n(self):
        """The binomial normalizer prod_j binom(n-1, j)^(i_j)."""
        n = self.dim
        out = 1
        for j, v in enumerate(self.i, start=1):
            out *= math.comb(n - 1, j) ** v
        return out

    @classmethod
    def zero(cls, dim, k=0.0):
        return cls(0, k, (0,) * (dim - 1))


@dataclass(frozen=True)
class FunctionalValue:
    """A functional evaluation together with what produced it.

    weighted_asa keeps the record on the body: a repeat with the same
    index object gets this very record back, so treat it as shared.
    """

    value: float
    p: float
    index: WeightIndex
    body_label: str
    rule_name: str


def _validate_p(dim, p):
    p = float(p)
    if math.isnan(p) or p == -math.inf:
        raise ValueError("p must be a real number or +inf, got %r" % p)
    if p == -dim:
        raise ValueError("p = -%d is excluded (the exponents divide by n+p)" % dim)
    return p


def asa_exponents(dim, p):
    """The exponent pair (alpha, beta) = (p/(n+p), n(p-1)/(n+p)).

    The symbolic p=inf takes the limiting values (1, n).  Where n(p-1)
    overflows (|p| above about 1.8e308 / n), beta is n * ((p-1)/(n+p)).
    """
    p = _validate_p(dim, p)
    if p == math.inf:
        return 1.0, float(dim)
    return p / (dim + p), _ratio(dim, p - 1.0, dim + p)


def _ratio(n, a, b):
    # n * a / b, divided first only where n * a overflows (|p| near 1e308),
    # so every finite value keeps its bits
    out = n * a / b
    return out if math.isfinite(out) else n * (a / b)


def _check_index(body, index):
    if not isinstance(index, WeightIndex):
        raise TypeError("index must be a WeightIndex")
    if index.dim != body.dim:
        raise ValueError(
            "index dimension %d does not match body dimension %d"
            % (index.dim, body.dim))


def _power(base, expo):
    # positive-base powers as exp(e * log(base)); e = 0 short-circuits to 1
    if expo == 0.0:
        return np.ones_like(base)
    return np.exp(expo * np.log(base))


def _grid_logs(body, rule):
    """The rule's curvature grid and (log h, log s_{n-1}), both kept on the body.

    These are the np.log calls _power makes on the grid, taken once: a
    power of either column is np.exp(e * log) with the same bits.
    """
    g = curvature_grid(body, rule)

    def compute():
        logs = np.log(g.h), np.log(g.s_top)
        for a in logs:
            a.setflags(write=False)
        return logs

    return g, _cached(body, ("logs", rule), compute)


def _integrand(body, index, rule, e_top, e_h=0.0):
    """c_n * h^(m-k) * prod_j s_{n-1-j}^(i_j) * s_{n-1}^e_top * h^e_h per node.

    The factors are multiplied in that order, each power np.exp(e * log) as
    in _power, so the bits are those of a chain of _power calls.  A factor
    that is exactly 1 is skipped: exponent 0, as in _power, and every power
    of s_0, a column of exact ones.  The middle column s_1 of a 3-D grid is
    read only for i_1 > 0, so its log is taken per call and not kept.
    """
    g, (log_h, log_top) = _grid_logs(body, rule)
    n = index.dim
    # (log of the base, exponent) in the chain's order; i_{n-1} powers s_0
    factors = [(log_h, index.m - index.k)]
    factors += [(np.log(g.s[:, n - 1 - j]), float(v))
                for j, v in enumerate(index.i[:n - 2], start=1) if v]
    factors += [(log_top, e_top), (log_h, e_h)]
    out = float(index.c_n)
    for log, e in factors:
        if e != 0.0:
            out = out * np.exp(e * log)
    return out if isinstance(out, np.ndarray) else np.full_like(g.h, out)


def weighted_asa(body, index, p, rule=None):
    """The weighted L_p affine surface area omega^p_{m,k,i}(K).

    Args:
        body: SupportBody with positive curvature.
        index: WeightIndex matching the body dimension.
        p: real p != -n, or math.inf for the symbolic limit.
        rule: quadrature rule; defaults to the per-dimension default.

    Returns:
        FunctionalValue whose .value is the integral.  The body keeps the
        first call's record, and a repeat with the same index object (and
        the same sign of a zero p) returns that record itself.

    The integrand is _integrand's chain with e_top = 1 - alpha - sum_i and
    e_h = -beta, read from the logs kept with the grid, so a miss takes no
    log of h or s_{n-1}.
    """
    _check_index(body, index)
    p = _validate_p(body.dim, p)
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        alpha, beta = asa_exponents(body.dim, p)
        vals = _integrand(body, index, rule, 1.0 - alpha - index.sum_i, -beta)
        return FunctionalValue(integrate(rule, vals), p, index, body.label, rule.name)

    record = _cached(body, ("omega", index, p, rule), compute)
    # the key matches an equal index and an equal p, and -0.0 == 0.0
    if record.index is index and (p or math.copysign(1.0, p) == math.copysign(1.0, record.p)):
        return record
    return FunctionalValue(record.value, p, index, body.label, rule.name)


# the zero index of each dimension, validated once
_ZERO_INDEX = {dim: WeightIndex.zero(dim) for dim in (2, 3)}


def asa(body, p, rule=None):
    """Classical L_p affine surface area: the zero weight index."""
    return weighted_asa(body, _ZERO_INDEX[body.dim], p, rule)


def weighted_volume(body, index, rule=None):
    """Weighted volume of K: omega^0 / n."""
    return weighted_asa(body, index, 0.0, rule).value / body.dim


def weighted_polar_volume(body, index, rule=None):
    """Weighted volume of the polar body: omega^inf / n.

    Evaluated on K itself through the limiting integrand; no polar
    construction is involved.
    """
    return weighted_asa(body, index, math.inf, rule).value / body.dim


def homogeneity_degree(dim, p, k):
    """Scaling exponent q with omega(aK) = a^q * omega(K): n(n-p)/(n+p) - k."""
    p = _validate_p(dim, p)
    if p == math.inf:
        return -float(dim) - k
    return _ratio(dim, dim - p, dim + p) - k


def lutwak_density(body, p, u):
    """The L_p curvature density (f_K / h^(p-1))^(n/(n+p)) at direction u.

    f_K = s_{n-1} is the curvature function.  For p=inf this degenerates to
    h^-n, the polar volume density.
    """
    alpha, beta = asa_exponents(body.dim, p)
    u = np.asarray(u, dtype=float)
    h, _, _, s, _ = curvature_arrays(body, u[None, :])
    val = _power(s[:, -1], 1.0 - alpha) * _power(h, -beta)
    return float(val[0])


def mu_density(body, index, rule=None):
    """Per-node density of the weighting measure against the sphere measure.

    This is c_n * h^(m-k) * prod_j H_j^(i_j) * s_{n-1}: the boundary measure
    mu_i of the weight index, transported to the sphere (the trailing
    s_{n-1} is the reverse Gauss map Jacobian).  The same chain as
    weighted_asa's integrand, with e_top = 1 - sum_i and no trailing h.
    """
    _check_index(body, index)
    if rule is None:
        rule = default_rule(body.dim)
    return _integrand(body, index, rule, 1.0 - index.sum_i)
