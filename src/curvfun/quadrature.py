"""Fixed quadrature rules on the unit circle and the unit sphere.

Two rule families cover everything the library integrates:

* dim 2: equally spaced angles with uniform weights (the trapezoidal rule,
  which is spectrally accurate for smooth periodic integrands),
* dim 3: Gauss-Legendre nodes in the cosine of the polar angle crossed with
  equally spaced azimuths.

Every integral is the correctly rounded sum of the weighted node values,
the same bits as ``math.fsum``, so it does not depend on node order and
repeated integrations of the same data are bit-identical.  The exact sum
is found by error-free extraction (Rump, Ogita & Oishi, "Accurate
floating-point summation, part I: faithful rounding", SIAM J. Sci. Comput.
31(1), 2008): one vectorized pass and a rounding that is certified to be
the correct one (part II: "sign, K-fold faithful and rounding to nearest",
SIAM J. Sci. Comput. 31(2), 2008).  Only a sum too close to a tie for the
certificate takes further passes.
"""

import math

import numpy as np

from ._extrap import check_dim, check_whole

__all__ = [
    "SphereRule",
    "circle_rule",
    "sphere_rule",
    "default_rule",
    "parse_rule_spec",
    "integrate",
]


class SphereRule:
    """Immutable node/weight table for integration over S^(dim-1).

    Attributes:
        dim: ambient dimension, 2 or 3 (read by check_dim, so 2.0 is 2).
        nodes: (N, dim) unit vectors.
        weights: (N,) positive weights summing to the sphere area.
        name: short spec string such as "512" or "64x128".
    """

    __slots__ = ("dim", "nodes", "weights", "name")

    def __init__(self, dim, nodes, weights, name):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "dim", check_dim(dim))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "name", name)

    def __setattr__(self, *_):
        raise AttributeError("SphereRule is immutable")

    def __len__(self):
        return self.nodes.shape[0]

    def __repr__(self):
        return "SphereRule(dim=%d, name=%r, nodes=%d)" % (self.dim, self.name, len(self))


def circle_rule(n_nodes=512):
    """Equally spaced rule on S^1 with weights 2*pi/N.

    Args:
        n_nodes: number of angles, at least 8, read by check_whole.
    """
    n_nodes = check_whole(n_nodes, "n_nodes")
    if n_nodes < 8:
        raise ValueError("circle rule needs at least 8 nodes, got %d" % n_nodes)
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(n_nodes, 2.0 * math.pi / n_nodes)
    return SphereRule(2, nodes, weights, str(n_nodes))


def sphere_rule(n_polar=64, n_azimuth=128):
    """Product rule on S^2: Gauss-Legendre in cos(polar) times uniform azimuth.

    Args:
        n_polar: Gauss-Legendre point count in t = cos(polar), at least 8.
        n_azimuth: equally spaced azimuth count, at least 16.

    Both counts are read by check_whole.
    """
    n_polar, n_azimuth = check_whole(n_polar, "n_polar"), check_whole(n_azimuth, "n_azimuth")
    if n_polar < 8:
        raise ValueError("sphere rule needs at least 8 polar nodes, got %d" % n_polar)
    if n_azimuth < 16:
        raise ValueError("sphere rule needs at least 16 azimuth nodes, got %d" % n_azimuth)
    t, wt = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    wphi = 2.0 * math.pi / n_azimuth
    st = np.sqrt(1.0 - t * t)
    # node layout: polar index varies slowest, azimuth fastest
    x = np.outer(st, np.cos(phi)).ravel()
    y = np.outer(st, np.sin(phi)).ravel()
    z = np.repeat(t, n_azimuth)
    nodes = np.stack([x, y, z], axis=1)
    weights = np.repeat(wt * wphi, n_azimuth)
    return SphereRule(3, nodes, weights, "%dx%d" % (n_polar, n_azimuth))


_DEFAULT_RULES = {}


def default_rule(dim):
    """Library default: 512 angles on S^1, 64x128 product nodes on S^2.

    Built once per dimension and shared: every call with the same dim
    returns the same read-only rule, so results cached per rule on a body
    are found again by later default-rule calls.  2.0 and numpy integers
    find the int's rule; a dim that misses the table goes through
    check_dim, so 4 raises.
    """
    if dim not in _DEFAULT_RULES:
        dim = check_dim(dim)
        _DEFAULT_RULES[dim] = circle_rule(512) if dim == 2 else sphere_rule(64, 128)
    return _DEFAULT_RULES[dim]


def parse_rule_spec(spec, dim):
    """Build a rule from a CLI-style string: "N" for dim 2, "NPxNA" for dim 3.

    dim is read by check_dim.
    """
    dim = check_dim(dim)
    spec = spec.strip()
    try:
        if dim == 2:
            return circle_rule(int(spec))
        left, _, right = spec.partition("x")
        if not right:
            raise ValueError
        return sphere_rule(int(left), int(right))
    except ValueError:
        raise ValueError(
            "bad rule spec %r for dimension %d (expected e.g. %r)"
            % (spec, dim, "512" if dim == 2 else "64x128")
        ) from None


def integrate(rule, integrand):
    """Integrate per-node values against the rule.

    Returns the correctly rounded sum of the weighted values (the same bits
    as math.fsum, found by error-free extraction), so the result is
    independent of node order and reproducible run to run.

    Args:
        rule: SphereRule.
        integrand: (N,) array of values at rule.nodes.

    Raises:
        ValueError: if any integrand value is not finite (the offending node
            index and direction are reported).
    """
    values = np.asarray(integrand, dtype=float)
    if values.shape != (len(rule),):
        raise ValueError(
            "integrand shape %s does not match rule with %d nodes" % (values.shape, len(rule))
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(
            "non-finite integrand value %r at node %d, u=%s"
            % (float(values[bad]), bad, rule.nodes[bad].tolist())
        )
    return _exact_sum(values * rule.weights)


def _exact_sum(p):
    """Correctly rounded sum of a 1-D float64 array: the bits of math.fsum.

    Each pass splits every value into (p + sigma) - sigma, its rounding to
    the float grid at sigma, and an exact remainder, where sigma is a power
    of two above 2**shift times the largest magnitude.  The rounded parts
    are multiples of one grid step and their total stays below sigma, so
    they sum exactly in any order (Rump, Ogita & Oishi 2008, part I, Lemma
    3.3).  After the first pass the sum is that exact part plus a float sum
    of remainders whose error is bounded (`_certified`); when the bound
    shows which float the exact sum rounds to, that float is returned
    (part II's rounding to nearest).  Otherwise, near a tie, the remainders
    are split again until none is left, and fsum rounds the few exact
    partial sums once.  Values that are not finite or so large that sigma
    would overflow go to fsum unchanged, so they raise or propagate exactly
    as fsum does.
    """
    p = np.asarray(p, dtype=float)
    shift = (p.size + 1).bit_length()  # 2**shift >= n + 2
    limit = math.ldexp(1.0, 1022 - shift)
    parts = []
    q = np.empty_like(p)
    while True:
        top = np.abs(p, out=q).max(initial=0.0)
        if not top < limit:
            return math.fsum(p.tolist() + parts)
        if top == 0.0:
            # all-zero input: fsum picks the sign of the zero
            return math.fsum(parts or p.tolist())
        e = math.frexp(top)[1] + shift
        sigma = math.ldexp(1.0, e)
        np.add(p, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        p = p - q
        if len(parts) == 1:
            res = _certified(parts[0], float(p.sum()), math.ldexp(p.size * p.size, e - 105))
            if res is not None:
                return res


def _certified(hi, lo, bound):
    """hi + lo rounded, if that is the rounding of every hi + x, |x - lo| <= bound.

    Here hi is the exact sum of the first pass's parts and lo the float sum
    of its n remainders, each at most 2**(e-53) for sigma = 2**e; lo is
    within gamma_(n-1) * n * 2**(e-53) < 2 * n**2 * 2**(e-106) = bound of
    their exact sum.  With res = hi + lo and its exact error err (TwoSum),
    the exact total lies within bound of res + err, and res is its rounding
    when that interval sits strictly inside res's rounding interval: half
    the gap to each neighbouring float, and the gap toward zero is halved
    when |res| is a power of two.  The strict test leaves ties to the
    caller; None also for a zero or non-finite res and a bound too small to
    be exact, so the sign of zero and overflow are settled there too.
    """
    res = hi + lo
    if res == 0.0 or not math.isfinite(res) or bound < 2.0 ** -1000:
        return None
    z = res - hi
    err = (hi - (res - z)) + (lo - z)
    half = 0.5 * math.ulp(res)
    inner = 0.5 * half if abs(math.frexp(res)[0]) == 0.5 else half
    below, above = (inner, half) if res > 0 else (half, inner)
    # a half gap is a power of two, so the rounded sums compare as the exact ones
    if -below < err - bound and err + bound < above:
        return res
    return None
