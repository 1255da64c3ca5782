"""Random inscribed polytopes driven by curvature-weighted densities.

Sampling N boundary points from a positive density f and taking their
convex hull leaves an expected volume deficit decaying like N^(-2/(n-1)).
The limit constant is a curvature integral which, for the matched
densities built here, collapses to a weighted affine surface area times a
power of the density's normalizer.  This module constructs the densities,
samples from them by rejection, measures hull deficits, and extrapolates
the scaled means for comparison against that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._extrap import check_steps, neville_to_zero, neville_weights
from .functionals import (WeightIndex, _ZERO_INDEX, _check_index, _power, _validate_p,
                          asa_exponents, weighted_asa)
from .geometry import _cached, _check_positive, _curvature_core, body_volume, curvature_grid
from .quadrature import _exact_sum, default_rule, integrate

__all__ = [
    "BoundaryDensity",
    "DeficitEstimate",
    "EnvelopeError",
    "HullResult",
    "IdentityCheck",
    "MCInterpretation",
    "SampleStats",
    "boundary_density",
    "density_functional_identity",
    "expected_deficit",
    "hull_volume",
    "interpretation_check",
    "random_polytope_constant",
    "sample_boundary",
]


class EnvelopeError(RuntimeError):
    """The rejection envelope was exceeded between quadrature nodes."""


def random_polytope_constant(dim):
    """Limit constant c_n in the expected-deficit law for boundary hulls.

    Closed form: (n-1)^((n+1)/(n-1)) * Gamma(n+1 + 2/(n-1)) over
    2 * (n+1)! * b^(2/(n-1)), where b is the boundary measure of the unit
    ball in R^(n-1).  Evaluates to 1/2 in the plane and 1/pi in space.
    """
    n = int(dim)
    if n < 2:
        raise ValueError("dim must be >= 2")
    m = n - 1
    bdry = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    num = (n - 1.0) ** ((n + 1.0) / (n - 1.0)) * math.gamma(n + 1.0 + 2.0 / (n - 1.0))
    den = 2.0 * math.factorial(n + 1) * bdry ** (2.0 / (n - 1.0))
    return num / den


def _density_values(h, s, index, p):
    # f at boundary points with normals u, from sphere-side curvature data
    # s = (s_0, ..., s_{n-1}), given as columns: a Gauss-curvature power times
    # the inverse square-root of the weight bracket (in the duals H_j =
    # s_{n-1-j} / s_{n-1}), times a support power.  All bases are positive.
    n = index.dim
    _, beta = asa_exponents(n, p)
    e_top = (2.0 * p + n * (1.0 - p)) / (2.0 * (n + p))
    if not math.isfinite(e_top):
        # 2p or n(1 - p) overflowed (|p| near 1e308): the same terms, divided first
        e_top = (2.0 * (p / (n + p)) + n * ((1.0 - p) / (n + p))) / 2.0
    vals = _power(s[-1], -e_top)
    e_h = (beta + index.k - index.m) * (n - 1.0) / 2.0
    if e_h != 0.0:
        vals = vals * _power(h, e_h)
    for j, v in enumerate(index.i, start=1):
        if v:
            vals = vals * _power(s[n - 1 - j] / s[-1], -v * (n - 1.0) / 2.0)
    cn = float(index.c_n)
    if cn != 1.0:
        vals = vals * cn ** (-(n - 1.0) / 2.0)
    return vals


def _arc_cells(rule):
    # the planar hat's cells: the arcs between consecutive nodes in angle
    # order, as (K, 2) node indices (a_k, b_k), and the two arcs next to
    # each
    nodes = rule.nodes
    angle = np.mod(np.arctan2(nodes[:, 1], nodes[:, 0]), 2.0 * math.pi)
    order = np.argsort(angle)
    start = np.take(angle, order)
    width = np.diff(start, append=start[0] + 2.0 * math.pi)
    gap = int(np.argmax(width))
    if width[gap] >= math.pi:
        raise ValueError(
            "rule %r leaves a gap of %.6g rad (pi or more) after the node at"
            " angle %.6g; planar sampling needs every gap between"
            " consecutive nodes below pi" % (rule.name, width[gap], start[gap]))
    near = (np.arange(len(order))[:, None] + [-1, 1]) % len(order)
    return np.stack([order, np.roll(order, -1)], axis=1), near


def _facet_cells(rule):
    # the spatial hat's cells: the triangles of the nodes' convex hull as
    # (K, 3) node indices, the three triangles next to each, and each
    # triangle's outer unit normal and plane distance from the origin.
    # qhull sees the nodes in lexicographic order, so the cells do not
    # depend on the rule's node order
    # imported here: scipy.spatial is most of the package's import time
    from scipy.spatial import ConvexHull

    order = np.lexsort(rule.nodes.T)
    hull = ConvexHull(rule.nodes[order])
    dist = -hull.equations[:, -1]
    if not np.min(dist) > 0.0:
        raise ValueError(
            "rule %r does not surround the origin: a face of its nodes' hull"
            " lies at distance %.6g; spatial sampling needs every face on"
            " the far side of the origin" % (rule.name, np.min(dist)))
    return order[hull.simplices], hull.neighbors, hull.equations[:, :-1], dist


@dataclass(frozen=True, eq=False)
class BoundaryDensity:
    """A curvature-weighted sampling density on the boundary of a body.

    values holds f at the rule nodes; sphere_values holds f * s_{n-1}, the
    same density transported to the sphere, which is what the rejection
    sampler bounds.  normalizer is the total mass of f over the boundary,
    so f / normalizer is a probability density.

    The sampler's hat is built over flat cells between rule nodes: in the
    plane the chords between consecutive nodes in angle order, in space the
    triangles of the nodes' convex hull, as qhull triangulates the nodes in
    lexicographic order.  A cell lies
    in a plane at distance d_k from the origin, and a point p uniform on it
    gives the direction p / |p| a sphere density proportional to |p|^n, so
    the cell's hat c_k |p|^n with c_k = height_k / d_k^n is never below
    height_k, and its mass is c_k d_k times the cell's length or area.  In
    the plane c_k = 2 height_k / (1 + a_k . b_k) and the mass is
    c_k (a_k x b_k) for the chord from a_k to b_k.  Cell k's height is
    safety times the largest sphere_values at the vertices of the cell and
    of its neighbours; in space the target at the cell's normal counts
    too, since a coplanar polar cap of a product rule has no node near the
    pole.  The cells and an alias table over their masses are built from
    the fields on construction, so dataclasses.replace(density,
    safety=...) rescales every height.  A planar rule leaving a gap of pi
    or more between consecutive nodes, or a spatial rule whose hull does
    not surround the origin, is refused with a ValueError.
    """

    body: object
    index: WeightIndex
    p: float
    rule: object
    values: np.ndarray
    sphere_values: np.ndarray
    normalizer: float
    safety: float

    def __post_init__(self):
        # _cells holds the cells as rows (a, d_1, ..., d_{n-1}, c), a vertex
        # a and the edges d_i from it, and the alias table as (index +
        # acceptance threshold, alias) per cell; _mass is the hat's integral
        # over the sphere.  Heights are envelope * (peak / max v), which can
        # round apart from safety * peak; the sample streams hang on them
        nodes, v = self.rule.nodes, self.sphere_values
        if self.body.dim == 2:
            tri, near = _arc_cells(self.rule)
        else:
            tri, near, normal, dist = _facet_cells(self.rule)
        peak = np.max(np.take(v, np.take(tri, near, axis=0)).reshape(len(tri), -1), axis=1)
        if self.body.dim == 3:
            peak = np.maximum(peak, self.target(normal))
        height = self.envelope * (peak / np.max(v))
        a, b, *far = (np.take(nodes, col, axis=0) for col in tri.T)
        edges = [b - a] + [e - a for e in far]
        if self.body.dim == 2:
            c = 2.0 * height / (1.0 + np.einsum("ij,ij->i", a, b))
            mass = c * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        else:
            c = height / dist ** 3
            mass = c * dist * (0.5 * np.linalg.norm(np.cross(*edges), axis=1))
        # C order: a proposal round gathers columns, and a column gather
        # from a Fortran-ordered table copies the whole table first
        table = np.ascontiguousarray(np.vstack([a.T, *(e.T for e in edges), c]))
        object.__setattr__(self, "_cells", (table, *_alias_table(mass)))
        object.__setattr__(self, "_mass", float(np.sum(mass)))

    @property
    def envelope(self):
        """safety times the largest sphere_values: the scale of the hat's
        heights, not a bound any proposal is tested against."""
        return self.safety * float(np.max(self.sphere_values))

    def target(self, U):
        """Sphere-side density f(x(u)) * s_{n-1}(u) at unit directions U.

        A planar body's fused oracle, if it has one, gives h and s_1 in one
        call; the tabulated values come from the hessian, like every grid.
        """
        U = np.asarray(U, dtype=float)
        if self.body.support_radius is None:
            h, radii, s = _curvature_core(self.body, U)
            s = s.T
        else:
            h, r = (np.asarray(v, dtype=float) for v in self.body.support_radius(U))
            radii, s = r[:, None], (1.0, r)
        _check_positive(self.body, U, h, radii)
        return _density_values(h, s, self.index, self.p) * s[-1]


def boundary_density(body, index=None, p=1.0, rule=None, safety=1.5):
    """Tabulate the matched boundary density for (index, p) on a rule.

    safety is the one scale of the hat's heights; the density's envelope
    is safety times the largest sphere-side value at the rule nodes, not a
    bound any proposal is tested against.  The hat has one height per cell
    between rule nodes, chords in the plane and the triangles of the
    nodes' convex hull in space: safety times the largest value at the
    vertices of the cell and of its neighbours, and in space at the cell's
    normal.  Proposals are drawn on the cells under the hat c_k |p|^n (see
    BoundaryDensity), so acceptance is about 1/safety on the 512-node
    circle; with the 64x128 sphere rule it is 0.56-0.67 on the ball, the
    2:1:1 and 3:1:0.5 ellipsoids and an eps = 0.05 perturbed ball.  In
    space the hull costs about 0.1-0.15 s per density.  A coarse rule can
    understate the true maximum, which the sampler later reports as an
    EnvelopeError.

    The density is kept on the body, keyed by (rule, index, p, safety), so
    a repeated call returns the same object and dies with the body.

    Raises:
        TypeError: if index is not a WeightIndex.
        ValueError: for symbolic p = inf (no sampling density there),
            mismatched index dimension, safety <= 1, a planar rule with a
            gap of pi or more between consecutive nodes, or a spatial rule
            whose hull does not surround the origin.
    """
    if index is None:
        index = _ZERO_INDEX[body.dim]
    p = _validate_p(body.dim, p)
    if not math.isfinite(p):
        raise ValueError("sampling densities need finite p")
    _check_index(body, index)
    if not safety > 1.0:
        raise ValueError("safety must exceed 1")
    if rule is None:
        rule = default_rule(body.dim)
    safety = float(safety)

    def compute():
        g = curvature_grid(body, rule)
        f = _density_values(g.h, g.s.T, index, p)
        sphere = f * g.s_top
        z = integrate(rule, sphere)
        f.setflags(write=False)
        sphere.setflags(write=False)
        return BoundaryDensity(
            body=body, index=index, p=p, rule=rule, values=f, sphere_values=sphere,
            normalizer=z, safety=safety)

    return _cached(body, ("density", rule, index, p, safety), compute)


class IdentityCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_error: float


def density_functional_identity(density):
    """Check int H^(1/(n-1)) f^(-2/(n-1)) dH against the weighted functional.

    For the matched density the two sides agree exactly; both are evaluated
    on the density's own rule, the left from the tabulated node values, the
    right from the functional integrand, so agreement is to roundoff.
    """
    n = density.body.dim
    g = curvature_grid(density.body, density.rule)
    integrand = (_power(g.s_top, 1.0 - 1.0 / (n - 1.0))
                 * _power(density.values, -2.0 / (n - 1.0)))
    lhs = integrate(density.rule, integrand)
    rhs = weighted_asa(density.body, density.index, density.p, density.rule).value
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return IdentityCheck(lhs=lhs, rhs=rhs, rel_error=rel)


class SampleStats(NamedTuple):
    """Counts of one sample_boundary call.

    accepted counts every accepted proposal of the rounds drawn, so it can
    exceed the request.
    """

    accepted: int
    proposals: int
    acceptance_rate: float


# proposal rows drawn in one sampler round at most, so a large safety
# factor (a low acceptance rate) cannot allocate count / acceptance rows
_ROUND_ROWS = 1 << 16


def _alias_table(mass):
    # Walker's alias table for drawing index k with probability proportional
    # to mass[k], built by Vose's method: x = K * uniform picks j = floor(x),
    # then j itself if x < thresh[j], else alias[j]
    K = len(mass)
    scaled = (mass * (K / np.sum(mass))).tolist()
    prob = [1.0] * K
    alias = list(range(K))
    small = [k for k in range(K) if scaled[k] < 1.0]
    large = [k for k in range(K) if scaled[k] >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        prob[lo], alias[lo] = scaled[lo], hi
        scaled[hi] += scaled[lo] - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    return np.arange(K) + np.array(prob), np.array(alias, dtype=np.intp)


def _simplex_proposals(rng, cells, dim, count):
    # proposals under the hat: a cell from the alias table, a point p
    # uniform on it, the direction p / |p|; returns the directions, the hat
    # c |p|^n at each and the uniforms that decide acceptance.  Draws come
    # as rows (x, t_1, ..., t_{n-1}, u); in space (t_1, t_2) is reflected
    # onto the triangle when t_1 + t_2 > 1.  Since dOmega = d dA / |p|^n,
    # the proposal density on the sphere is c |p|^n over the hat's mass.
    # x < K always: the largest uniform, 1 - 2^-53, times K rounds below K
    table, thresh, alias = cells
    x, *t, u = rng.random((dim + 1, count))
    x *= len(alias)
    j = x.astype(np.intp)
    k = np.where(x < np.take(thresh, j), j, np.take(alias, j))
    rows = np.take(table, k, axis=1)
    if dim == 3:
        flip = t[0] + t[1] > 1.0
        t = [np.where(flip, 1.0 - ti, ti) for ti in t]
    p = rows[:dim] + t[0] * rows[dim:2 * dim]
    if dim == 3:
        p += t[1] * rows[2 * dim:3 * dim]
    r2 = p[0] * p[0]
    for comp in p[1:]:
        r2 += comp * comp
    r = np.sqrt(r2)
    U = np.empty((count, dim))
    np.divide(p, r, out=U.T)
    hat = rows[-1] * r2 if dim == 2 else rows[-1] * r2 * r
    return U, hat, u


def sample_boundary(density, count, seed=None, return_stats=False):
    """Draw boundary points distributed as f / normalizer by rejection.

    Proposals are drawn from the hat; a proposal u is kept with probability
    target(u) / (hat at u) and mapped to the boundary point x(u).  If the
    true target ever exceeds the hat (the rule max was understated), an
    EnvelopeError is raised rather than silently skewing the sample.  Each
    proposal draws its cell from a Walker alias table over the cell
    masses, then a point p uniform on the cell, the chord between two
    nodes in the plane and a triangle of their hull in space, and takes
    the direction p / |p|.  Such a direction has sphere density
    proportional to the cell's hat c_k |p|^n (see BoundaryDensity), and it
    is tested against that hat, so no proposal needs a cosine or a sine.
    The spatial cells follow qhull's triangulation of the nodes in
    lexicographic order, so equal seeds give equal samples for a given
    scipy version, whatever the rule's node order.

    The acceptance rate is known in advance, normalizer over the hat's
    integral over the sphere, so each round draws (need + 4
    sqrt(need)) / rate proposals for the need points still missing, at
    most 65536; one round almost always suffices.  Only the target is
    evaluated on every proposal; the boundary points x(u) are computed for
    accepted rows alone, one round at a time, and the first count of them
    in draw order are returned.  A planar body's fused support_radius
    oracle, if any, replaces support and the hessian in the target.  The
    radii agree to rounding (about 1e-14 relative), so only a proposal
    that close to its threshold could be decided otherwise.

    seed: int, sequence of ints, or an existing numpy Generator.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    body = density.body
    rate = density.normalizer / density._mass
    chunks = []
    accepted = 0
    proposals = 0
    cap = 1000 * count + 100_000
    while accepted < count:
        if proposals > cap:
            raise RuntimeError(
                "rejection sampler stalled after %d proposals (%d accepted)"
                % (proposals, accepted))
        need = count - accepted
        batch = min(_ROUND_ROWS, math.ceil((need + 4.0 * math.sqrt(need)) / rate))
        U, env, u = _simplex_proposals(rng, density._cells, body.dim, batch)
        t = density.target(U)
        over = t - env
        worst = int(np.argmax(over))
        if over[worst] > 0.0:
            raise EnvelopeError(
                "density %.6g exceeds envelope %.6g at u=%s; rebuild with a"
                " finer rule or a larger safety factor"
                % (t[worst], env[worst], U[worst].tolist()))
        keep = u * env < t
        proposals += batch
        kept = int(np.count_nonzero(keep))
        if kept:
            chunks.append(np.asarray(body.gradient(np.compress(keep, U, axis=0)), dtype=float))
            accepted += kept
    points = np.concatenate(chunks, axis=0)[:count]
    if return_stats:
        return points, SampleStats(accepted=accepted, proposals=proposals,
                                   acceptance_rate=accepted / proposals)
    return points


class HullResult(NamedTuple):
    volume: float
    degenerate: bool


def hull_volume(points):
    """Volume of the convex hull of the given points.

    The planar branch sorts the points by angle about an interior point,
    their column sums over N, and applies the shoelace formula, which is
    only valid for points in convex position (always true for samples off
    a convex boundary).  The area is the correctly rounded sum of the cross
    products of consecutive vertices, so it does not depend on the row
    order of the points or on which vertex the cyclic order starts at.  The
    spatial branch delegates to qhull.  degenerate means the hull has empty
    interior.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("points must have shape (N, 2) or (N, 3)")
    N, n = pts.shape
    if N < n + 1:
        return HullResult(0.0, True)
    if n == 2:
        xs, ys = pts.T
        order = np.argsort(np.arctan2(ys - ys.sum() / N, xs - xs.sum() / N))
        xs, ys = np.take(pts, order, axis=0).T
        # the cross products of consecutive vertices, the wrap term last
        cross = np.empty_like(xs)
        np.subtract(xs[:-1] * ys[1:], xs[1:] * ys[:-1], out=cross[:-1])
        cross[-1] = xs[-1] * ys[0] - xs[0] * ys[-1]
        area = 0.5 * abs(_exact_sum(cross))
        return HullResult(area, area == 0.0)
    # imported here: scipy.spatial is most of the package's import time
    # and only the spatial branch needs it
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError:
        return HullResult(0.0, True)
    return HullResult(float(hull.volume), False)


@dataclass(frozen=True)
class DeficitEstimate:
    """Monte Carlo estimate of the expected hull volume deficit at one N."""

    n_points: int
    trials: int
    mean: float
    stderr: float
    scaled_mean: float
    scaled_stderr: float
    degenerate_trials: int


def expected_deficit(density, n_points, trials=256, seed=0):
    """Estimate E[vol(K) - vol(hull of n_points samples)] over trials.

    Each trial runs its own generator seeded with [*seed, trial], so runs
    are reproducible and trials are independent streams.  scaled_mean is
    the mean times n_points^(2/(n-1)), the quantity with a finite limit.
    Every trial is hull_volume(sample_boundary(density, n_points, seed=rng)).
    """
    n_points = int(n_points)
    trials = int(trials)
    if trials < 2:
        raise ValueError("trials must be >= 2 for a standard error")
    base = (int(seed),) if np.isscalar(seed) else tuple(int(v) for v in seed)
    vol = body_volume(density.body, density.rule)
    deficits = []
    degenerate = 0
    for t in range(trials):
        rng = np.random.default_rng([*base, t])
        res = hull_volume(sample_boundary(density, n_points, seed=rng))
        degenerate += res.degenerate
        deficits.append(vol - res.volume)
    mean = math.fsum(deficits) / trials
    var = math.fsum((d - mean) ** 2 for d in deficits) / (trials - 1)
    stderr = math.sqrt(var / trials)
    scale = float(n_points) ** (2.0 / (density.body.dim - 1.0))
    return DeficitEstimate(n_points=n_points, trials=trials, mean=mean,
                           stderr=stderr, scaled_mean=scale * mean,
                           scaled_stderr=scale * stderr,
                           degenerate_trials=degenerate)


@dataclass(frozen=True)
class MCInterpretation:
    """Extrapolated deficit constant next to its closed-form target.

    extrapolated_stderr is the standard error of extrapolated: the scaled
    standard errors of the estimates, independent across N, propagated
    through the Neville weights at 0.
    """

    body_label: str
    p: float
    index: WeightIndex
    n_schedule: tuple
    trials: int
    seed: int
    estimates: tuple
    extrapolated: float
    extrapolated_stderr: float
    target: float
    rel_error: float
    constant: float
    normalizer: float
    functional: float


def interpretation_check(body, p=1.0, index=None, n_schedule=(250, 500, 1000),
                         trials=512, seed=0, rule=None, allow_dim3=False):
    """Estimate the deficit limit and compare with c_n Z^(2/(n-1)) omega^p.

    Scaled means N^(2/(n-1)) E[deficit] are extrapolated to N = inf with a
    Neville tableau in the variable N^(-2/(n-1)).  The target couples the
    hull constant c_n, the density normalizer Z, and the weighted
    functional of the matched index.

    Spatial runs cost seconds, mostly in qhull: on a 2-core host (Python
    3.11, numpy 2.4, scipy 1.17), over three runs on the default
    schedule, the 2:1:1 ellipsoid took 1.8-2.6 s with 200 trials and
    4.2-6.8 s with the default 512, and the ball 1.7-2.2 s and 4.4-5.7 s,
    each including the 0.1-0.15 s hull of a new body's density.  They are
    refused unless allow_dim3 is set.
    """
    if body.dim == 3 and not allow_dim3:
        raise ValueError("dim-3 Monte Carlo is expensive; pass allow_dim3=True"
                         " (--dim-3-ok on the command line)")
    sched = tuple(check_steps(n_schedule, 3, "N schedule", int))
    if min(sched) < body.dim + 1:
        raise ValueError("hulls need at least dim+1 points")
    density = boundary_density(body, index=index, p=p, rule=rule)
    estimates = tuple(
        expected_deficit(density, nn, trials=trials, seed=(int(seed), nn))
        for nn in sched)
    expo = 2.0 / (body.dim - 1.0)
    xs = [nn ** -expo for nn in sched]
    ys = [est.scaled_mean for est in estimates]
    extrapolated = neville_to_zero(xs, ys)
    extrapolated_stderr = math.sqrt(math.fsum(
        (w * est.scaled_stderr) ** 2 for w, est in zip(neville_weights(xs), estimates)))
    omega = weighted_asa(body, density.index, density.p, density.rule).value
    cn = random_polytope_constant(body.dim)
    target = cn * density.normalizer ** expo * omega
    rel = abs(extrapolated - target) / abs(target)
    return MCInterpretation(body_label=body.label, p=density.p,
                            index=density.index, n_schedule=sched,
                            trials=int(trials), seed=int(seed),
                            estimates=estimates, extrapolated=extrapolated,
                            extrapolated_stderr=extrapolated_stderr,
                            target=target, rel_error=rel, constant=cn,
                            normalizer=density.normalizer, functional=omega)
