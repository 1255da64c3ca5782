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

from ._extrap import neville_to_zero
from .functionals import WeightIndex, _power, _validate_p, asa_exponents, weighted_asa
from .geometry import _curvature_core, body_volume, curvature_grid
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


def _density_values(h, s, H, index, p):
    # f at boundary points with normals u, from sphere-side curvature data:
    # a Gauss-curvature power times the inverse square-root of the weight
    # bracket, times a support power.  All bases are strictly positive.
    n = index.dim
    _, beta = asa_exponents(n, p)
    e_top = (2.0 * p + n * (1.0 - p)) / (2.0 * (n + p))
    vals = _power(s[:, -1], -e_top)
    vals = vals * _power(h, (beta + index.k - index.m) * (n - 1.0) / 2.0)
    for j, v in enumerate(index.i, start=1):
        if v:
            vals = vals * _power(H[:, j], -v * (n - 1.0) / 2.0)
    cn = float(index.c_n)
    if cn != 1.0:
        vals = vals * cn ** (-(n - 1.0) / 2.0)
    return vals


@dataclass(frozen=True, eq=False)
class BoundaryDensity:
    """A curvature-weighted sampling density on the boundary of a body.

    values holds f at the rule nodes; sphere_values holds f * s_{n-1}, the
    same density transported to the sphere, which is what the rejection
    sampler bounds.  normalizer is the total mass of f over the boundary,
    so f / normalizer is a probability density.
    """

    body: object
    index: WeightIndex
    p: float
    rule: object
    values: np.ndarray
    sphere_values: np.ndarray
    normalizer: float
    envelope: float
    safety: float

    def target(self, U):
        """Sphere-side density f(x(u)) * s_{n-1}(u) at unit directions U."""
        h, _, s, H = _curvature_core(self.body, np.asarray(U, dtype=float), check=True)
        return _density_values(h, s, H, self.index, self.p) * s[:, -1]


def boundary_density(body, index=None, p=1.0, rule=None, safety=1.5):
    """Tabulate the matched boundary density for (index, p) on a rule.

    The rejection envelope is safety times the largest sphere-side value
    seen at the rule nodes; a coarse rule can understate the true maximum,
    which the sampler later reports as an EnvelopeError.

    Raises:
        ValueError: for symbolic p = inf (no sampling density there),
            mismatched index dimension, or safety <= 1.
    """
    if index is None:
        index = WeightIndex.zero(body.dim)
    p = _validate_p(body.dim, p)
    if not math.isfinite(p):
        raise ValueError("sampling densities need finite p")
    if index.dim != body.dim:
        raise ValueError("index dimension %d does not match body dimension %d"
                         % (index.dim, body.dim))
    if not safety > 1.0:
        raise ValueError("safety must exceed 1")
    if rule is None:
        rule = default_rule(body.dim)
    g = curvature_grid(body, rule)
    f = _density_values(g.h, g.s, g.H, index, p)
    sphere = f * g.s_top
    z = integrate(rule, sphere)
    env = float(safety) * float(np.max(sphere))
    f.setflags(write=False)
    sphere.setflags(write=False)
    return BoundaryDensity(body=body, index=index, p=p, rule=rule, values=f,
                           sphere_values=sphere, normalizer=z, envelope=env,
                           safety=float(safety))


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
    accepted: int
    proposals: int
    acceptance_rate: float
    envelope: float


# proposal rows drawn in one sampler round at most, so a large safety
# factor (a low acceptance rate) cannot allocate count / acceptance rows
_ROUND_ROWS = 1 << 16

# boundary measure of the unit sphere S^(n-1), by dimension n
_SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _uniform_directions(rng, dim, count):
    if dim == 2:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    g = rng.standard_normal((count, 3))
    norms = np.linalg.norm(g, axis=1)
    ok = norms > 1e-12
    if not np.all(ok):
        g, norms = g[ok], norms[ok]
    return g / norms[:, None]


def sample_boundary(density, count, seed=None, return_stats=False):
    """Draw boundary points distributed as f / normalizer by rejection.

    Proposals are uniform directions; a proposal u is kept with probability
    target(u) / envelope and mapped to the boundary point x(u).  If the
    true target ever exceeds the envelope (the rule max was understated),
    an EnvelopeError is raised rather than silently skewing the sample.

    The acceptance rate is known in advance, normalizer / (envelope *
    |S^(n-1)|), so each round draws (need + 4 sqrt(need)) / rate proposals
    for the need points still missing, at most 65536; one round almost
    always suffices.  Only the target is evaluated on every proposal; the
    boundary points x(u) are computed for accepted rows alone.

    seed: int, sequence of ints, or an existing numpy Generator.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    body = density.body
    env = density.envelope
    rate = density.normalizer / (env * _SPHERE_AREA[body.dim])
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
        U = _uniform_directions(rng, body.dim, batch)
        m = U.shape[0]
        t = density.target(U)
        worst = int(np.argmax(t))
        if t[worst] > env:
            raise EnvelopeError(
                "density %.6g exceeds envelope %.6g at u=%s; rebuild with a"
                " finer rule or a larger safety factor"
                % (t[worst], env, U[worst].tolist()))
        keep = rng.random(m) * env < t
        proposals += m
        kept = int(np.count_nonzero(keep))
        if kept:
            chunks.append(np.asarray(body.gradient(U[keep]), dtype=float))
            accepted += kept
    points = np.concatenate(chunks, axis=0)[:count]
    if return_stats:
        stats = SampleStats(accepted=accepted, proposals=proposals,
                            acceptance_rate=accepted / proposals, envelope=env)
        return points, stats
    return points


class HullResult(NamedTuple):
    volume: float
    degenerate: bool


def hull_volume(points):
    """Volume of the convex hull of the given points.

    The planar branch sorts by angle around the centroid and applies the
    shoelace formula, which is only valid for points in convex position
    (always true for samples off a convex boundary).  The spatial branch
    delegates to qhull.  degenerate means the hull has empty interior.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("points must have shape (N, 2) or (N, 3)")
    n = pts.shape[1]
    if pts.shape[0] < n + 1:
        return HullResult(0.0, True)
    if n == 2:
        c = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
        order = np.argsort(ang, kind="stable")
        xs = pts[order, 0]
        ys = pts[order, 1]
        cross = xs * np.roll(ys, -1) - np.roll(xs, -1) * ys
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
    """Extrapolated deficit constant next to its closed-form target."""

    body_label: str
    p: float
    index: WeightIndex
    n_schedule: tuple
    trials: int
    seed: int
    estimates: tuple
    extrapolated: float
    target: float
    rel_error: float
    constant: float
    normalizer: float
    functional: float


def interpretation_check(body, p=1.0, index=None, n_schedule=(250, 500, 1000),
                         trials=512, seed=0, rule=None, safety=1.5,
                         allow_dim3=False):
    """Estimate the deficit limit and compare with c_n Z^(2/(n-1)) omega^p.

    Scaled means N^(2/(n-1)) E[deficit] are extrapolated to N = inf with a
    Neville tableau in the variable N^(-2/(n-1)).  The target couples the
    hull constant c_n, the density normalizer Z, and the weighted
    functional of the matched index.

    Spatial runs cost minutes, not seconds; they are refused unless
    allow_dim3 is set.
    """
    if body.dim == 3 and not allow_dim3:
        raise ValueError("dim-3 Monte Carlo is expensive; pass allow_dim3=True")
    sched = tuple(int(v) for v in n_schedule)
    if len(sched) < 3:
        raise ValueError("n_schedule needs at least 3 sizes to extrapolate")
    if len(set(sched)) != len(sched):
        raise ValueError("n_schedule sizes must be distinct")
    if min(sched) < body.dim + 1:
        raise ValueError("hulls need at least dim+1 points")
    density = boundary_density(body, index=index, p=p, rule=rule, safety=safety)
    estimates = tuple(
        expected_deficit(density, nn, trials=trials, seed=(int(seed), nn))
        for nn in sched)
    expo = 2.0 / (body.dim - 1.0)
    xs = [nn ** -expo for nn in sched]
    ys = [est.scaled_mean for est in estimates]
    extrapolated = neville_to_zero(xs, ys)
    omega = weighted_asa(body, density.index, density.p, density.rule).value
    cn = random_polytope_constant(body.dim)
    target = cn * density.normalizer ** expo * omega
    rel = abs(extrapolated - target) / abs(target)
    return MCInterpretation(body_label=body.label, p=density.p,
                            index=density.index, n_schedule=sched,
                            trials=int(trials), seed=int(seed),
                            estimates=estimates, extrapolated=extrapolated,
                            target=target, rel_error=rel, constant=cn,
                            normalizer=density.normalizer, functional=omega)
