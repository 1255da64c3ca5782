"""Smooth convex bodies described by their support functions.

A body K (containing the origin in its interior) is handed around as a
`SupportBody`: three vectorized callables giving, for unit directions u,

* the support function h(u),
* the gradient of the 1-homogeneous extension of h, which is the boundary
  point of K with outer normal u,
* the ambient hessian of that extension, whose restriction to the tangent
  plane u^perp has the principal radii of curvature as eigenvalues.

From those we derive the normalized elementary symmetric functions s_j of
the radii (sphere side) and, by duality, the normalized symmetric functions
H_j of the principal curvatures at the boundary point: H_j * s_{n-1} equals
s_{n-1-j}, and H_{n-1} is the Gauss curvature 1/s_{n-1}.

All constructors produce bodies of positive curvature; the curvature grid
refuses to integrate anything whose minimal tangential hessian eigenvalue
drops to 1e-10 or below.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quadrature import default_rule, integrate

__all__ = [
    "SupportBody",
    "CurvaturePoint",
    "CurvatureGrid",
    "ConvexityError",
    "BodyConstructionError",
    "make_ball",
    "make_ellipsoid",
    "ellipsoid_matrix",
    "make_perturbed_ball",
    "from_support",
    "support_extension",
    "curvature_at",
    "curvature_arrays",
    "curvature_grid",
    "check_c2plus",
    "body_volume",
    "polar_volume",
    "centroid",
    "recenter",
    "transform",
    "polar_body",
    "body_from_dict",
    "load_body",
]

MIN_RADIUS = 1e-10


class ConvexityError(ValueError):
    """Raised when a tangential hessian eigenvalue is not strictly positive."""


class BodyConstructionError(ValueError):
    """Raised when construction parameters produce an invalid body."""


class SupportBody:
    """A convex body given by vectorized support-function oracles.

    Attributes:
        dim: ambient dimension (2 or 3).
        label: short identifier used in reports.

    The three oracles accept arrays of shape (..., dim) of unit vectors:
        support -> (...,), gradient -> (..., dim), hessian -> (..., dim, dim).
    Instances are immutable by convention and hash by identity.  Results
    computed from the oracles (curvature grids and equality labels per
    rule, functional values per index, p and rule) are kept in the private
    _cache dict, so they live exactly as long as the body.
    """

    __slots__ = ("dim", "label", "support", "gradient", "hessian", "_polar", "_cache")

    def __init__(self, dim, support, gradient, hessian, label, polar=None):
        if dim not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "gradient", gradient)
        object.__setattr__(self, "hessian", hessian)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_polar", polar)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("SupportBody is immutable")

    def __repr__(self):
        return "SupportBody(dim=%d, label=%r)" % (self.dim, self.label)


@dataclass(frozen=True)
class CurvaturePoint:
    """Curvature data of one boundary point, indexed by its outer normal u."""

    u: np.ndarray
    x: np.ndarray
    h: float
    radii: tuple
    s: tuple
    H: tuple


@dataclass(frozen=True)
class CurvatureGrid:
    """Per-node curvature data over a quadrature rule."""

    u: np.ndarray
    h: np.ndarray
    x: np.ndarray
    radii: np.ndarray
    s: np.ndarray
    H: np.ndarray

    @property
    def s_top(self):
        """s_{n-1}, the product of the principal radii (curvature function)."""
        return self.s[:, -1]


# ---------------------------------------------------------------------------
# constructors


def make_ball(dim, radius=1.0, label=None):
    """Centered ball. h = R, boundary point R*u, all radii equal to R."""
    if radius <= 0:
        raise BodyConstructionError("ball radius must be positive, got %g" % radius)
    r = float(radius)
    eye = np.eye(dim)

    def support(U):
        U = np.asarray(U, dtype=float)
        return np.full(U.shape[:-1], r)

    def gradient(U):
        return r * np.asarray(U, dtype=float)

    def hessian(U):
        U = np.asarray(U, dtype=float)
        return r * (eye - U[..., :, None] * U[..., None, :])

    if label is None:
        label = "ball%d(r=%g)" % (dim, r)
    return SupportBody(dim, support, gradient, hessian, label,
                       polar=lambda: make_ball(dim, 1.0 / r))


def ellipsoid_matrix(semi_axes, rotation=None):
    """Quadratic form M with h(u) = sqrt(u^T M u) for the given semi-axes.

    Args:
        semi_axes: positive lengths (a_1, ..., a_n) along the body axes.
        rotation: optional orthogonal matrix applied to the body.
    """
    a = np.asarray(semi_axes, dtype=float)
    if np.any(a <= 0):
        raise BodyConstructionError("semi-axes must be positive, got %s" % a.tolist())
    m = np.diag(a * a)
    if rotation is not None:
        q = np.asarray(rotation, dtype=float)
        _check_orthogonal(q, a.size)
        m = q @ m @ q.T
    return m


def make_ellipsoid(dim, matrix, label=None):
    """Centered ellipsoid {x : x^T M^-1 x <= 1} with h(u) = sqrt(u^T M u).

    Args:
        dim: 2 or 3.
        matrix: symmetric positive definite (dim, dim) array.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dim, dim):
        raise BodyConstructionError("matrix shape %s does not match dim %d" % (m.shape, dim))
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
        raise BodyConstructionError("ellipsoid matrix must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0:
        raise BodyConstructionError("ellipsoid matrix must be positive definite")
    m = 0.5 * (m + m.T)
    m.setflags(write=False)

    def support(U):
        U = np.asarray(U, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", U, m, U))

    def gradient(U):
        U = np.asarray(U, dtype=float)
        mu = np.einsum("ij,...j->...i", m, U)
        h = np.sqrt(np.einsum("...i,...i->...", U, mu))
        return mu / h[..., None]

    def hessian(U):
        U = np.asarray(U, dtype=float)
        mu = np.einsum("ij,...j->...i", m, U)
        h = np.sqrt(np.einsum("...i,...i->...", U, mu))
        outer = mu[..., :, None] * mu[..., None, :]
        return (m - outer / (h * h)[..., None, None]) / h[..., None, None]

    if label is None:
        axes = np.sqrt(np.sort(eigs)[::-1])
        label = "ellipsoid%d(%s)" % (dim, ",".join("%g" % v for v in axes))
    return SupportBody(dim, support, gradient, hessian, label,
                       polar=lambda: make_ellipsoid(dim, np.linalg.inv(m)))


# the dim-3 perturbation mode 3: the odd degree-3 sectoral harmonic
# P = x^3 - 3xy^2, its gradient and hessian, vectorized over (..., 3)
def _harmonic_sectoral3(U):
    x, y = U[..., 0], U[..., 1]
    return x * (x * x - 3.0 * y * y)


def _harmonic_sectoral3_grad(U):
    x, y = U[..., 0], U[..., 1]
    g = np.zeros_like(U)
    g[..., 0] = 3.0 * (x * x - y * y)
    g[..., 1] = -6.0 * x * y
    return g


def _harmonic_sectoral3_hess(U):
    x, y = U[..., 0], U[..., 1]
    h = np.zeros(U.shape + (3,))
    h[..., 0, 0] = 6.0 * x
    h[..., 0, 1] = h[..., 1, 0] = -6.0 * y
    h[..., 1, 1] = -6.0 * x
    return h


def make_perturbed_ball(dim, mode=3, eps=0.05, label=None, rule=None):
    """Unit ball with a single-mode support perturbation.

    dim 2: h(theta) = 1 + eps*cos(L*theta) for an integer mode L >= 3.
    dim 3: h(u) = 1 + eps*P(u) for a fixed odd harmonic polynomial P chosen
    by mode id (currently mode 3, the degree-3 sectoral harmonic x^3-3xy^2).

    Construction fails if the perturbation destroys positive curvature
    anywhere on the validation grid; the error names the largest usable eps.
    """
    if eps < 0:
        raise BodyConstructionError("eps must be nonnegative, got %g" % eps)
    if dim == 2:
        if int(mode) != mode or mode < 3:
            raise BodyConstructionError("dim-2 perturbation mode must be an integer >= 3")
        body = _perturbed_disk(int(mode), float(eps), label)
    elif dim == 3:
        if mode != 3:
            raise BodyConstructionError(
                "unknown dim-3 harmonic mode %r (available: [3])" % (mode,))
        body = _perturbed_ball3(float(eps), label)
    else:
        raise ValueError("only dimensions 2 and 3 are supported")

    if rule is None:
        rule = default_rule(dim)
    h, radii, _, _ = _curvature_core(body, rule.nodes, check=False)
    try:
        _check_positive(body, rule.nodes, h, radii)
    except ConvexityError:
        worst = float(radii.min())
        if worst > MIN_RADIUS:
            raise BodyConstructionError(
                "support function nonpositive for eps=%g" % eps) from None
        # radii are exactly linear in eps here: r = 1 + eps*slope
        slopes = (radii - 1.0) / eps
        eps_max = -1.0 / float(slopes.min())
        raise BodyConstructionError(
            "curvature positivity fails for eps=%g (min radius %.3g); "
            "maximum valid eps is about %.6g" % (eps, worst, eps_max)) from None
    return body


def _perturbed_disk(mode, eps, label):
    L = mode

    def _theta(U):
        U = np.asarray(U, dtype=float)
        return np.arctan2(U[..., 1], U[..., 0])

    def support(U):
        return 1.0 + eps * np.cos(L * _theta(U))

    def gradient(U):
        U = np.asarray(U, dtype=float)
        th = _theta(U)
        h = 1.0 + eps * np.cos(L * th)
        hp = -eps * L * np.sin(L * th)
        tang = np.stack([-U[..., 1], U[..., 0]], axis=-1)
        return h[..., None] * U + hp[..., None] * tang

    def hessian(U):
        U = np.asarray(U, dtype=float)
        th = _theta(U)
        r = 1.0 + eps * (1.0 - L * L) * np.cos(L * th)  # h + h''
        tang = np.stack([-U[..., 1], U[..., 0]], axis=-1)
        return r[..., None, None] * (tang[..., :, None] * tang[..., None, :])

    if label is None:
        label = "pert2(L=%d,eps=%g)" % (L, eps)
    return SupportBody(2, support, gradient, hessian, label)


def _perturbed_ball3(eps, label):
    P, gradP, hessP = _harmonic_sectoral3, _harmonic_sectoral3_grad, _harmonic_sectoral3_hess
    a = -2.0  # homogeneity shift 1 - deg of P(z)/|z|^(deg-1), deg = 3
    eye = np.eye(3)

    def support(U):
        return 1.0 + eps * P(np.asarray(U, dtype=float))

    def gradient(U):
        U = np.asarray(U, dtype=float)
        return U + eps * (gradP(U) + a * P(U)[..., None] * U)

    def hessian(U):
        U = np.asarray(U, dtype=float)
        uu = U[..., :, None] * U[..., None, :]
        gp = gradP(U)
        sym = gp[..., :, None] * U[..., None, :] + U[..., :, None] * gp[..., None, :]
        pv = P(U)[..., None, None]
        core = hessP(U) + a * sym + a * pv * ((a - 2.0) * uu + eye)
        return (eye - uu) + eps * core

    if label is None:
        label = "pert3(mode=3,eps=%g)" % eps
    return SupportBody(3, support, gradient, hessian, label)


def support_extension(body, Z):
    """The 1-homogeneous extension |z| * h(z/|z|) on arbitrary nonzero z."""
    Z = np.asarray(Z, dtype=float)
    norm = np.linalg.norm(Z, axis=-1)
    return norm * body.support(Z / norm[..., None])


def from_support(fn, dim, step=1e-5, label="fd-body"):
    """Finite-difference body from a bare support function (experimental).

    Derivatives of the 1-homogeneous extension are taken by central
    differences with one Richardson extrapolation level at the given step.
    Useful for quick experiments; analytic constructors are what the
    verification paths rely on.

    Args:
        fn: vectorized support function on (..., dim) unit vectors.
        dim: 2 or 3.
        step: base finite-difference step.
    """
    probe = SupportBody(dim, fn, None, None, label)

    def ext(Z):
        return support_extension(probe, Z)

    def _grad_once(U, d):
        out = np.empty_like(U)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = d
            out[..., i] = (ext(U + e) - ext(U - e)) / (2.0 * d)
        return out

    def gradient(U):
        U = np.asarray(U, dtype=float)
        return (4.0 * _grad_once(U, step / 2.0) - _grad_once(U, step)) / 3.0

    def _hess_once(U, d):
        out = np.empty(U.shape + (dim,))
        f0 = ext(U)
        for i in range(dim):
            ei = np.zeros(dim)
            ei[i] = d
            out[..., i, i] = (ext(U + ei) - 2.0 * f0 + ext(U - ei)) / (d * d)
            for j in range(i + 1, dim):
                ej = np.zeros(dim)
                ej[j] = d
                v = (ext(U + ei + ej) - ext(U + ei - ej)
                     - ext(U - ei + ej) + ext(U - ei - ej)) / (4.0 * d * d)
                out[..., i, j] = v
                out[..., j, i] = v
        return out

    def hessian(U):
        U = np.asarray(U, dtype=float)
        return (4.0 * _hess_once(U, step / 2.0) - _hess_once(U, step)) / 3.0

    return SupportBody(dim, fn, gradient, hessian, label)


# ---------------------------------------------------------------------------
# curvature engine


def _tangent_frames(U):
    # one smooth-enough orthonormal frame per node of u^perp in R^3
    ez = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])
    ref = np.where((np.abs(U[:, 2]) < 0.9)[:, None], ez, ex)
    t1 = np.cross(ref, U)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(U, t1)
    return t1, t2


def _check_positive(body, U, h, radii, min_radius=MIN_RADIUS, note=""):
    # the one positivity test: every principal radius above min_radius,
    # then every support value above 0; note is appended to the latter
    worst = radii.min()
    if worst <= min_radius:
        idx = int(np.unravel_index(np.argmin(radii), radii.shape)[0])
        raise ConvexityError(
            "tangential hessian eigenvalue %.6g <= %g at u=%s (body %r)"
            % (worst, min_radius, U[idx].tolist(), body.label))
    if np.any(h <= 0):
        idx = int(np.argmin(h))
        raise ConvexityError(
            "support function %.6g <= 0 at u=%s (body %r)%s"
            % (h[idx], U[idx].tolist(), body.label, note))


def _curvature_core(body, U, check):
    # curvature_arrays without the boundary points: (h, radii, s, H)
    h = np.asarray(body.support(U), dtype=float)
    hess = np.asarray(body.hessian(U), dtype=float)
    if body.dim == 2:
        # t^T hess t for the tangent t = (-u1, u0), summed in einsum's term
        # order: bitwise equal to einsum("li,lij,lj->l") on two or more
        # rows (einsum pairs the terms for a single row), and faster
        t0, t1 = -U[:, 1], U[:, 0]
        r = (t0 * hess[:, 0, 0] * t0 + t0 * hess[:, 0, 1] * t1
             + t1 * hess[:, 1, 0] * t0 + t1 * hess[:, 1, 1] * t1)
        radii = r[:, None]
        s_top = r
        s = np.stack([np.ones_like(r), r], axis=1)
    else:
        t1, t2 = _tangent_frames(U)
        b11 = np.einsum("li,lij,lj->l", t1, hess, t1)
        b12 = np.einsum("li,lij,lj->l", t1, hess, t2)
        b22 = np.einsum("li,lij,lj->l", t2, hess, t2)
        mean = 0.5 * (b11 + b22)
        disc = np.sqrt(np.maximum(0.25 * (b11 - b22) ** 2 + b12 * b12, 0.0))
        radii = np.stack([mean - disc, mean + disc], axis=1)
        s_top = b11 * b22 - b12 * b12
        s = np.stack([np.ones_like(mean), mean, s_top], axis=1)
    if check:
        _check_positive(body, U, h, radii)
    # duality: H_j * s_{n-1} = s_{n-1-j}; unchecked, s_{n-1} may be 0, and
    # the caller's positivity test, not a numpy warning, reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        H = s[:, ::-1] / s_top[:, None]
    return h, radii, s, H


def curvature_arrays(body, U, check=True):
    """Batch curvature data at unit directions U of shape (L, dim).

    Returns:
        (h, x, radii, s, H): support values (L,), boundary points (L, dim),
        principal radii sorted ascending (L, dim-1), normalized symmetric
        functions s_j (L, dim) with s_0 = 1, and their boundary duals H_j.

    Raises:
        ConvexityError: if check is set and a radius is <= 1e-10.
    """
    U = np.asarray(U, dtype=float)
    h, radii, s, H = _curvature_core(body, U, check)
    x = np.asarray(body.gradient(U), dtype=float)
    return h, x, radii, s, H


def curvature_grid(body, rule=None):
    """Curvature data of the body at the rule's nodes, read-only.

    Computed once per rule and kept on the body; the rule is a key by
    identity, so a rule built anew is a new entry.
    """
    if rule is None:
        rule = default_rule(body.dim)
    if rule not in body._cache:
        h, x, radii, s, H = curvature_arrays(body, rule.nodes, check=True)
        for arr in (h, x, radii, s, H):
            arr.setflags(write=False)
        body._cache[rule] = CurvatureGrid(u=rule.nodes, h=h, x=x, radii=radii, s=s, H=H)
    return body._cache[rule]


def curvature_at(body, u):
    """Curvature data at a single unit direction u.

    Raises:
        ValueError: if u is not a unit vector.
        ConvexityError: if a principal radius is <= 1e-10 at u.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (body.dim,):
        raise ValueError("direction shape %s does not match dim %d" % (u.shape, body.dim))
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector, |u| = %.12g" % norm)
    h, x, radii, s, H = curvature_arrays(body, (u / norm)[None, :], check=True)
    return CurvaturePoint(u=u, x=x[0], h=float(h[0]),
                          radii=tuple(radii[0]), s=tuple(s[0]), H=tuple(H[0]))


def check_c2plus(body, rule=None, min_radius=MIN_RADIUS):
    """Validate positive curvature and positive support on the rule's nodes.

    Returns the minimal tangential hessian eigenvalue found.
    """
    if rule is None:
        rule = default_rule(body.dim)
    h, radii, _, _ = _curvature_core(body, rule.nodes, check=False)
    _check_positive(body, rule.nodes, h, radii, min_radius, "; origin not interior")
    return float(radii.min())


# ---------------------------------------------------------------------------
# integral quantities


def body_volume(body, rule=None):
    """Volume of K: (1/n) * integral of h * s_{n-1} over the sphere."""
    if rule is None:
        rule = default_rule(body.dim)
    g = curvature_grid(body, rule)
    return integrate(rule, g.h * g.s_top) / body.dim


def polar_volume(body, rule=None):
    """Volume of the polar body: (1/n) * integral of h^-n."""
    if rule is None:
        rule = default_rule(body.dim)
    g = curvature_grid(body, rule)
    return integrate(rule, g.h ** (-float(body.dim))) / body.dim


def centroid(body, rule=None):
    """Centroid of K via the cone decomposition over the boundary."""
    if rule is None:
        rule = default_rule(body.dim)
    g = curvature_grid(body, rule)
    vol = integrate(rule, g.h * g.s_top) / body.dim
    base = g.h * g.s_top
    coords = [integrate(rule, g.x[:, i] * base) for i in range(body.dim)]
    return np.array(coords) / ((body.dim + 1) * vol)


# ---------------------------------------------------------------------------
# body transforms


def recenter(body, c, rule=None):
    """Shift so that the point c becomes the origin: h -> h - <c, u>.

    Args:
        c: a point strictly interior to the body.

    Raises:
        ValueError: if the shifted support function is not positive on the
            validation grid (c is not strictly interior).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (body.dim,):
        raise ValueError("center shape %s does not match dim %d" % (c.shape, body.dim))

    inner_support = body.support
    inner_gradient = body.gradient

    def support(U):
        U = np.asarray(U, dtype=float)
        return inner_support(U) - U @ c

    def gradient(U):
        return inner_gradient(U) - c

    out = SupportBody(body.dim, support, gradient, body.hessian,
                      "%s-%s" % (body.label, np.round(c, 12).tolist()))
    if rule is None:
        rule = default_rule(body.dim)
    h = out.support(rule.nodes)
    if np.any(h <= 0):
        idx = int(np.argmin(h))
        raise ValueError(
            "point %s is not strictly interior: support becomes %.6g at u=%s"
            % (c.tolist(), h[idx], rule.nodes[idx].tolist()))
    return out


def transform(body, arg):
    """Apply an orthogonal map (dim x dim array) or a positive scale factor.

    Rotation Q: h'(u) = h(Q^T u) with gradient and hessian conjugated by Q.
    Scale a > 0: h, gradient and hessian all scale linearly.
    """
    if np.isscalar(arg):
        a = float(arg)
        if a <= 0:
            raise ValueError("scale factor must be positive, got %g" % a)
        inner = body

        def support(U):
            return a * inner.support(U)

        def gradient(U):
            return a * inner.gradient(U)

        def hessian(U):
            return a * inner.hessian(U)

        polar = None
        if inner._polar is not None:
            polar = lambda: transform(inner._polar(), 1.0 / a)
        return SupportBody(body.dim, support, gradient, hessian,
                           "%s*%g" % (body.label, a), polar=polar)

    q = np.asarray(arg, dtype=float)
    _check_orthogonal(q, body.dim)
    inner = body

    def support(U):
        U = np.asarray(U, dtype=float)
        return inner.support(U @ q)  # U @ q has rows Q^T u

    def gradient(U):
        U = np.asarray(U, dtype=float)
        return inner.gradient(U @ q) @ q.T

    def hessian(U):
        U = np.asarray(U, dtype=float)
        hin = inner.hessian(U @ q)
        return np.einsum("ij,...jk,lk->...il", q, hin, q)

    polar = None
    if inner._polar is not None:
        polar = lambda: transform(inner._polar(), q)
    return SupportBody(body.dim, support, gradient, hessian,
                       "%s@rot" % body.label, polar=polar)


def _check_orthogonal(q, dim):
    if q.shape != (dim, dim):
        raise ValueError("matrix shape %s does not match dim %d" % (q.shape, dim))
    if not np.allclose(q @ q.T, np.eye(dim), rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not orthogonal within 1e-12")


def polar_body(body):
    """The polar body, for constructions that carry an analytic polar.

    Balls and centered ellipsoids (and their rotations and scalings) do;
    perturbed balls and recentered bodies do not.
    """
    if body._polar is None:
        raise ValueError(
            "no analytic polar support oracle available for body %r" % body.label)
    return body._polar()


# ---------------------------------------------------------------------------
# body specification files


def body_from_dict(spec, label=None, validate=True):
    """Construct a body from a JSON-style dict.

    Recognized keys: dim (2 or 3), type ("ball" | "ellipsoid" |
    "perturbed_ball"), radius, matrix, semi_axes, rotation, mode, epsilon,
    translate, label. Unknown keys other than "provenance" are rejected.
    """
    if not isinstance(spec, dict):
        raise ValueError("body spec must be a JSON object")
    known = {"dim", "type", "radius", "matrix", "semi_axes", "rotation",
             "mode", "epsilon", "translate", "label", "provenance"}
    extra = set(spec) - known
    if extra:
        raise ValueError("unknown body spec keys: %s" % sorted(extra))
    try:
        dim = int(spec["dim"])
        kind = spec["type"]
    except KeyError as exc:
        raise ValueError("body spec is missing required key %s" % exc) from None
    if dim not in (2, 3):
        raise ValueError("body spec dim must be 2 or 3, got %r" % spec["dim"])
    if label is None:
        label = spec.get("label")

    if kind == "ball":
        body = make_ball(dim, float(spec.get("radius", 1.0)), label=label)
    elif kind == "ellipsoid":
        if "matrix" in spec:
            m = np.asarray(spec["matrix"], dtype=float)
        elif "semi_axes" in spec:
            m = ellipsoid_matrix(spec["semi_axes"], spec.get("rotation"))
        else:
            raise ValueError("ellipsoid spec needs either 'matrix' or 'semi_axes'")
        body = make_ellipsoid(dim, m, label=label)
    elif kind == "perturbed_ball":
        if "epsilon" not in spec:
            raise ValueError("perturbed_ball spec needs 'epsilon'")
        body = make_perturbed_ball(dim, mode=spec.get("mode", 3),
                                   eps=float(spec["epsilon"]), label=label)
    else:
        raise ValueError("unknown body type %r" % kind)

    if "translate" in spec:
        shift = np.asarray(spec["translate"], dtype=float)
        body = recenter(body, -shift)
        if label is not None:
            object.__setattr__(body, "label", label)
    if validate:
        check_c2plus(body)
    return body


def load_body(path, validate=True):
    """Load a body specification JSON file; the label defaults to the stem."""
    path = Path(path)
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("malformed body file %s: %s" % (path, exc)) from None
    body = body_from_dict(spec, validate=validate)
    if "label" not in spec:
        object.__setattr__(body, "label", path.stem)
    return body
