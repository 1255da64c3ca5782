"""Smooth convex bodies described by their support functions.

A body K (containing the origin in its interior) is handed around as a
`SupportBody`: three vectorized callables giving, for unit directions u,

* the support function h(u),
* the gradient of the 1-homogeneous extension of h, which is the boundary
  point of K with outer normal u,
* the ambient hessian of that extension, whose restriction to the tangent
  plane u^perp has the principal radii of curvature as eigenvalues.

A planar body may also carry a fused oracle for the pair (h, r), h and the
radius of curvature r(u) = h + h'' in closed form from shared terms.  Only
the rejection sampler's target uses it, being far cheaper than the hessian;
curvature grids, and so every integral, always come from the hessian.

From those we derive the normalized elementary symmetric functions s_j of
the radii (sphere side) and, by duality, the normalized symmetric functions
H_j of the principal curvatures at the boundary point: H_j * s_{n-1} equals
s_{n-1-j}, and H_{n-1} is the Gauss curvature 1/s_{n-1}.

Building a body's curvature grid validates it: curvature_grid refuses a
minimal tangential hessian eigenvalue of 1e-10 or below and a support
value of 0 or below.
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
    "MIN_RADIUS",
    "make_ball",
    "make_ellipsoid",
    "ellipsoid_matrix",
    "make_perturbed_ball",
    "from_support",
    "support_extension",
    "curvature_at",
    "curvature_arrays",
    "curvature_grid",
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
    Each oracle receives its directions as a float array: the body converts
    them once, so lists and integer arrays are accepted and a float array
    passes through as itself.
    A planar body may also give support_radius -> (h, r), support's values
    bit for bit and the radius of curvature h + h'' (the hessian's
    tangential form) in closed form, or None.  The sampler's target uses it.
    Instances are immutable by convention and hash by identity.

    Results computed from the oracles are kept in the private _cache dict,
    so they live exactly as long as the body and a repeat returns the first
    call's bits.  Every entry goes through `_cached`, which stores a result
    only when its computation returns.  Keys are tuples tagged by kind, and
    a rule is part of a key by identity:

        ("grid", rule)                          curvature_grid, which is the
                                                validation: the loaders and
                                                make_perturbed_ball keep the
                                                default rule's grid
        ("logs", rule)                          (log h, log s_{n-1}) of that
                                                grid, read-only; every
                                                functional integrand and
                                                cone density reads them
        ("polar",)                              polar_body
        ("volume", rule)                        body_volume
        ("polar_volume", rule)                  polar_volume
        ("omega", index, p, rule)               weighted_asa, asa and the
                                                weighted volumes; holds the
                                                FunctionalValue, returned
                                                itself to a repeat with the
                                                same index object
        ("kl", index, direction, normalized, rule)
                                                kl_divergence
        ("hellinger", index, alpha, rule)       hellinger, renyi
        ("equality_class", rule)                equality_class
        ("density", rule, index, p, safety)     boundary_density

    Not cached: cone_densities, whose four node arrays (4 x 8192 floats on
    the default 3-D rule) would add megabytes over a few hundred bodies;
    centroid, a fresh mutable array that a shared entry would expose to
    callers; f_divergence and jensen_bound, whose generator arguments are
    built by the caller and compare by identity, so a key would not hit
    again for another generator of the same f.
    """

    __slots__ = ("dim", "label", "support", "gradient", "hessian",
                 "support_radius", "_polar", "_cache", "__weakref__")

    def __init__(self, dim, support, gradient, hessian, label, polar=None,
                 support_radius=None):
        if dim not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")
        if support_radius is not None and dim != 2:
            raise ValueError("a radius oracle is only defined in dimension 2")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", _float_input(support))
        object.__setattr__(self, "gradient", _float_input(gradient))
        object.__setattr__(self, "hessian", _float_input(hessian))
        object.__setattr__(self, "support_radius", _float_input(support_radius))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_polar", polar)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("SupportBody is immutable")

    def __repr__(self):
        return "SupportBody(dim=%d, label=%r)" % (self.dim, self.label)


def _float_input(oracle):
    # the one place where an oracle's input becomes a float array
    return None if oracle is None else (lambda U: oracle(np.asarray(U, dtype=float)))


_MISSING = object()


def _cached(body, key, compute):
    """The body's entry under key; on a miss, compute() is run and kept.

    The one cache rule of the package (see SupportBody).  Nothing is stored
    when compute() raises, so bad input raises again on every call.
    """
    value = body._cache.get(key, _MISSING)
    if value is _MISSING:
        value = body._cache[key] = compute()
    return value


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
    """Per-node curvature data over a quadrature rule: the support values h
    (L,) and the normalized symmetric functions s (L, dim) of the radii.

    Every integral reads only these; radii and H at the rule's nodes come
    from curvature_arrays(body, rule.nodes).
    """

    h: np.ndarray
    s: np.ndarray

    @property
    def s_top(self):
        """s_{n-1}, the product of the principal radii (curvature function)."""
        return self.s[:, -1]


# ---------------------------------------------------------------------------
# constructors


def make_ball(dim, radius=1.0, label=None):
    """Centered ball. h = R, boundary point R*u, all radii equal to R."""
    if not 0 < radius < math.inf:
        raise BodyConstructionError("ball radius must be positive and finite, got %g" % radius)
    r = float(radius)
    eye = np.eye(dim)

    def support(U):
        return np.full(U.shape[:-1], r)

    def gradient(U):
        return r * U

    def hessian(U):
        # r * (eye - u u^T), in one array
        out = U[..., :, None] * U[..., None, :]
        np.subtract(eye, out, out=out)
        out *= r
        return out

    if label is None:
        label = "ball%d(r=%g)" % (dim, r)
    # in the plane the radius of curvature is R too: (h, r) = (R, R)
    return SupportBody(dim, support, gradient, hessian, label,
                       polar=lambda: make_ball(dim, 1.0 / r),
                       support_radius=(lambda U: (support(U),) * 2) if dim == 2 else None)


def ellipsoid_matrix(semi_axes, rotation=None):
    """Quadratic form M with h(u) = sqrt(u^T M u) for the given semi-axes.

    Args:
        semi_axes: positive lengths (a_1, ..., a_n) along the body axes.
        rotation: optional orthogonal matrix applied to the body.
    """
    a = np.asarray(semi_axes, dtype=float)
    if not np.all((a > 0) & (a < math.inf)):
        raise BodyConstructionError("semi-axes must be positive and finite, got %s" % a.tolist())
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
    if not np.all(np.isfinite(m)):
        raise BodyConstructionError("ellipsoid matrix must be finite, got %s" % m.tolist())
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
        raise BodyConstructionError("ellipsoid matrix must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0:
        raise BodyConstructionError("ellipsoid matrix must be positive definite")
    m = 0.5 * (m + m.T)
    m.setflags(write=False)

    def support(U):
        return np.sqrt(np.einsum("...i,ij,...j->...", U, m, U))

    def gradient(U):
        mu = np.einsum("ij,...j->...i", m, U)
        h = np.sqrt(np.einsum("...i,...i->...", U, mu))
        return mu / h[..., None]

    def hessian(U):
        mu = np.einsum("ij,...j->...i", m, U)
        h = np.sqrt(np.einsum("...i,...i->...", U, mu))
        # (m - mu mu^T / h^2) / h, in one array
        out = mu[..., :, None] * mu[..., None, :]
        out /= (h * h)[..., None, None]
        np.subtract(m, out, out=out)
        out /= h[..., None, None]
        return out

    support_radius = None
    if dim == 2:
        (m00, m01), (m10, m11) = m.tolist()
        det = m00 * m11 - m01 * m10

        def support(U):
            # u^T M u summed in einsum's term order: the same bits on three
            # or more rows (einsum pairs the terms below that), and faster
            u0, u1 = U[..., 0], U[..., 1]
            return np.sqrt(u0 * m00 * u0 + u0 * m01 * u1 + u1 * m10 * u0 + u1 * m11 * u1)

        def gradient(U):
            # M u and u . M u as two-term sums: the same bits as the einsum
            # form above, whose sums have two terms too
            u0, u1 = U[..., 0], U[..., 1]
            mu0 = m00 * u0 + m01 * u1
            mu1 = m10 * u0 + m11 * u1
            h = np.sqrt(u0 * mu0 + u1 * mu1)
            return np.stack([mu0 / h, mu1 / h], axis=-1)

        def support_radius(U):
            h = support(U)
            return h, det / (h * h * h)

    if label is None:
        axes = np.sqrt(np.sort(eigs)[::-1])
        label = "ellipsoid%d(%s)" % (dim, ",".join("%g" % v for v in axes))
    return SupportBody(dim, support, gradient, hessian, label,
                       polar=lambda: make_ellipsoid(dim, np.linalg.inv(m)),
                       support_radius=support_radius)


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


def make_perturbed_ball(dim, mode=3, eps=0.05, label=None):
    """Unit ball with a single-mode support perturbation.

    dim 2: h(theta) = 1 + eps*cos(L*theta) for an integer mode L >= 3.
    dim 3: h(u) = 1 + eps*P(u) for a fixed odd harmonic polynomial P chosen
    by mode id (currently mode 3, the degree-3 sectoral harmonic x^3-3xy^2).

    Validated by building the default rule's curvature grid, which the
    body keeps; on failure the error names the largest usable eps.
    """
    if not 0 <= eps < math.inf:
        raise BodyConstructionError("eps must be nonnegative and finite, got %g" % eps)
    if dim == 2:
        if not 3 <= float(mode) < math.inf or int(mode) != mode:
            raise BodyConstructionError("dim-2 perturbation mode must be an integer >= 3")
        body = _perturbed_disk(int(mode), float(eps), label)
    elif dim == 3:
        if mode != 3:
            raise BodyConstructionError(
                "unknown dim-3 harmonic mode %r (available: [3])" % (mode,))
        body = _perturbed_ball3(float(eps), label)
    else:
        raise ValueError("only dimensions 2 and 3 are supported")

    try:
        curvature_grid(body)
    except ConvexityError:
        _, radii, _ = _curvature_core(body, default_rule(dim).nodes)
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
        return np.arctan2(U[..., 1], U[..., 0])

    def support(U):
        return 1.0 + eps * np.cos(L * _theta(U))

    def gradient(U):
        th = _theta(U)
        h = 1.0 + eps * np.cos(L * th)
        hp = -eps * L * np.sin(L * th)
        tang = np.stack([-U[..., 1], U[..., 0]], axis=-1)
        return h[..., None] * U + hp[..., None] * tang

    def support_radius(U):
        c = np.cos(L * _theta(U))
        return 1.0 + eps * c, 1.0 + eps * (1.0 - L * L) * c  # (h, h + h'')

    def hessian(U):
        r = support_radius(U)[1]
        tang = np.stack([-U[..., 1], U[..., 0]], axis=-1)
        return r[..., None, None] * (tang[..., :, None] * tang[..., None, :])

    if label is None:
        label = "pert2(L=%d,eps=%g)" % (L, eps)
    return SupportBody(2, support, gradient, hessian, label, support_radius=support_radius)


def _perturbed_ball3(eps, label):
    P, gradP, hessP = _harmonic_sectoral3, _harmonic_sectoral3_grad, _harmonic_sectoral3_hess
    a = -2.0  # homogeneity shift 1 - deg of P(z)/|z|^(deg-1), deg = 3
    eye = np.eye(3)

    def support(U):
        return 1.0 + eps * P(U)

    def gradient(U):
        return U + eps * (gradP(U) + a * P(U)[..., None] * U)

    def hessian(U):
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


def from_support(fn, dim, label="fd-body"):
    """Finite-difference body from a bare support function (experimental).

    Derivatives of the 1-homogeneous extension are taken by central
    differences with one Richardson extrapolation level, at steps 1e-5 and
    5e-6.  Useful for quick experiments; analytic constructors are what
    the verification paths rely on.

    Args:
        fn: vectorized support function on (..., dim) unit vectors.
        dim: 2 or 3.
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
        return (4.0 * _grad_once(U, 5e-6) - _grad_once(U, 1e-5)) / 3.0

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
        return (4.0 * _hess_once(U, 5e-6) - _hess_once(U, 1e-5)) / 3.0

    return SupportBody(dim, fn, gradient, hessian, label)


# ---------------------------------------------------------------------------
# curvature engine


def _tangent_frames(U):
    # one smooth-enough orthonormal frame per node of u^perp in R^3, as the
    # component columns of t1 = ref x u / |ref x u| and t2 = u x t1, where
    # ref is e_z, or e_x near the poles.  The cross products are written
    # out in np.cross's operand order (a1*b2 - a2*b1, ...) and the norm as
    # sqrt(a0*a0 + a1*a1 + a2*a2), so every bit is that of np.cross and
    # np.linalg.norm
    u0, u1, u2 = U[:, 0], U[:, 1], U[:, 2]
    equatorial = np.abs(u2) < 0.9
    ref0, ref2 = (~equatorial).astype(float), equatorial.astype(float)
    a0 = 0.0 * u2 - ref2 * u1
    a1 = ref2 * u0 - ref0 * u2
    a2 = ref0 * u1 - 0.0 * u0
    norm = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    a0 /= norm
    a1 /= norm
    a2 /= norm
    return (a0, a1, a2), (u1 * a2 - u2 * a1, u2 * a0 - u0 * a2, u0 * a1 - u1 * a0)


def _tangential_forms(hess, t1, t2):
    # (t1.H.t1, t1.H.t2, t2.H.t2) as 9-term sums of a[i] * H[:, i, j] * b[j]
    # accumulated in (i, j) order: einsum("li,lij,lj->l")'s products and
    # sums, bit for bit, without its temporaries; t1[i] * H[:, i, j] is
    # formed once for the first two forms
    b11, b12, b22 = (np.zeros(len(hess)) for _ in range(3))
    left, term = np.empty(len(hess)), np.empty(len(hess))
    for i in range(3):
        for j in range(3):
            col = hess[:, i, j]
            np.multiply(t1[i], col, out=left)
            b11 += np.multiply(left, t1[j], out=term)
            b12 += np.multiply(left, t2[j], out=term)
            np.multiply(t2[i], col, out=left)
            b22 += np.multiply(left, t2[j], out=term)
    return b11, b12, b22


def _check_positive(body, U, h, radii):
    # the one positivity test: every principal radius above MIN_RADIUS,
    # then every support value above 0, each written so that NaN fails
    worst = radii.min()
    if not worst > MIN_RADIUS:
        idx = int(np.unravel_index(np.argmin(radii), radii.shape)[0])
        raise ConvexityError(
            "tangential hessian eigenvalue %.6g <= %g at u=%s (body %r)"
            % (worst, MIN_RADIUS, U[idx].tolist(), body.label))
    if not np.all(h > 0):
        idx = int(np.argmin(h))
        raise ConvexityError(
            "support function %.6g <= 0 at u=%s (body %r); origin not interior"
            % (h[idx], U[idx].tolist(), body.label))


def _curvature_core(body, U):
    # curvature_arrays without the boundary points and the duals: (h,
    # radii, s), untested; radii feed the positivity test, h and s every
    # integral.  In space the frames, forms, radii and s are explicit
    # arithmetic in the operation order of np.cross, np.linalg.norm and
    # einsum, so their bits
    h = np.asarray(body.support(U), dtype=float)
    hess = np.asarray(body.hessian(U), dtype=float)
    if body.dim == 2:
        # t^T hess t for the tangent t = (-u1, u0), summed in einsum's term
        # order: bitwise equal to einsum("li,lij,lj->l") on two or more rows
        # (einsum pairs the terms for a single row), and faster
        t0, t1 = -U[:, 1], U[:, 0]
        r = (t0 * hess[:, 0, 0] * t0 + t0 * hess[:, 0, 1] * t1
             + t1 * hess[:, 1, 0] * t0 + t1 * hess[:, 1, 1] * t1)
        radii = r[:, None]
        s = np.stack([np.ones_like(r), r], axis=1)
    else:
        # radii = mean -+ disc, the eigenvalues of [[b11, b12], [b12, b22]],
        # and s = (1, mean, det), for mean = 0.5 * (b11 + b22), det = b11 *
        # b22 - b12 * b12 and disc = sqrt(max(0.25 * (b11 - b22)**2 + b12 *
        # b12, 0)): computed in that operation order, in place
        b11, b12, b22 = _tangential_forms(hess, *_tangent_frames(U))
        s = np.empty((len(U), 3))
        s[:, 0] = 1.0
        mean = np.add(b11, b22, out=s[:, 1])
        mean *= 0.5
        b12 *= b12
        np.multiply(b11, b22, out=s[:, 2])
        s[:, 2] -= b12
        disc = np.subtract(b11, b22, out=b11)
        disc *= disc
        disc *= 0.25
        disc += b12
        np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
        radii = np.empty((len(U), 2))
        np.subtract(mean, disc, out=radii[:, 0])
        np.add(mean, disc, out=radii[:, 1])
    return h, radii, s


def curvature_arrays(body, U):
    """Batch curvature data at unit directions U of shape (L, dim).

    Returns:
        (h, x, radii, s, H): support values (L,), boundary points (L, dim),
        principal radii sorted ascending (L, dim-1), normalized symmetric
        functions s_j (L, dim) with s_0 = 1, and their boundary duals H_j.

    Raises:
        ConvexityError: if a radius is <= 1e-10 or a support value <= 0.
    """
    U = np.asarray(U, dtype=float)
    h, radii, s = _curvature_core(body, U)
    _check_positive(body, U, h, radii)
    H = s[:, ::-1] / s[:, -1:]  # duality: H_j * s_{n-1} = s_{n-1-j}
    x = np.asarray(body.gradient(U), dtype=float)
    return h, x, radii, s, H


def curvature_grid(body, rule=None):
    """Curvature data of the body at the rule's nodes, read-only.

    Building it is the body's validation (ConvexityError unless every
    radius is > 1e-10 and every support value > 0).  Computed once per rule
    and kept on the body, so a second validation is a lookup; the rule is
    a key by identity, so a rule built anew is a new entry.
    """
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        h, radii, s = _curvature_core(body, rule.nodes)
        _check_positive(body, rule.nodes, h, radii)
        h.setflags(write=False)
        s.setflags(write=False)
        return CurvatureGrid(h=h, s=s)

    return _cached(body, ("grid", rule), compute)


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
    h, x, radii, s, H = curvature_arrays(body, (u / norm)[None, :])
    return CurvaturePoint(u=u, x=x[0], h=float(h[0]),
                          radii=tuple(radii[0]), s=tuple(s[0]), H=tuple(H[0]))


# ---------------------------------------------------------------------------
# integral quantities


def body_volume(body, rule=None):
    """Volume of K: (1/n) * integral of h * s_{n-1}, kept on the body per rule."""
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        g = curvature_grid(body, rule)
        return integrate(rule, g.h * g.s_top) / body.dim

    return _cached(body, ("volume", rule), compute)


def polar_volume(body, rule=None):
    """Volume of the polar body: (1/n) * integral of h^-n, kept per rule."""
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        g = curvature_grid(body, rule)
        return integrate(rule, g.h ** (-float(body.dim))) / body.dim

    return _cached(body, ("polar_volume", rule), compute)


def centroid(body, rule=None):
    """Centroid of K via the cone decomposition over the boundary."""
    if rule is None:
        rule = default_rule(body.dim)
    g = curvature_grid(body, rule)
    vol = body_volume(body, rule)
    base = g.h * g.s_top
    x = np.asarray(body.gradient(rule.nodes), dtype=float)
    coords = [integrate(rule, x[:, i] * base) for i in range(body.dim)]
    return np.array(coords) / ((body.dim + 1) * vol)


# ---------------------------------------------------------------------------
# body transforms


def recenter(body, c):
    """Shift so that the point c becomes the origin: h -> h - <c, u>.

    Args:
        c: a point strictly interior to the body.

    Raises:
        ValueError: if the shifted support function is not positive on the
            default rule's nodes (c is not strictly interior).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (body.dim,):
        raise ValueError("center shape %s does not match dim %d" % (c.shape, body.dim))

    def support(U):
        return body.support(U) - U @ c

    def gradient(U):
        return body.gradient(U) - c

    def support_radius(U):
        h, r = body.support_radius(U)
        return h - U @ c, r

    out = SupportBody(body.dim, support, gradient, body.hessian,
                      "%s-%s" % (body.label, np.round(c, 12).tolist()),
                      support_radius=body.support_radius and support_radius)
    nodes = default_rule(body.dim).nodes
    h = out.support(nodes)
    if not np.all(h > 0):
        idx = int(np.argmin(h))
        raise ValueError(
            "point %s is not strictly interior: support becomes %.6g at u=%s"
            % (c.tolist(), h[idx], nodes[idx].tolist()))
    return out


def transform(body, arg):
    """Apply an orthogonal map (dim x dim array) or a positive scale factor.

    Rotation Q: h'(u) = h(Q^T u) with gradient and hessian conjugated by Q.
    Scale 0 < a < inf: h, gradient and hessian all scale linearly.
    """
    if np.isscalar(arg):
        a = float(arg)
        if not 0 < a < math.inf:
            raise ValueError("scale factor must be positive and finite, got %g" % a)
        label, polar_arg = "%s*%g" % (body.label, a), 1.0 / a

        def support(U):
            return a * body.support(U)

        def gradient(U):
            return a * body.gradient(U)

        def hessian(U):
            return a * body.hessian(U)

        def support_radius(U):
            h, r = body.support_radius(U)
            return a * h, a * r
    else:
        q = np.asarray(arg, dtype=float)
        _check_orthogonal(q, body.dim)
        label, polar_arg = "%s@rot" % body.label, q

        def support(U):
            return body.support(U @ q)  # U @ q has rows Q^T u

        def gradient(U):
            return body.gradient(U @ q) @ q.T

        def hessian(U):
            hin = body.hessian(U @ q)
            return np.einsum("ij,...jk,lk->...il", q, hin, q)

        def support_radius(U):
            return body.support_radius(U @ q)

    polar = None
    if body._polar is not None:
        polar = lambda: transform(body._polar(), polar_arg)
    return SupportBody(body.dim, support, gradient, hessian, label, polar=polar,
                       support_radius=body.support_radius and support_radius)


def _check_orthogonal(q, dim):
    if q.shape != (dim, dim):
        raise ValueError("matrix shape %s does not match dim %d" % (q.shape, dim))
    if not np.allclose(q @ q.T, np.eye(dim), rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not orthogonal within 1e-12")


def polar_body(body):
    """The polar body, for constructions that carry an analytic polar.

    Balls and centered ellipsoids (and their rotations and scalings) do;
    perturbed balls and recentered bodies do not.  Built once and kept on
    the body, so the polar's own cached grids and values are reused.
    """
    if body._polar is None:
        raise ValueError(
            "no analytic polar support oracle available for body %r" % body.label)
    return _cached(body, ("polar",), body._polar)


# ---------------------------------------------------------------------------
# body specification files


def body_from_dict(spec):
    """Construct a body from a JSON-style dict.

    Recognized keys: dim (2 or 3), type ("ball" | "ellipsoid" |
    "perturbed_ball"), radius, matrix, semi_axes, rotation, mode, epsilon,
    translate, label (a string). Unknown keys other than "provenance" are
    rejected.
    The body is validated by building its default-rule curvature grid,
    which it keeps.
    """
    if not isinstance(spec, dict):
        raise ValueError("body spec must be a JSON object")
    known = {"dim", "type", "radius", "matrix", "semi_axes", "rotation",
             "mode", "epsilon", "translate", "label", "provenance"}
    extra = set(spec) - known
    if extra:
        raise ValueError("unknown body spec keys: %s" % sorted(extra))
    try:
        dim = spec["dim"]
        kind = spec["type"]
    except KeyError as exc:
        raise ValueError("body spec is missing required key %s" % exc) from None
    # 2.0 is 2, but 2.7 and "2" are not
    if dim not in (2, 3):
        raise ValueError("body spec dim must be 2 or 3, got %r" % dim)
    dim = int(dim)
    label = spec.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("body spec label must be a string, got %r" % (label,))

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
        # only the shifted body's closures reach the unshifted one, and
        # they read its oracles, never its cache: drop its validating grid
        body._cache.clear()
        body = recenter(body, -shift)
        if label is not None:
            object.__setattr__(body, "label", label)
    curvature_grid(body)
    return body


def load_body(path):
    """Load a body specification JSON file; the label defaults to the stem.

    Validated as in body_from_dict, so the body keeps its default-rule grid.
    """
    path = Path(path)
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("malformed body file %s: %s" % (path, exc)) from None
    body = body_from_dict(spec)
    if "label" not in spec:
        object.__setattr__(body, "label", path.stem)
    return body
