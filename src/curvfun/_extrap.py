"""Polynomial extrapolation of a sequence of estimates to a zero parameter."""

import math

__all__ = ["check_steps", "check_whole", "neville_to_zero", "neville_weights"]


def check_steps(values, minimum, name):
    """The schedule rule: at least `minimum` finite, pairwise distinct entries.

    Every p grid, p schedule, N schedule and Neville step list passes it.
    Entries are read as floats and returned in the given order, and a
    ValueError names the list by `name`.
    """
    vals = [float(v) for v in values]
    if len(vals) < minimum:
        raise ValueError("%s needs at least %d entries, got %d" % (name, minimum, len(vals)))
    for v in vals:
        if not math.isfinite(v):
            raise ValueError("%s entries must be finite, got %r" % (name, v))
    if len(set(vals)) != len(vals):
        raise ValueError("%s entries must be distinct" % name)
    return vals


def check_whole(value, name):
    """The whole-number rule for sample sizes, trial counts and seeds.

    An integer, a numpy integer or a float with an integral value (2.0) is
    returned as an int; anything else (2.5, nan, "2") raises a ValueError
    that names the argument by `name`.
    """
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%s must be a whole number, got %r" % (name, value))


def neville_to_zero(xs, ys):
    """Neville's scheme evaluated at x = 0.

    Args:
        xs: strictly positive, pairwise distinct step parameters.
        ys: estimates y(x); y is assumed polynomial-like in x.

    Returns:
        The degree-(len(xs)-1) interpolant evaluated at 0.
    """
    t = [float(v) for v in ys]
    if len(xs) != len(t):
        raise ValueError("xs and ys must have equal length")
    xs = check_steps(xs, 2, "step list")
    k = len(xs)
    for level in range(1, k):
        for i in range(k - level):
            x0, x1 = xs[i], xs[i + level]
            t[i] = (x1 * t[i] - x0 * t[i + 1]) / (x1 - x0)
    return t[0]


def neville_weights(xs):
    """Weights w_i with neville_to_zero(xs, ys) = sum_i w_i * ys_i.

    The Lagrange basis polynomials of the nodes xs evaluated at 0,
    w_i = prod_{j != i} x_j / (x_j - x_i); independent errors in the ys
    reach the extrapolated value with gain sqrt(sum_i w_i^2).
    """
    xs = [float(v) for v in xs]
    return [math.prod(xj / (xj - xi) for j, xj in enumerate(xs) if j != i)
            for i, xi in enumerate(xs)]
