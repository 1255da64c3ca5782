"""Polynomial extrapolation of a sequence of estimates to a zero parameter."""

import math

__all__ = ["neville_to_zero", "neville_weights"]


def neville_to_zero(xs, ys):
    """Neville's scheme evaluated at x = 0.

    Args:
        xs: strictly positive, pairwise distinct step parameters.
        ys: estimates y(x); y is assumed polynomial-like in x.

    Returns:
        The degree-(len(xs)-1) interpolant evaluated at 0.
    """
    xs = [float(v) for v in xs]
    t = [float(v) for v in ys]
    k = len(xs)
    if k != len(t):
        raise ValueError("xs and ys must have equal length")
    if k < 2:
        raise ValueError("need at least two estimates to extrapolate")
    if len(set(xs)) != k:
        raise ValueError("step parameters must be pairwise distinct")
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
