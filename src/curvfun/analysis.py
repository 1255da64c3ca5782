"""Machine verification of the inequality and limit structure.

Each check evaluates both sides of a claimed comparison by quadrature and
returns a VerificationReport with a verdict:

* "holds": the inequality holds with slack above the equality tolerance,
* "equality": both sides agree within 1e-8 relative,
* "violated": the inequality fails beyond the equality tolerance,
* "hypothesis_violated": the claim's admissibility condition fails, so
  nothing was checked.

Checks never raise on a false inequality; verdicts are data.  Strictness
(slack above 1e-6) is recorded separately so equality-case statements can
be tested: the Hoelder-type comparisons degenerate to equality exactly on
centered ellipsoids, the k-slot interpolation exactly on centered balls.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._extrap import neville_to_zero
from .divergence import kl_divergence
from .functionals import WeightIndex, _ZERO_INDEX, weighted_asa, _validate_p
from .geometry import _cached, curvature_grid, polar_body
from .quadrature import default_rule

__all__ = [
    "EQUALITY_TOL",
    "LIMIT_TOL",
    "STRICT_TOL",
    "PettyStats",
    "VerificationReport",
    "petty_ratio_stats",
    "equality_class",
    "verify_holder_three",
    "verify_holder_volume",
    "verify_k_interpolation",
    "verify_petty",
    "monotonicity_scan",
    "limit_p_infinity",
    "limit_p_zero",
    "default_suite_grids",
    "run_verification_suite",
]

EQUALITY_TOL = 1e-8
STRICT_TOL = 1e-6
LIMIT_TOL = 1e-4

# default p grid of the monotonicity scan and schedules of the two limits
_MONOTONE_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_LIMIT_INF_SCHEDULE = (10.0, 30.0, 100.0, 300.0, 1000.0)
_LIMIT_ZERO_SCHEDULE = (0.3, 0.1, 0.03, 0.01)


@dataclass(frozen=True)
class PettyStats:
    """Range statistics of the Petty ratio H_{n-1}/h^(n+1) over the sphere."""

    vmin: float
    vmax: float
    spread: float
    is_ellipsoid: bool


@dataclass
class VerificationReport:
    """Outcome of one verified claim."""

    claim: str
    body_label: str
    params: dict
    lhs: float | None
    rhs: float | None
    slack: float | None
    verdict: str
    equality_case: str
    extra: dict = field(default_factory=dict)

    @property
    def strict(self):
        return self.verdict == "holds" and self.slack is not None and self.slack > STRICT_TOL

    def to_record(self):
        rec = {
            "claim": self.claim,
            "body": self.body_label,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "verdict": self.verdict,
            "equality_case": self.equality_case,
        }
        if self.extra:
            rec["extra"] = dict(self.extra)
        return rec


def petty_ratio_stats(body, rule=None):
    """Min, max and relative spread of the Petty ratio on the rule nodes.

    A spread below 1e-8 flags the body as a centered ellipsoid (on which
    the ratio is exactly constant).
    """
    g = curvature_grid(body, rule)
    ratio = 1.0 / (g.s_top * g.h ** float(body.dim + 1))
    vmin, vmax = float(ratio.min()), float(ratio.max())
    spread = (vmax - vmin) / ((vmax + vmin) / 2.0)
    return PettyStats(vmin=vmin, vmax=vmax, spread=spread,
                      is_ellipsoid=spread < EQUALITY_TOL)


def _h_spread(body, rule):
    g = curvature_grid(body, rule)
    hmin, hmax = float(g.h.min()), float(g.h.max())
    return (hmax - hmin) / ((hmax + hmin) / 2.0)


def equality_class(body, rule=None):
    """Classify the body as "ball", "ellipsoid" or "generic" numerically.

    The label is computed once per rule and kept on the body.
    """
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        if _h_spread(body, rule) < EQUALITY_TOL:
            return "ball"
        if petty_ratio_stats(body, rule).is_ellipsoid:
            return "ellipsoid"
        return "generic"

    return _cached(body, ("equality_class", rule), compute)


def _report(claim, body, rule, params, lhs=None, rhs=None, slack=None,
            verdict=None, *, extra):
    """A claim's report on the body.

    Without a verdict it is the comparison lhs <= rhs: the slack is the
    relative gap and the verdict its reading against EQUALITY_TOL.
    """
    if verdict is None:
        slack = (rhs - lhs) / max(abs(lhs), abs(rhs))
        if slack < -EQUALITY_TOL:
            verdict = "violated"
        elif abs(slack) <= EQUALITY_TOL:
            verdict = "equality"
        else:
            verdict = "holds"
    return VerificationReport(
        claim=claim, body_label=body.label, params=params, lhs=lhs, rhs=rhs,
        slack=slack, verdict=verdict, equality_case=equality_class(body, rule),
        extra=extra)


def _omega(body, index, p, rule):
    return weighted_asa(body, index, p, rule).value


def verify_holder_three(body, index, r, s, t, rule=None):
    """Three-exponent comparison: omega^r against a product of omega^t, omega^s.

    Admissible when (n+r)(t-s) / ((n+t)(r-s)) > 1; then

        omega^r <= (omega^t)^theta_t * (omega^s)^theta_s

    with theta_t = (r-s)(n+t)/((t-s)(n+r)) and
    theta_s = (t-r)(n+s)/((t-s)(n+r)), which sum to one.  Equality holds
    exactly on centered ellipsoids.
    """
    n = body.dim
    for p in (r, s, t):
        _validate_p(n, p)
    params = {"r": r, "s": s, "t": t, "m": index.m, "k": index.k, "i": list(index.i)}
    denom = (n + t) * (r - s)
    hyp = math.inf if denom == 0 else (n + r) * (t - s) / denom
    if not hyp > 1.0 or denom == 0:
        return _report("holder3", body, rule, params, verdict="hypothesis_violated",
                       extra={"hypothesis": None if denom == 0 else hyp})
    theta_t = (r - s) * (n + t) / ((t - s) * (n + r))
    theta_s = (t - r) * (n + s) / ((t - s) * (n + r))
    lhs = _omega(body, index, r, rule)
    om_t = _omega(body, index, t, rule)
    om_s = _omega(body, index, s, rule)
    rhs = math.exp(theta_t * math.log(om_t) + theta_s * math.log(om_s))
    return _report("holder3", body, rule, params, lhs, rhs,
                   extra={"hypothesis": hyp, "theta_t": theta_t, "theta_s": theta_s})


def verify_holder_volume(body, index, r, t, rule=None):
    """Volume-normalized comparison of omega^r against a power of omega^t.

    Admissible when (n+r)t / ((n+t)r) > 1; then with muvol the weighted
    volume of the body,

        omega^r / muvol <= n^(n(t-r)/(t(n+r))) * (omega^t / muvol)^(r(n+t)/(t(n+r))).

    This is the three-exponent comparison specialized to s = 0, and it
    degenerates to equality exactly on centered ellipsoids.
    """
    n = body.dim
    for p in (r, t):
        _validate_p(n, p)
    params = {"r": r, "t": t, "m": index.m, "k": index.k, "i": list(index.i)}
    denom = (n + t) * r
    hyp = math.inf if denom == 0 else (n + r) * t / denom
    if not hyp > 1.0 or denom == 0:
        return _report("holdervol", body, rule, params, verdict="hypothesis_violated",
                       extra={"hypothesis": None if denom == 0 else hyp})
    e1 = n * (t - r) / (t * (n + r))
    e2 = r * (n + t) / (t * (n + r))
    muvol = _omega(body, index, 0.0, rule) / n
    lhs = _omega(body, index, r, rule) / muvol
    om_t = _omega(body, index, t, rule)
    rhs = math.exp(e1 * math.log(n) + e2 * math.log(om_t / muvol))
    return _report("holdervol", body, rule, params, lhs, rhs,
                   extra={"hypothesis": hyp, "e1": e1, "e2": e2})


def verify_k_interpolation(body, m, i, p, r, s, k, rule=None):
    """Log-convexity of the k slot: interpolation between k-values r < s < k.

        omega^p_{m,s,i} <= (omega^p_{m,k,i})^((s-r)/(k-r)) * (omega^p_{m,r,i})^((k-s)/(k-r)).

    Equality holds exactly on centered balls (constant support function).
    """
    n = body.dim
    if not (r < s < k):
        raise ValueError("k-slot triple must be ordered r < s < k, got %r" % ((r, s, k),))
    _validate_p(n, p)
    params = {"m": m, "i": list(i), "p": p, "r": r, "s": s, "k": k}
    x = (s - r) / (k - r)
    lhs = _omega(body, WeightIndex(m, s, tuple(i)), p, rule)
    om_k = _omega(body, WeightIndex(m, k, tuple(i)), p, rule)
    om_r = _omega(body, WeightIndex(m, r, tuple(i)), p, rule)
    rhs = math.exp(x * math.log(om_k) + (1.0 - x) * math.log(om_r))
    return _report("kinterp", body, rule, params, lhs, rhs, extra={"x": x})


def verify_petty(body, rule=None):
    """Range of the Petty ratio: "equality" when it is constant (centered
    ellipsoids), "holds" otherwise; lhs and rhs are its min and max."""
    stats = petty_ratio_stats(body, rule)
    return _report("petty", body, rule, {}, stats.vmin, stats.vmax, stats.spread,
                   "equality" if stats.is_ellipsoid else "holds",
                   extra={"spread": stats.spread})


def _check_p_grid(n, p_grid, exclude_zero):
    grid = sorted(float(p) for p in p_grid)
    if len(grid) < 2:
        raise ValueError("p grid needs at least 2 entries, got %d" % len(grid))
    if len(set(grid)) != len(grid):
        raise ValueError("p grid entries must be distinct")
    for p in grid:
        if not math.isfinite(p):
            raise ValueError("p grid entries must be finite, got %r" % p)
        _validate_p(n, p)
        if exclude_zero and p == 0.0:
            raise ValueError("p grid must not contain 0")
    below = [p for p in grid if p < -n]
    above = [p for p in grid if p > -n]
    if below and above:
        raise ValueError("p grid must not cross -n = %d" % (-n))
    return grid


def monotonicity_scan(body, index, p_grid=_MONOTONE_GRID, rule=None):
    """Monotonicity of the normalized functional along a p grid.

    Two sequences are scanned:

    * form_i: (omega^p / omega^0)^((n+p)/p), nondecreasing in p,
    * form_ii: (omega^p / omega^inf)^(n+p), nonincreasing in p.

    Both are exactly constant on centered ellipsoids.  The sequence
    (omega^p / omega^0)^(n+p) is recorded alongside as form_ii_vol for
    reference; it is not monotone in general (any ball of radius other
    than one breaks it), so no verdict is attached to it.
    """
    n = body.dim
    grid = _check_p_grid(n, p_grid, exclude_zero=True)
    params = {"p_grid": grid, "m": index.m, "k": index.k, "i": list(index.i)}
    log_om0 = math.log(_omega(body, index, 0.0, rule))
    log_ominf = math.log(_omega(body, index, math.inf, rule))
    form_i, form_ii, form_ii_vol = [], [], []
    for p in grid:
        log_om = math.log(_omega(body, index, p, rule))
        form_i.append(math.exp((n + p) / p * (log_om - log_om0)))
        form_ii.append(math.exp((n + p) * (log_om - log_ominf)))
        form_ii_vol.append(math.exp((n + p) * (log_om - log_om0)))
    tol = 1e-10
    margins = []
    for a, b in zip(form_i, form_i[1:]):
        margins.append((b - a) / max(abs(a), abs(b)))
    for a, b in zip(form_ii, form_ii[1:]):
        margins.append((a - b) / max(abs(a), abs(b)))
    worst = min(margins)
    if worst < -tol:
        verdict = "violated"
    else:
        const_i = (max(form_i) - min(form_i)) / max(form_i) < 1e-9
        const_ii = (max(form_ii) - min(form_ii)) / max(form_ii) < 1e-9
        verdict = "equality" if (const_i and const_ii) else "holds"
    return _report("monotone", body, rule, params, slack=worst, verdict=verdict,
                   extra={"form_i": form_i, "form_ii": form_ii,
                          "form_ii_vol": form_ii_vol,
                          "strict_steps": [m > STRICT_TOL for m in margins]})


def _check_schedule(sched, minimum=3):
    sched = [float(v) for v in sched]
    if len(sched) < minimum:
        raise ValueError("schedule too short to extrapolate (need >= %d points)" % minimum)
    if len(set(sched)) != len(sched):
        raise ValueError("schedule entries must be distinct")
    for v in sched:
        if not math.isfinite(v):
            raise ValueError("schedule entries must be finite, got %r" % v)
    return sched


def limit_p_infinity(body, index, rule=None, p_schedule=_LIMIT_INF_SCHEDULE,
                     tol=LIMIT_TOL):
    """Entropy limit at p -> inf of (omega^p / omega^inf)^(n+p).

    The schedule values are evaluated exactly and Richardson-extrapolated
    in 1/(n+p).  The extrapolation is compared against the derivation-form
    target exp(-(n/omega^inf) KL(P, Q)); the circulating statement-form
    constant exp(-(n^2/omega^inf) KL(P, Q)) (an extra factor n in the
    exponent) is reported alongside.  On centered ellipsoids the sequence
    is constant and both the limit and the derivation form equal the
    constant Petty ratio to the power -n.
    """
    n = body.dim
    sched = _check_schedule(p_schedule)
    params = {"p_schedule": sched, "m": index.m, "k": index.k, "i": list(index.i)}
    log_ominf = math.log(_omega(body, index, math.inf, rule))
    xs, logs, estimates = [], [], []
    for p in sched:
        log_om = math.log(_omega(body, index, p, rule))
        xs.append(1.0 / (n + p))
        logs.append((n + p) * (log_om - log_ominf))
        estimates.append(math.exp(logs[-1]))
    extrapolated = math.exp(neville_to_zero(xs, logs))
    kl = kl_divergence(body, index, "PQ", rule)
    ominf = math.exp(log_ominf)
    proof_target = math.exp(-n * kl / ominf)
    stated_target = math.exp(-n * n * kl / ominf)
    slack = abs(extrapolated - proof_target) / abs(proof_target)
    verdict = "holds" if slack <= tol else "violated"
    return _report("limit-inf", body, rule, params, extrapolated, proof_target,
                   slack, verdict,
                   extra={"estimates": estimates,
                          "proof_form_target": proof_target,
                          "stated_form_target": stated_target,
                          "kl_pq": kl,
                          "targets_differ": abs(stated_target - proof_target)
                                            > 1e-12 * abs(proof_target)})


def limit_p_zero(body, index, rule=None, p_schedule=_LIMIT_ZERO_SCHEDULE,
                 tol=LIMIT_TOL):
    """Entropy limit at p -> 0+ of the polar body's normalized functional.

    Evaluates G(p) = (omega^p(K*) / omega^0(K*))^(n(n+p)/p) on the polar
    body K* (which must carry an analytic polar oracle: balls and centered
    ellipsoids do), extrapolates in p/(n+p), and compares against the
    derivation-form target exp(-(n/omega^0(K*)) KL(Q, P)) of K*.  The
    circulating statement form exp(-(n^2/omega^0(K*)) KL(P, Q)) is
    reported alongside.
    """
    n = body.dim
    sched = _check_schedule(p_schedule)
    if 0.0 in sched:
        raise ValueError("p schedule must not contain 0 (G(p) divides by p)")
    params = {"p_schedule": sched, "m": index.m, "k": index.k, "i": list(index.i)}
    pol = polar_body(body)
    log_om0 = math.log(_omega(pol, index, 0.0, rule))
    xs, logs, estimates = [], [], []
    for p in sched:
        log_om = math.log(_omega(pol, index, p, rule))
        xs.append(p / (n + p))
        logs.append(n * (n + p) / p * (log_om - log_om0))
        estimates.append(math.exp(logs[-1]))
    extrapolated = math.exp(neville_to_zero(xs, logs))
    kl_qp = kl_divergence(pol, index, "QP", rule)
    kl_pq = kl_divergence(pol, index, "PQ", rule)
    om0 = math.exp(log_om0)
    proof_target = math.exp(-n * kl_qp / om0)
    stated_target = math.exp(-n * n * kl_pq / om0)
    slack = abs(extrapolated - proof_target) / abs(proof_target)
    verdict = "holds" if slack <= tol else "violated"
    return _report("limit-zero", body, rule, params, extrapolated, proof_target,
                   slack, verdict,
                   extra={"estimates": estimates,
                          "polar_label": pol.label,
                          "proof_form_target": proof_target,
                          "stated_form_target": stated_target,
                          "kl_qp_polar": kl_qp,
                          "kl_pq_polar": kl_pq})


# ---------------------------------------------------------------------------
# the standard verification battery


def default_suite_grids(dim):
    """Parameter grids used by the standard verification suite."""
    if dim == 2:
        indices = [WeightIndex(0, 0.0, (0,)),
                   WeightIndex(1, 0.0, (1,)),
                   WeightIndex(2, 1.5, (2,))]
    else:
        indices = [WeightIndex(0, 0.0, (0, 0)),
                   WeightIndex(1, 0.0, (1, 0)),
                   WeightIndex(2, 1.0, (0, 1))]
    return {
        "indices": indices,
        "holder3": [(1.0, 0.0, 4.0), (2.0, 0.0, 4.0), (1.0, 0.5, 3.0),
                    (3.0, 1.0, 7.0), (2.0, 1.0, 4.0), (0.5, 0.0, 2.0)],
        "holdervol": [(1.0, 2.0), (1.0, 4.0), (2.0, 3.0), (0.5, 1.0), (1.0, 8.0)],
        "kinterp_triples": [(0.0, 1.0, 2.0), (0.0, 1.5, 3.0)],
        "kinterp_p": [1.0, 2.0],
        "monotone_grid": list(_MONOTONE_GRID),
        "limit_inf_schedule": list(_LIMIT_INF_SCHEDULE),
        "limit_zero_schedule": list(_LIMIT_ZERO_SCHEDULE),
    }


def _suite_claims(bodies, rules):
    """Yield the claims as thunks in a fixed deterministic order."""
    for body in bodies:
        rule = rules[body.dim]
        grids = default_suite_grids(body.dim)

        yield partial(verify_petty, body, rule)
        for index in grids["indices"]:
            for (r, s, t) in grids["holder3"]:
                yield partial(verify_holder_three, body, index, r, s, t, rule)
            for (r, t) in grids["holdervol"]:
                yield partial(verify_holder_volume, body, index, r, t, rule)
            for (r, s, k) in grids["kinterp_triples"]:
                for p in grids["kinterp_p"]:
                    yield partial(verify_k_interpolation,
                                  body, index.m, index.i, p, r, s, k, rule)
            yield partial(monotonicity_scan, body, index, rule=rule)

        zero = _ZERO_INDEX[body.dim]
        yield partial(limit_p_infinity, body, zero, rule)
        if body._polar is not None:
            yield partial(limit_p_zero, body, zero, rule)


def run_verification_suite(bodies, rule2=None, rule3=None):
    """Run the standard battery over a list of bodies.

    Claims are generated and evaluated in a fixed order, so output is
    deterministic.
    """
    rules = {2: rule2 or default_rule(2), 3: rule3 or default_rule(3)}
    return [claim() for claim in _suite_claims(bodies, rules)]
