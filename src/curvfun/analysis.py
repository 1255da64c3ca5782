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

from ._extrap import check_steps, neville_to_zero
from .divergence import kl_divergence
from .functionals import (WeightIndex, _ZERO_INDEX, _quotient, _validate_p, asa_exponents,
                          weighted_asa)
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
    "CLAIMS",
    "default_suite_grids",
    "suite_claims",
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
    vmin, vmax, spread = _spread(1.0 / (g.s_top * g.h ** float(body.dim + 1)))
    return PettyStats(vmin=vmin, vmax=vmax, spread=spread,
                      is_ellipsoid=spread < EQUALITY_TOL)


def _spread(values):
    # min, max and the spread (max - min) over the mean of the two
    vmin, vmax = float(values.min()), float(values.max())
    return vmin, vmax, (vmax - vmin) / ((vmax + vmin) / 2.0)


def equality_class(body, rule=None):
    """Classify the body as "ball", "ellipsoid" or "generic" numerically.

    The label is computed once per rule and kept on the body.
    """
    if rule is None:
        rule = default_rule(body.dim)

    def compute():
        if _spread(curvature_grid(body, rule).h)[2] < EQUALITY_TOL:
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


def _holder_gate(claim, body, rule, params, r, s, t):
    """Both Hoelder claims' gate (n+r)(t-s) / ((n+t)(r-s)) > 1: the hypothesis
    (None for r = s) and the "hypothesis_violated" report where it fails."""
    n = body.dim
    for p in (r, s, t):
        _validate_p(n, p)
    hyp = None if (n + t) * (r - s) == 0 else _quotient(n + r, t - s, n + t, r - s)
    if hyp is not None and hyp > 1.0:
        return hyp, None
    return hyp, _report(claim, body, rule, params, verdict="hypothesis_violated",
                        extra={"hypothesis": hyp})


def verify_holder_three(body, index, r, s, t, rule=None):
    """Three-exponent comparison: omega^r against a product of omega^t, omega^s.

    Admissible when (n+r)(t-s) / ((n+t)(r-s)) > 1; then

        omega^r <= (omega^t)^theta_t * (omega^s)^theta_s

    with theta_t = (r-s)(n+t)/((t-s)(n+r)) and
    theta_s = (t-r)(n+s)/((t-s)(n+r)), which sum to one.  Equality holds
    exactly on centered ellipsoids.
    """
    n = body.dim
    params = {"r": r, "s": s, "t": t, "m": index.m, "k": index.k, "i": list(index.i)}
    hyp, refused = _holder_gate("holder3", body, rule, params, r, s, t)
    if refused:
        return refused
    theta_t = _quotient(r - s, n + t, t - s, n + r)
    theta_s = _quotient(t - r, n + s, t - s, n + r)
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
    params = {"r": r, "t": t, "m": index.m, "k": index.k, "i": list(index.i)}
    hyp, refused = _holder_gate("holdervol", body, rule, params, r, 0.0, t)
    if refused:
        return refused
    e1 = _quotient(n, t - r, t, n + r)
    e2 = _quotient(r, n + t, t, n + r)
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


def _log_ratios(body, index, rule, refs, ps):
    """Per reference p, (log omega^ref, [log(omega^p / omega^ref) for p in ps]);
    each omega is looked up once, the references first.  A p whose exponents
    round to p = inf's (|p| from about 1.8e16 in the plane, 3.6e16 in space) has
    omega^inf's bits, so it is refused."""
    top = asa_exponents(body.dim, math.inf)
    for p in ps:
        if asa_exponents(body.dim, p) == top:
            raise ValueError("p = %r cannot be told from p = inf in double precision" % p)
    log_refs = [math.log(_omega(body, index, ref, rule)) for ref in refs]
    logs = [math.log(_omega(body, index, p, rule)) for p in ps]
    return [(log_ref, [log - log_ref for log in logs]) for log_ref in log_refs]


def _exp_or_inf(x):
    # math.exp, reading inf where it raises OverflowError
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def monotonicity_scan(body, index, p_grid=_MONOTONE_GRID, rule=None):
    """Monotonicity of the normalized functional along a p grid.

    Two sequences are scanned:

    * form_i: (omega^p / omega^0)^((n+p)/p), nondecreasing in p,
    * form_ii: (omega^p / omega^inf)^(n+p), nonincreasing in p.

    Both are exactly constant on centered ellipsoids.  The sequence
    (omega^p / omega^0)^(n+p) is recorded alongside as form_ii_vol for
    reference, inf where it passes the float range; it is not monotone in
    general (any ball of radius other than one breaks it), so no verdict is
    attached to it.
    """
    n = body.dim
    grid = sorted(check_steps(p_grid, 2, "p grid"))
    for p in grid:
        _validate_p(n, p)
    if 0.0 in grid:
        raise ValueError("p grid must not contain 0")
    if grid[0] < -n < grid[-1]:
        raise ValueError("p grid must not cross -n = %d" % (-n))
    params = {"p_grid": grid, "m": index.m, "k": index.k, "i": list(index.i)}
    (_, to_0), (_, to_inf) = _log_ratios(body, index, rule, (0.0, math.inf), grid)
    form_i = [math.exp((n + p) / p * d) for p, d in zip(grid, to_0)]
    form_ii = [math.exp((n + p) * d) for p, d in zip(grid, to_inf)]
    form_ii_vol = [_exp_or_inf((n + p) * d) for p, d in zip(grid, to_0)]
    tol = 1e-10
    # form_i must not fall and form_ii must not rise
    margins = [(b - a) / max(abs(a), abs(b)) for a, b in zip(form_i, form_i[1:])]
    margins += [(a - b) / max(abs(a), abs(b)) for a, b in zip(form_ii, form_ii[1:])]
    worst = min(margins)
    if worst < -tol:
        verdict = "violated"
    else:
        flat = all((max(f) - min(f)) / max(f) < 1e-9 for f in (form_i, form_ii))
        verdict = "equality" if flat else "holds"
    return _report("monotone", body, rule, params, slack=worst, verdict=verdict,
                   extra={"form_i": form_i, "form_ii": form_ii,
                          "form_ii_vol": form_ii_vol,
                          "strict_steps": [m > STRICT_TOL for m in margins]})


def _limit_report(claim, body, rule, params, xs, logs, log_ref, kl_proof, kl_stated, extra):
    """A limit claim's read-out: the Neville value at x = 0 of its log sequence,
    exponentiated, against the derivation-form target exp(-(n/omega^ref) kl_proof)
    within LIMIT_TOL, with the statement form exp(-(n^2/omega^ref) kl_stated)."""
    n = body.dim
    ref = math.exp(log_ref)
    target = math.exp(-n * kl_proof / ref)
    extrapolated = math.exp(neville_to_zero(xs, logs))
    slack = abs(extrapolated - target) / abs(target)
    return _report(claim, body, rule, params, extrapolated, target, slack,
                   "holds" if slack <= LIMIT_TOL else "violated",
                   extra={"estimates": [math.exp(v) for v in logs],
                          "proof_form_target": target,
                          "stated_form_target": math.exp(-n * n * kl_stated / ref),
                          **extra})


def limit_p_infinity(body, index, rule=None, p_schedule=_LIMIT_INF_SCHEDULE):
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
    sched = check_steps(p_schedule, 3, "p schedule")
    params = {"p_schedule": sched, "m": index.m, "k": index.k, "i": list(index.i)}
    [(log_ominf, to_inf)] = _log_ratios(body, index, rule, (math.inf,), sched)
    kl = kl_divergence(body, index, "PQ", rule)
    rep = _limit_report("limit-inf", body, rule, params, [1.0 / (n + p) for p in sched],
                        [(n + p) * d for p, d in zip(sched, to_inf)], log_ominf, kl, kl,
                        {"kl_pq": kl})
    proof, stated = rep.rhs, rep.extra["stated_form_target"]
    rep.extra["targets_differ"] = abs(stated - proof) > 1e-12 * abs(proof)
    return rep


def limit_p_zero(body, index, rule=None, p_schedule=_LIMIT_ZERO_SCHEDULE):
    """Entropy limit at p -> 0+ of the polar body's normalized functional.

    Evaluates G(p) = (omega^p(K*) / omega^0(K*))^(n(n+p)/p) on the polar
    body K* (which must carry an analytic polar oracle: balls and centered
    ellipsoids do), extrapolates in p/(n+p), and compares against the
    derivation-form target exp(-(n/omega^0(K*)) KL(Q, P)) of K*.  The
    circulating statement form exp(-(n^2/omega^0(K*)) KL(P, Q)) is
    reported alongside.
    """
    n = body.dim
    sched = check_steps(p_schedule, 3, "p schedule")
    if 0.0 in sched:
        raise ValueError("p schedule must not contain 0 (G(p) divides by p)")
    params = {"p_schedule": sched, "m": index.m, "k": index.k, "i": list(index.i)}
    pol = polar_body(body)
    [(log_om0, to_0)] = _log_ratios(pol, index, rule, (0.0,), sched)
    kl_qp = kl_divergence(pol, index, "QP", rule)
    kl_pq = kl_divergence(pol, index, "PQ", rule)
    return _limit_report("limit-zero", body, rule, params, [p / (n + p) for p in sched],
                         [n * (n + p) / p * d for p, d in zip(sched, to_0)], log_om0,
                         kl_qp, kl_pq, {"polar_label": pol.label, "kl_qp_polar": kl_qp,
                                        "kl_pq_polar": kl_pq})


# ---------------------------------------------------------------------------
# the standard verification battery


# claim name -> its report on (body, index, rule, **params), in the suite's
# order; the keyword defaults are the single-claim defaults of `curvfun
# verify`, whose flags --p, --r, --s, --t, --p-grid and --p-schedule set the
# keywords of the same names (kinterp's k slot is t)
CLAIMS = {
    "petty": lambda body, index, rule: verify_petty(body, rule),
    "holder3": lambda body, index, rule, *, r=1.0, s=0.0, t=4.0:
        verify_holder_three(body, index, r, s, t, rule),
    "holdervol": lambda body, index, rule, *, r=1.0, t=4.0:
        verify_holder_volume(body, index, r, t, rule),
    "kinterp": lambda body, index, rule, *, p=1.0, r=0.0, s=1.0, t=2.0:
        verify_k_interpolation(body, index.m, index.i, p, r, s, t, rule),
    "monotone": lambda body, index, rule, *, p_grid=_MONOTONE_GRID:
        monotonicity_scan(body, index, p_grid, rule),
    "limit-inf": lambda body, index, rule, *, p_schedule=_LIMIT_INF_SCHEDULE:
        limit_p_infinity(body, index, rule, p_schedule),
    "limit-zero": lambda body, index, rule, *, p_schedule=_LIMIT_ZERO_SCHEDULE:
        limit_p_zero(body, index, rule, p_schedule),
}


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


def suite_claims(bodies, rules):
    """Yield the battery as (claim name, thunk) pairs in a fixed order.

    Per body (on rules[body.dim]): petty; per suite index, the holder3,
    holdervol and kinterp cases of default_suite_grids and monotone; then
    limit-inf and, on bodies with a polar oracle, limit-zero, both on the
    zero index.
    """
    for body in bodies:
        g, zero = default_suite_grids(body.dim), _ZERO_INDEX[body.dim]
        cases = [("petty", zero, {})]
        for index in g["indices"]:
            cases += [("holder3", index, {"r": r, "s": s, "t": t}) for r, s, t in g["holder3"]]
            cases += [("holdervol", index, {"r": r, "t": t}) for r, t in g["holdervol"]]
            cases += [("kinterp", index, {"p": p, "r": r, "s": s, "t": k})
                      for r, s, k in g["kinterp_triples"] for p in g["kinterp_p"]]
            cases.append(("monotone", index, {"p_grid": g["monotone_grid"]}))
        cases.append(("limit-inf", zero, {"p_schedule": g["limit_inf_schedule"]}))
        if body._polar is not None:
            cases.append(("limit-zero", zero, {"p_schedule": g["limit_zero_schedule"]}))
        for name, index, params in cases:
            yield name, partial(CLAIMS[name], body, index, rules[body.dim], **params)


def run_verification_suite(bodies, rule2=None, rule3=None):
    """Run the standard battery over a list of bodies.

    Claims are generated and evaluated in a fixed order, so output is
    deterministic.
    """
    rules = {2: rule2 or default_rule(2), 3: rule3 or default_rule(3)}
    return [claim() for _, claim in suite_claims(bodies, rules)]
