"""The four benchmark workloads and the inputs they are built from.

Every input is generated here from the workload seed: body specification
files (written and then read back through ``load_body``), Monte Carlo call
seeds and the ``evals`` query order.  Each workload is a closed loop with
one caller.  ``unit(k, stats, tr)`` runs the k-th unit of work, times each
operation in it and checks its result; the same unit can run with tracing
off (``NullTracer``) or on.

* ``mc2d``/``mc3d``: one unit is one ``interpretation_check`` call, one op
  is one hull trial.  Traced, the call is rebuilt from the public sampler
  calls on the same ``[seed, N, t]`` streams and its per-N means must equal
  the untraced call's.
* ``verify``: one unit is one pass of the 405-claim battery on freshly
  loaded bodies, one op is one claim.
* ``evals``: one unit is a block of single default-rule calls, one op is
  one call.
"""

import heapq
import json
import math
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np

from tracer import NullTracer

NULL = NullTracer()
_perf = time.perf_counter

# criterion 9 scaled down: its schedule and 0.15 gate, 16 trials per size
MC_TRIALS = 16
MC_GATE = 0.15
MC_SCHEDULE = {2: (1000, 2000, 4000), 3: (250, 500, 1000)}
MC_BODIES = {
    "mc2d": [
        ("disk", {"dim": 2, "type": "ball", "radius": 1.0}),
        ("ellipse_2_1", {"dim": 2, "type": "ellipsoid", "semi_axes": [2.0, 1.0]}),
        ("perturbed_disk_eps01", {"dim": 2, "type": "perturbed_ball",
                                  "mode": 3, "epsilon": 0.1}),
    ],
    "mc3d": [
        ("ellipsoid_2_1_1", {"dim": 3, "type": "ellipsoid",
                             "semi_axes": [2.0, 1.0, 1.0]}),
        ("ball3", {"dim": 3, "type": "ball", "radius": 1.0}),
    ],
}
# Calls cycle through the bodies in this order.  mc3d issues two ellipsoid
# calls per ball call: the two bodies cost different amounts per trial, and
# an even split would put the latency median between the two clusters.
MC_CYCLE = {"mc2d": (0, 1, 2), "mc3d": (0, 0, 1)}

# Closed forms checked on every call: (result attribute, value, abs tol).
# Tolerances are those of acceptance criteria 2 and 9.
MC_CLOSED = {
    "disk": ("target", 4.0 * math.pi ** 3, 1e-9),
    "ellipse_2_1": ("functional", 2.0 * math.pi * 2.0 ** (1.0 / 3.0), 1e-11),
    "ball3": ("target", 16.0 * math.pi, 1e-9),
    "ellipsoid_2_1_1": ("functional", 4.0 * math.pi * math.sqrt(2.0),
                        1e-7 * 4.0 * math.pi * math.sqrt(2.0)),
}
ASA_ELLIPSE_2_1 = MC_CLOSED["ellipse_2_1"][1:]

EVALS_P = (0.0, 0.5, 1.0, 2.0, math.inf)
EVALS_KINDS = ([("asa", p) for p in EVALS_P]
               + [("weighted_asa", p) for p in EVALS_P]
               + [("kl", None), ("hellinger", None), ("volume", None)])
EVALS_SPAN = {"asa": "functionals.asa", "weighted_asa": "functionals.weighted_asa",
              "kl": "divergence.kl_divergence", "hellinger": "divergence.hellinger",
              "volume": "geometry.body_volume"}
EVALS_BLOCK = 64
# Chosen, not measured: no source gives the call mix of real use.  Every
# query is issued twice, the repeat within EVALS_RECENT fresh queries; the
# share of calls that repeat an earlier call of the run is measured and
# printed.
EVALS_RECENT = 16


class Stats:
    """Ops attempted and failed, time inside timed ops, per-op latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies = []

    def add(self, ops, seconds, failed, latency=True):
        self.attempted += ops
        self.failed += failed
        self.busy += seconds
        if latency:
            self.latencies.append(seconds / ops)


def timed_pair(run, k, stats, tr):
    """Run the same work untraced and traced, alternating which goes first;
    ``run(tracer)`` adds its timed ops to stats.  Returns the (untraced,
    traced) seconds inside timed ops."""
    busy = {}
    for traced in ((False, True) if k % 2 == 0 else (True, False)):
        before = stats.busy
        run(tr if traced else NULL)
        busy[traced] = stats.busy - before
    return busy[False], busy[True]


def _report(exc_info):
    # an op that raised counts as failed; the run goes on
    traceback.print_exception(*exc_info, file=sys.stderr)


def call_seed(seed, k):
    """Seed of the k-th Monte Carlo call, derived from the workload seed."""
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1)[0])


def write_specs(directory, specs):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, spec in specs:
        path = directory / (name + ".json")
        path.write_text(json.dumps(spec, sort_keys=True, indent=2) + "\n")
        paths.append(path)
    return paths


def load_bodies(cf, tr, paths):
    bodies = []
    for path in paths:
        with tr.span("geometry.load_body"):
            bodies.append(cf.load_body(path))
    return bodies


def default_rules(cf, tr):
    rules = {}
    for dim in (2, 3):
        with tr.span("quadrature.default_rule", "d%d" % dim):
            rules[dim] = cf.default_rule(dim)
    return rules


def make_corpus(cf, tr, directory):
    from curvfun.cli import corpus_gen
    with tr.span("cli.corpus_gen"):
        paths = corpus_gen(str(directory))
    return sorted(Path(p) for p in paths)


# ---------------------------------------------------------------------------
# Monte Carlo


def traced_interpretation(cf, tr, body, schedule, trials, seed, rule):
    """interpretation_check rebuilt from public calls; returns per-N means.

    Uses the same streams as ``expected_deficit``: trial t at size N draws
    from ``default_rng([seed, N, t])``.
    """
    d = "d%d" % body.dim
    with tr.span("randpoly.boundary_density", d):
        density = cf.boundary_density(body, p=1.0, rule=rule)
    with tr.span("geometry.body_volume", "shared"):
        vol = cf.body_volume(body, rule)
    means = []
    for n in schedule:
        tag = "%s.n%d" % (d, n)
        deficits = []
        for t in range(trials):
            rng = np.random.default_rng([int(seed), n, t])
            with tr.span("randpoly.sample_boundary", tag):
                pts, st = cf.sample_boundary(density, n, seed=rng, return_stats=True)
            with tr.span("randpoly.hull_volume", d):
                res = cf.hull_volume(pts)
            tr.count("randpoly.proposals", st.proposals)
            tr.count("randpoly.accepted", st.accepted)
            tr.count("randpoly.requested", n)
            tr.count("randpoly.hull_degenerate", int(res.degenerate))
            deficits.append(vol - res.volume)
        means.append(math.fsum(deficits) / trials)
    with tr.span("functionals.weighted_asa", "shared"):
        cf.weighted_asa(body, density.index, density.p, rule)
    return means


class Workload:
    def prepare(self, tracing):
        """Untimed work after set-up, before the first timed op."""

    def notes(self, stats):
        """Rows (name, value, unit, samples) printed with the end-to-end
        metrics that are not metrics themselves."""
        return []


class MonteCarlo(Workload):
    def __init__(self, cf, name, seed, tmp, tr, wrong):
        self.cf = cf
        self.seed = seed
        self.wrong = wrong
        self.cycle = MC_CYCLE[name]
        paths = write_specs(tmp / name, MC_BODIES[name])
        self.bodies = load_bodies(cf, tr, paths)
        self.dim = self.bodies[0].dim
        self.schedule = MC_SCHEDULE[self.dim]
        self.ops = MC_TRIALS * len(self.schedule)
        self.rss_ops = 10 * self.ops * len(self.cycle)
        with tr.span("quadrature.default_rule", "d%d" % self.dim):
            self.rule = cf.default_rule(self.dim)
        for body in self.bodies:
            with tr.span("randpoly.boundary_density", "cold.d%d" % self.dim):
                cf.boundary_density(body, p=1.0, rule=self.rule)

    def _passes(self, body, check):
        scale = 1.5 if self.wrong else 1.0
        target = check.target * scale
        if not abs(check.extrapolated - target) / abs(target) < MC_GATE:
            return False
        closed = MC_CLOSED.get(body.label)
        if closed is not None:
            attr, value, tol = closed
            value *= 1.0 + 1e-6 if self.wrong else 1.0
            if not abs(getattr(check, attr) - value) < tol:
                return False
        return True

    def _call(self, j, stats):
        body = self.bodies[self.cycle[j % len(self.cycle)]]
        seed = call_seed(self.seed, j)
        check = None
        t0 = _perf()
        try:
            check = self.cf.interpretation_check(
                body, p=1.0, n_schedule=self.schedule, trials=MC_TRIALS,
                seed=seed, rule=self.rule, allow_dim3=self.dim == 3)
        except Exception:
            _report(sys.exc_info())
        dt = _perf() - t0
        ok = check is not None and self._passes(body, check)
        stats.add(self.ops, dt, 0 if ok else self.ops, latency=False)
        return body, seed, check

    def unit(self, k, stats, tr):
        # one round calls each body of the cycle once; its mean time per
        # trial is one latency sample, so samples do not split into
        # clusters by body
        before = stats.busy
        for j in range(k * len(self.cycle), (k + 1) * len(self.cycle)):
            self._call(j, stats)
        stats.latencies.append((stats.busy - before) / (self.ops * len(self.cycle)))

    def _rebuild(self, j, body, seed, expected, stats, tr):
        tr.op = j
        means = None
        t0 = _perf()
        try:
            means = traced_interpretation(self.cf, tr, body, self.schedule,
                                          MC_TRIALS, seed, self.rule)
        except Exception:
            _report(sys.exc_info())
        dt = _perf() - t0
        if self.wrong and means is not None:
            means[0] = math.nextafter(means[0], math.inf)
        ok = expected is not None and means == expected
        stats.add(self.ops, dt, 0 if ok else self.ops, latency=False)

    def pair(self, k, stats, tr):
        # each call of the round runs once as the workload makes it, then its
        # rebuild from public calls runs untraced and traced; both rebuilds
        # must give the call's per-N means, and the overhead compares them
        untraced = traced = 0.0
        for j in range(k * len(self.cycle), (k + 1) * len(self.cycle)):
            body, seed, check = self._call(j, stats)
            expected = None if check is None else [est.mean for est in check.estimates]
            u, t = timed_pair(partial(self._rebuild, j, body, seed, expected, stats),
                              j, stats, tr)
            untraced += u
            traced += t
        return untraced, traced


# ---------------------------------------------------------------------------
# verification battery


def petty_report(cf, body, rule):
    """The suite's petty claim, built from the public calls."""
    stats = cf.petty_ratio_stats(body, rule)
    return cf.VerificationReport(
        claim="petty", body_label=body.label, params={},
        lhs=stats.vmin, rhs=stats.vmax, slack=stats.spread,
        verdict="equality" if stats.is_ellipsoid else "holds",
        equality_case=cf.equality_class(body, rule),
        extra={"spread": stats.spread})


def suite_claims(cf, bodies, rules):
    """(claim, thunk) pairs in run_verification_suite's order and grids."""
    claims = []
    for body in bodies:
        rule = rules[body.dim]
        g = cf.default_suite_grids(body.dim)
        claims.append(("petty", partial(petty_report, cf, body, rule)))
        for index in g["indices"]:
            for r, s, t in g["holder3"]:
                claims.append(("holder3", partial(
                    cf.verify_holder_three, body, index, r, s, t, rule)))
            for r, t in g["holdervol"]:
                claims.append(("holdervol", partial(
                    cf.verify_holder_volume, body, index, r, t, rule)))
            for r, s, k in g["kinterp_triples"]:
                for p in g["kinterp_p"]:
                    claims.append(("kinterp", partial(
                        cf.verify_k_interpolation, body, index.m, index.i,
                        p, r, s, k, rule)))
            claims.append(("monotone", partial(
                cf.monotonicity_scan, body, index, g["monotone_grid"], rule)))
        zero = cf.WeightIndex.zero(body.dim)
        claims.append(("limit-inf", partial(
            cf.limit_p_infinity, body, zero, rule, g["limit_inf_schedule"])))
        try:
            cf.polar_body(body)
        except ValueError:
            continue
        claims.append(("limit-zero", partial(
            cf.limit_p_zero, body, zero, rule, g["limit_zero_schedule"])))
    return claims


def verification_pass(cf, tr, claims, expected, stats, op0=0):
    """Issue every claim once; a claim fails on "violated" or a record that
    differs from run_verification_suite's."""
    with tr.span("analysis.suite_pass"):
        for i, (claim, thunk) in enumerate(claims):
            tr.op = op0 + i
            rec = None
            t0 = _perf()
            try:
                with tr.span("analysis.claim", claim):
                    rep = thunk()
                dt = _perf() - t0
                rec = rep.to_record()
            except Exception:
                dt = _perf() - t0
                _report(sys.exc_info())
            ok = (rec is not None and rec["verdict"] != "violated"
                  and json.dumps(rec, sort_keys=True) == expected[i])
            stats.add(1, dt, 0 if ok else 1)


def suite_records(cf, bodies, rules, wrong):
    reports = cf.run_verification_suite(bodies, rule2=rules[2], rule3=rules[3])
    recs = [json.dumps(r.to_record(), sort_keys=True) for r in reports]
    if wrong:
        recs = [r.replace('"verdict": "', '"verdict": "x-') for r in recs]
    return recs


class Verify(Workload):
    def __init__(self, cf, seed, tmp, tr, wrong):
        self.cf = cf
        self.wrong = wrong
        self.paths = make_corpus(cf, tr, tmp / "corpus")
        bodies = load_bodies(cf, tr, self.paths)
        self.rules = default_rules(cf, tr)
        self.claims = suite_claims(cf, bodies, self.rules)
        self.rss_ops = 10 * len(self.claims)

    def prepare(self, tracing):
        fresh = load_bodies(self.cf, NULL, self.paths)
        self.expected = suite_records(self.cf, fresh, self.rules, self.wrong)
        if len(self.expected) != len(self.claims):
            raise RuntimeError("suite issued %d claims, benchmark %d"
                               % (len(self.expected), len(self.claims)))

    def unit(self, k, stats, tr):
        # the first pass runs on the bodies loaded during set-up; every
        # later pass reloads, untimed, so its caches start cold
        if k:
            bodies = load_bodies(self.cf, tr, self.paths)
            self.claims = suite_claims(self.cf, bodies, self.rules)
        verification_pass(self.cf, tr, self.claims, self.expected, stats,
                          op0=k * len(self.claims))

    def pair(self, k, stats, tr):
        return timed_pair(lambda t: self.unit(2 * k + t.enabled, stats, t),
                          k, stats, tr)


# ---------------------------------------------------------------------------
# single default-rule evaluations


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def evals_specs(seed):
    """Random bodies added to the corpus: 16 ellipsoids, 11 ellipses and
    11 perturbed disks, so 18 of the 46 bodies (39%) are 3-D.

    Not half: a default-rule call takes 5-10 ms on a 3-D body and under
    1 ms on a 2-D one, so with half the calls 3-D the latency median would
    fall between the two clusters and jump between them from seed to seed.
    """
    rng = np.random.default_rng([int(seed), 46])
    specs = []
    for j in range(16):
        specs.append(("rand_ellipsoid_%02d" % j, {
            "dim": 3, "type": "ellipsoid",
            "semi_axes": rng.uniform(0.6, 2.5, 3).tolist(),
            "rotation": _rotation(rng, 3).tolist()}))
    for j in range(11):
        specs.append(("rand_ellipse_%02d" % j, {
            "dim": 2, "type": "ellipsoid",
            "semi_axes": rng.uniform(0.6, 2.5, 2).tolist(),
            "rotation": _rotation(rng, 2).tolist()}))
    for j in range(11):
        mode = int(rng.integers(3, 6))
        # curvature stays positive below eps = 1/(mode^2 - 1)
        eps = float(rng.uniform(0.2, 0.8)) / (mode * mode - 1)
        specs.append(("rand_perturbed_disk_%02d" % j, {
            "dim": 2, "type": "perturbed_ball", "mode": mode, "epsilon": eps}))
    return specs


class QueryStream:
    """The evals query order: (body position, kind position) per op.

    Fresh queries take the bodies in shuffled passes over the body set and
    the call kinds in shuffled passes over the kinds: each body and each
    kind is drawn equally often, and every stretch of a run has the body
    set's share of 3-D calls, whatever the seed.  Each fresh query is
    issued again within the next EVALS_RECENT fresh queries, so half the
    calls re-issue a recent query.
    """

    def __init__(self, seed, n_bodies, n_kinds):
        self.rng = np.random.default_rng([int(seed), 1729])
        self.n_bodies = n_bodies
        self.n_kinds = n_kinds
        self.queries = []
        self._bodies = []
        self._kinds = []
        self._due = []      # heap of (fresh step it follows, fresh step, query)
        self._fresh = 0

    def get(self, i):
        while len(self.queries) <= i:
            self._step()
        return self.queries[i]

    def _step(self):
        """Issue the next fresh query, then the repeats that fall due."""
        rng = self.rng
        if not self._bodies:
            self._bodies = rng.permutation(self.n_bodies).tolist()
        if not self._kinds:
            self._kinds = rng.permutation(self.n_kinds).tolist()
        q = (self._bodies.pop(), self._kinds.pop())
        self.queries.append(q)
        delay = int(rng.integers(EVALS_RECENT))
        heapq.heappush(self._due, (self._fresh + delay, self._fresh, q))
        while self._due and self._due[0][0] <= self._fresh:
            self.queries.append(heapq.heappop(self._due)[2])
        self._fresh += 1


def evals_indices(cf):
    """Per dimension: the weighted index and the zero index the calls use."""
    return {dim: (cf.default_suite_grids(dim)["indices"][1], cf.WeightIndex.zero(dim))
            for dim in (2, 3)}


def evaluate(cf, indices, body, kind, p, rule=None):
    index, zero = indices[body.dim]
    if kind == "asa":
        return cf.asa(body, p, rule).value
    if kind == "weighted_asa":
        return cf.weighted_asa(body, index, p, rule).value
    if kind == "kl":
        return cf.kl_divergence(body, zero, "PQ", rule)
    if kind == "hellinger":
        return cf.hellinger(body, zero, 0.5, rule)
    return cf.body_volume(body, rule)


class Evals(Workload):
    def __init__(self, cf, seed, tmp, tr, wrong):
        self.cf = cf
        self.wrong = wrong
        self.paths = (make_corpus(cf, tr, tmp / "corpus")
                      + write_specs(tmp / "extra", evals_specs(seed)))
        self.bodies = load_bodies(cf, tr, self.paths)
        self.indices = evals_indices(cf)
        self.stream = QueryStream(seed, len(self.bodies), len(EVALS_KINDS))
        self.first = {}
        self.seen = set()
        self.repeated = 0
        self.rss_ops = 24 * EVALS_BLOCK

    def prepare(self, tracing):
        """Shared-rule values of every query, on separate body objects."""
        cf = self.cf
        fresh = load_bodies(cf, NULL, self.paths)
        rules = default_rules(cf, NULL)
        self.expected = {}
        for b, body in enumerate(fresh):
            for k, (kind, p) in enumerate(EVALS_KINDS):
                v = evaluate(cf, self.indices, body, kind, p, rules[body.dim])
                self.expected[b, k] = math.nextafter(v, math.inf) if self.wrong else v
        self.closed = {}
        names = [path.stem for path in self.paths]
        value, tol = ASA_ELLIPSE_2_1
        if self.wrong:
            value *= 1.0 + 1e-6
        self.closed[names.index("ellipse_2_1"), EVALS_KINDS.index(("asa", 1.0))] = (value, tol)
        # traced blocks run on their own body objects, so the untraced block
        # before them does not warm their caches
        self.traced_bodies = load_bodies(cf, NULL, self.paths) if tracing else None

    def unit(self, k, stats, tr):
        cf = self.cf
        bodies = self.traced_bodies if tr.enabled else self.bodies
        for i in range(k * EVALS_BLOCK, (k + 1) * EVALS_BLOCK):
            b, kind_i = self.stream.get(i)
            self.repeated += (b, kind_i) in self.seen
            self.seen.add((b, kind_i))
            body = bodies[b]
            kind, p = EVALS_KINDS[kind_i]
            tr.op = i
            v = None
            t0 = _perf()
            try:
                with tr.span(EVALS_SPAN[kind], "d%d" % body.dim):
                    v = evaluate(cf, self.indices, body, kind, p)
            except Exception:
                _report(sys.exc_info())
            dt = _perf() - t0
            stats.add(1, dt, 0 if self._passes((b, kind_i), v) else 1)

    def _passes(self, key, v):
        if v is None:
            return False
        first = self.first.setdefault(key, v)
        if v.hex() != first.hex() or v.hex() != self.expected[key].hex():
            return False
        closed = self.closed.get(key)
        return closed is None or abs(v - closed[0]) < closed[1]

    def pair(self, k, stats, tr):
        return timed_pair(lambda t: self.unit(k, stats, t), k, stats, tr)

    def notes(self, stats):
        return [("repeat_share", self.repeated / stats.attempted, "fraction",
                 stats.attempted)]


def make_workload(name, cf, seed, tmp, tr, wrong):
    """Set up a workload; ``rss_ops`` on the result is the op count at which
    its peak memory is read, so versions of different speed are compared
    after the same work."""
    if name in MC_BODIES:
        return MonteCarlo(cf, name, seed, tmp, tr, wrong)
    if name == "verify":
        return Verify(cf, seed, tmp, tr, wrong)
    if name == "evals":
        return Evals(cf, seed, tmp, tr, wrong)
    raise ValueError("unknown workload %r" % name)
