"""Per-layer metrics of the traced run.

Every traced run ends with ``layer_probe``, a fixed amount of work that
calls into each layer, so every per-layer metric exists whatever the
workload; the workload's own traced units add samples to the metrics of
the layers it uses.  ``layer_metrics`` turns the recorded spans and
counters into the metrics listed in ``PER_LAYER``.
"""

import math
import statistics

import numpy as np

from workloads import (MC_SCHEDULE, NULL, default_rules, evals_indices,
                       evaluate, load_bodies, make_corpus, suite_claims,
                       suite_records, traced_interpretation,
                       verification_pass, write_specs)

LAYERS = ("quadrature", "geometry", "functionals", "divergence", "analysis", "randpoly")
CLAIMS = ("petty", "holder3", "holdervol", "kinterp", "monotone", "limit-inf", "limit-zero")
PROBE_DIRS = 4096
PROBE_SPECS = [
    ("probe_ellipse", {"dim": 2, "type": "ellipsoid", "semi_axes": [2.0, 1.0]}),
    ("probe_ellipsoid", {"dim": 3, "type": "ellipsoid", "semi_axes": [2.0, 1.0, 1.0]}),
]

# (name, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    [("quadrature.default_rule_ms.d2", "ms"), ("quadrature.default_rule_ms.d3", "ms"),
     ("quadrature.integrate_us.n512", "us"), ("quadrature.integrate_us.n8192", "us"),
     ("geometry.load_body_ms", "ms"),
     ("geometry.curvature_grid_cold_ms.d2", "ms"), ("geometry.curvature_grid_cold_ms.d3", "ms"),
     ("geometry.curvature_arrays_ns_per_dir.d2", "ns"),
     ("geometry.curvature_arrays_ns_per_dir.d3", "ns"),
     ("functionals.weighted_asa_cold_ms", "ms"), ("functionals.weighted_asa_repeat_us", "us"),
     ("functionals.weighted_asa_default_rule_ms.d2", "ms"),
     ("functionals.weighted_asa_default_rule_ms.d3", "ms"),
     ("functionals.repeat_speedup", "ratio"),
     ("divergence.kl_ms", "ms"), ("divergence.hellinger_ms", "ms")]
    + [("analysis.claim_ms." + c, "ms") for c in CLAIMS]
    + [("analysis.suite_pass_s", "s"),
       ("randpoly.boundary_density_ms.d2", "ms"), ("randpoly.boundary_density_ms.d3", "ms"),
       ("randpoly.sample_ms.d2", "ms"), ("randpoly.sample_ms.d3", "ms")]
    + [("randpoly.sample_ms.d%d.n%d" % (d, n), "ms") for d in (2, 3) for n in MC_SCHEDULE[d]]
    + [("randpoly.proposals_per_s", "1/s"), ("randpoly.acceptance", "fraction"),
       ("randpoly.useful_frac", "fraction")]
    + [("randpoly.hull_ms.d2", "ms"), ("randpoly.hull_ms.d3", "ms"),
       ("randpoly.hull_degenerate", "count")]
    + [(layer + ".self_frac", "fraction") for layer in LAYERS]
    + [("trace.overhead_frac", "fraction"), ("trace.overhead_s", "s")]
)


def _unit_dirs(rng, dim, count):
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1)[:, None]


def layer_probe(cf, tr, tmp, stats):
    """Fixed traced work touching every layer; checked ops count in stats."""
    tr.op = "probe"
    for _ in range(10):
        rules = default_rules(cf, tr)
    for dim, reps in ((2, 200), (3, 50)):
        rule = rules[dim]
        values = np.linspace(1.0, 2.0, len(rule))
        for _ in range(reps):
            with tr.span("quadrature.integrate", "n%d" % len(rule)):
                cf.integrate(rule, values)

    paths = write_specs(tmp / "probe", PROBE_SPECS)
    rng = np.random.default_rng(0)
    indices = evals_indices(cf)
    for path in paths:
        for _ in range(5):
            body, = load_bodies(cf, tr, [path])
            d = "d%d" % body.dim
            with tr.span("geometry.curvature_grid", "cold." + d):
                cf.curvature_grid(body, rules[body.dim])
            # default-rule functional: first call on another fresh body, then
            # the identical call again; their ratio shows whether repeats hit
            # a cache
            body, = load_bodies(cf, tr, [path])
            index = indices[body.dim][0]
            with tr.span("functionals.weighted_asa", d + ".first"):
                cf.weighted_asa(body, index, 1.0)
            with tr.span("functionals.weighted_asa", d + ".repeat"):
                cf.weighted_asa(body, index, 1.0)
            # the density build that set-up pays, on a body no call has used
            body, = load_bodies(cf, tr, [path])
            with tr.span("randpoly.boundary_density", "cold." + d):
                cf.boundary_density(body, p=1.0, rule=rules[body.dim])
        U = _unit_dirs(rng, body.dim, PROBE_DIRS)
        for _ in range(10):
            with tr.span("geometry.curvature_arrays", d):
                cf.curvature_arrays(body, U)
        # divergences on a warm grid with the shared rule, as the limit claims use them
        zero = indices[body.dim][1]
        for _ in range(10):
            with tr.span("divergence.kl_divergence", "shared"):
                cf.kl_divergence(body, zero, "PQ", rules[body.dim])
            with tr.span("divergence.hellinger", "shared"):
                cf.hellinger(body, zero, 0.5, rules[body.dim])
        for p in (0.5, 2.0, math.inf):
            with tr.span("functionals.weighted_asa", d):
                evaluate(cf, indices, body, "weighted_asa", p)
        traced_interpretation(cf, tr, body, MC_SCHEDULE[body.dim], 2, 1, rules[body.dim])

    corpus = make_corpus(cf, tr, tmp / "probe_corpus")
    expected = suite_records(cf, load_bodies(cf, NULL, corpus), rules, False)
    claims = suite_claims(cf, load_bodies(cf, tr, corpus), rules)
    verification_pass(cf, tr, claims, expected, stats)


def _median(values, scale=1.0):
    return statistics.median(values) * scale, len(values)


def layer_metrics(tr, pairs):
    """Per-layer metrics from the recorded spans and counters, as rows
    (name, value, unit, samples); pairs are (untraced, traced) seconds of
    the same units of work."""
    dur = tr.durations
    c = tr.counters
    m = {}
    for d in ("d2", "d3"):
        m["quadrature.default_rule_ms." + d] = _median(dur("quadrature.default_rule", d), 1e3)
        m["geometry.curvature_grid_cold_ms." + d] = _median(
            dur("geometry.curvature_grid", "cold." + d), 1e3)
        m["geometry.curvature_arrays_ns_per_dir." + d] = _median(
            dur("geometry.curvature_arrays", d), 1e9 / PROBE_DIRS)
        m["functionals.weighted_asa_default_rule_ms." + d] = _median(
            dur("functionals.asa", d) + dur("functionals.weighted_asa", d)
            + dur("functionals.weighted_asa", d + ".first")
            + dur("functionals.weighted_asa", d + ".repeat"), 1e3)
        m["randpoly.boundary_density_ms." + d] = _median(
            dur("randpoly.boundary_density", "cold." + d), 1e3)
        sampled = dur("randpoly.sample_boundary", prefix=d + ".")
        m["randpoly.sample_ms." + d] = _median(sampled, 1e3)
        for n in MC_SCHEDULE[int(d[1])]:
            tag = "%s.n%d" % (d, n)
            m["randpoly.sample_ms." + tag] = _median(dur("randpoly.sample_boundary", tag), 1e3)
        m["randpoly.hull_ms." + d] = _median(dur("randpoly.hull_volume", d), 1e3)
    for n in (512, 8192):
        m["quadrature.integrate_us.n%d" % n] = _median(dur("quadrature.integrate", "n%d" % n), 1e6)
    loads = dur("geometry.load_body")
    m["geometry.load_body_ms"] = (math.fsum(loads) / len(loads) * 1e3, len(loads))
    first = dur("functionals.weighted_asa", "d3.first")
    repeat = dur("functionals.weighted_asa", "d3.repeat")
    m["functionals.weighted_asa_cold_ms"] = _median(first, 1e3)
    m["functionals.weighted_asa_repeat_us"] = _median(repeat, 1e6)
    m["functionals.repeat_speedup"] = (statistics.median(first) / statistics.median(repeat),
                                       len(first))
    m["divergence.kl_ms"] = _median(dur("divergence.kl_divergence", "shared"), 1e3)
    m["divergence.hellinger_ms"] = _median(dur("divergence.hellinger", "shared"), 1e3)
    for claim in CLAIMS:
        m["analysis.claim_ms." + claim] = _median(dur("analysis.claim", claim), 1e3)
    m["analysis.suite_pass_s"] = _median(dur("analysis.suite_pass"))
    sampled = dur("randpoly.sample_boundary")
    proposals = c["randpoly.proposals"]
    m["randpoly.proposals_per_s"] = (proposals / math.fsum(sampled), len(sampled))
    m["randpoly.acceptance"] = (c["randpoly.accepted"] / proposals, proposals)
    m["randpoly.useful_frac"] = (c["randpoly.requested"] / proposals, proposals)
    m["randpoly.hull_degenerate"] = (c["randpoly.hull_degenerate"],
                                     len(dur("randpoly.hull_volume")))
    self_time, wall = tr.self_times()
    for layer in LAYERS:
        m[layer + ".self_frac"] = (self_time.get(layer, 0.0) / wall, len(tr.spans))
    untraced = math.fsum(u for u, _ in pairs)
    traced = math.fsum(t for _, t in pairs)
    m["trace.overhead_s"] = (traced - untraced, len(pairs))
    m["trace.overhead_frac"] = ((traced - untraced) / untraced, len(pairs))
    return [(name, m[name][0], unit, m[name][1]) for name, unit in PER_LAYER]
