"""Print SHA-256 digests of the Monte Carlo streams, for same-bits checks.

Each digest is over exact float64 bits (float.hex):

* ``means``: the per-N mean deficits of ``interpretation_check`` at fixed
  seeds (schedule 250/500/1000, 12 trials, p = 1 and 0.5) on the disk, the
  2:1 ellipse, the eps = 0.1 (L = 3) and L = 5 perturbed disks, and a
  rotated recentered ellipse; one line per body follows, with that body's
  digest and the sampler's acceptance rate (p = 1, 20 000 points, seed 0);
* ``means3d``: the same per-N means on the 2:1:1 ellipsoid and the ball in
  space (schedule 8/12/16, 12 trials, p = 1), with one line per body as
  above, and one more for the ellipsoid on a shuffled copy of the default
  rule, which must equal the ellipsoid's line;
* ``criterion10``: the determinism payload of acceptance criterion 10;
* ``scalars``: the default-rule ``asa`` and ``weighted_asa`` (p = 1),
  ``kl_divergence`` (PQ, and QP normalized), ``hellinger`` and ``renyi``
  (alpha = 1/2), ``body_volume`` and ``polar_volume`` values of fresh
  copies of the 2-D and 3-D bodies above, each from a first call and a
  repeat, so cached values are compared with computed ones.
* ``grids``: the default-rule curvature grid's ``h`` and ``s`` of fresh
  copies of the same 2-D and 3-D bodies.
* ``loaded``: the default-rule grid's ``h`` and ``s`` and ``asa`` (p = 1)
  of the ``corpus-gen`` bodies read back through ``load_body``, whose
  validation may already hold the grid.
* ``files``: the same for body files that the corpus lacks: a perturbed
  ball in space, a translated mode-5 perturbed disk, and an ellipsoid in
  space given by ``semi_axes`` and ``rotation``.
* ``sums``: the correctly rounded sum (``quadrature._exact_sum``) of
  seeded arrays of 1 to 8192 values: normal draws at many scales, values
  over the whole exponent range, cancelling pairs, and near-tie sums
  1 + 2**-53 + k * 2**-110 and 2 - 2**-53 + k * 2**-110 hidden among
  cancelling pairs, at several scales and both signs.
* ``omega``: ``weighted_asa`` of the ``corpus-gen`` bodies over the
  verification suite's indices, with the k-values of its k-interpolation
  claims, times every p of its grids and schedules, and p = 0, -0.0 and
  inf.
* ``verify``: the records of ``curvfun verify all --json`` on the
  ``corpus-gen`` corpus (all but the closing summary, which names the
  corpus directory), then single-claim records on the same bodies: a
  monotone grid, limit schedules and refused Hoelder exponents that
  differ from the battery's.
* ``samples``: the ``sample_boundary`` points and ``SampleStats`` (p = 1,
  fixed seeds, 2000 points in the plane and 500 in space) on the 2-D and
  3-D bodies above, then ``expected_deficit`` means on the disk at N = 2,
  3 and 4, where hulls turn from degenerate to proper.
* ``cli``: a fixed battery of ``curvfun`` command lines run through
  ``cli.run`` on the ``corpus-gen`` corpus: each subcommand in each output
  format, every claim and generator, and malformed input of every kind.
  Each run contributes its argv, exit code, stdout and stderr (and the
  ``--out`` file, if any), with the temporary directory's path replaced by
  ``<tmp>``.  An unwritable ``--out`` path, ``corpus-gen`` on an existing
  file and the dim-3 Monte Carlo refusal are left out: their exits and
  messages are pinned by the tests instead.
* ``transforms``: the default-rule grid's ``h`` and ``s``, ``asa`` (p = 1),
  ``body_volume`` and the boundary points at the rule's nodes of the 2:1
  ellipse rotated by 0.4, the eps = 0.1 perturbed disk scaled by 1.3, the
  2:1:1 ellipsoid under a rotation in space and the ``from_support`` body
  of the 2:1 ellipse's support function; then ``expected_deficit`` means
  (p = 1, N = 250 and 500, 8 trials, fixed seeds) on the two planar
  transforms.

Run it on two checkouts and compare the output:

    PYTHONPATH=src python tools/stream_digest.py
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import curvfun as cf
from curvfun import cli
from curvfun.quadrature import _exact_sum

ROOT = Path(__file__).resolve().parent.parent


def _bodies():
    c, s = math.cos(0.9), math.sin(0.9)
    ellipse = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 0.7], [[c, -s], [s, c]]))
    return [
        cf.make_ball(2),
        cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0])),
        cf.make_perturbed_ball(2, mode=3, eps=0.1),
        cf.make_perturbed_ball(2, mode=5, eps=0.02),
        cf.recenter(ellipse, [0.3, -0.1]),
    ]


def _spatial():
    return [cf.make_ellipsoid(3, cf.ellipsoid_matrix([2.0, 1.0, 1.0])), cf.make_ball(3)]


def _shuffled(rule):
    perm = np.random.default_rng(0).permutation(len(rule))
    return cf.SphereRule(rule.dim, rule.nodes[perm], rule.weights[perm], rule.name)


def _means(bodies, ps, schedule, rule=None):
    out = {}
    for seed, body in enumerate(bodies):
        for p in ps:
            mc = cf.interpretation_check(body, p=p, n_schedule=schedule, trials=12,
                                         seed=seed, rule=rule, allow_dim3=body.dim == 3)
            out["%s|%g" % (body.label, p)] = [e.mean.hex() for e in mc.estimates]
    return out


def _scalars(bodies):
    out = {}
    for body in bodies:
        zero = cf.WeightIndex.zero(body.dim)
        index = cf.default_suite_grids(body.dim)["indices"][1]
        calls = {
            "asa": lambda: cf.asa(body, 1.0).value,
            "weighted_asa": lambda: cf.weighted_asa(body, index, 1.0).value,
            "kl": lambda: cf.kl_divergence(body, zero, "PQ"),
            "kl_qp_normalized": lambda: cf.kl_divergence(body, zero, "QP", normalized=True),
            "hellinger": lambda: cf.hellinger(body, zero, 0.5),
            "renyi": lambda: cf.renyi(body, zero, 0.5),
            "body_volume": lambda: cf.body_volume(body),
            "polar_volume": lambda: cf.polar_volume(body),
        }
        for name, call in calls.items():
            out["%s|%s" % (body.label, name)] = [call().hex() for _ in range(2)]
    return out


def _grids(bodies):
    out = {}
    for body in bodies:
        grid = cf.curvature_grid(body)
        out[body.label] = [[v.hex() for v in grid.h.tolist()],
                           [v.hex() for v in grid.s.ravel().tolist()]]
    return out


_FILES = {
    "pball3": {"dim": 3, "type": "perturbed_ball", "mode": 3, "epsilon": 0.05},
    "pdisk5_shifted": {"dim": 2, "type": "perturbed_ball", "mode": 5, "epsilon": 0.02,
                       "translate": [0.1, -0.2]},
    "ellipsoid_rotated": {"dim": 3, "type": "ellipsoid", "semi_axes": [3.0, 1.0, 0.5],
                          "rotation": [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]},
}


def _record(body):
    grid = cf.curvature_grid(body)
    return [[v.hex() for v in grid.h.tolist()],
            [v.hex() for v in grid.s.ravel().tolist()],
            cf.asa(body, 1.0).value.hex()]


def _loaded():
    with tempfile.TemporaryDirectory() as tmp:
        paths = map(Path, cli.corpus_gen(tmp))
        return {path.stem: _record(cf.load_body(path)) for path in paths}


def _files():
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for name, spec in _FILES.items():
            path = Path(tmp) / (name + ".json")
            path.write_text(json.dumps(spec))
            out[name] = _record(cf.load_body(path))
        return out


def _sum_inputs():
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 7, 64, 511, 512, 4096, 8192):
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
        yield np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1000, n))
        half = rng.uniform(0.0, 1.0, n // 2)
        yield np.concatenate([half, -half[::-1], rng.uniform(0.0, 1e-20, n % 2)])
        for base in ([1.0, 2.0**-53], [2.0, -2.0**-53]):
            for k in (-3, -1, 0, 1, 3):
                pad = rng.uniform(-0.5, 0.5, max(n - 3, 0) // 2)
                a = np.concatenate([base, [k * 2.0**-110], pad, -pad])
                a = np.ldexp(a[rng.permutation(len(a))], int(rng.integers(-960, 1000)))
                yield a
                yield -a


def _sums():
    return [_exact_sum(a).hex() for a in _sum_inputs()]


def _omega():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        bodies = [cf.load_body(path) for path in cli.corpus_gen(tmp)]
    for body in bodies:
        grids = cf.default_suite_grids(body.dim)
        ks = sorted({k for triple in grids["kinterp_triples"] for k in triple})
        ps = sorted(set(grids["monotone_grid"] + grids["limit_inf_schedule"]
                        + grids["limit_zero_schedule"] + grids["kinterp_p"]))
        for index in grids["indices"]:
            for k in [index.k] + ks:
                for p in ps + [0.0, -0.0, math.inf]:
                    value = cf.weighted_asa(body, cf.WeightIndex(index.m, k, index.i), p).value
                    out["%s|%d|%r|%r|%r" % (body.label, index.m, index.i, k, p)] = value.hex()
    return out


# single claims off the battery's grids: (claim, call on body and zero index)
_CLAIMS = [
    ("monotone", lambda body, z: cf.monotonicity_scan(body, z, (0.3, 0.7, 1.5, 3.0, 6.0, 12.0))),
    ("monotone-neg", lambda body, z: cf.monotonicity_scan(body, z, (-1.5, -1.0, -0.5))),
    ("limit-inf", lambda body, z: cf.limit_p_infinity(body, z, None, (20.0, 50.0, 200.0, 500.0))),
    ("limit-zero", lambda body, z: cf.limit_p_zero(body, z, None, (0.2, 0.05, 0.02))),
    ("holder3-reversed", lambda body, z: cf.verify_holder_three(body, z, 4.0, 0.0, 1.0)),
    ("holder3-r-eq-s", lambda body, z: cf.verify_holder_three(body, z, 1.0, 1.0, 4.0)),
    ("holdervol-reversed", lambda body, z: cf.verify_holder_volume(body, z, 2.0, 1.0)),
    ("holdervol-r0", lambda body, z: cf.verify_holder_volume(body, z, 0.0, 2.0)),
]


def _verify():
    with tempfile.TemporaryDirectory() as tmp:
        paths = cli.corpus_gen(tmp)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.run(["verify", "all", "--corpus", tmp, "--json"])
        bodies = [cf.load_body(path) for path in paths]
    out = {"all": text.getvalue().splitlines()[:-1]}
    for body in bodies:
        zero = cf.WeightIndex.zero(body.dim)
        for name, call in _CLAIMS:
            if name == "limit-zero" and body._polar is None:
                continue
            out["%s|%s" % (body.label, name)] = call(body, zero).to_record()
    return out


def _samples(bodies):
    out = {}
    for seed, body in enumerate(bodies):
        density = cf.boundary_density(body, p=1.0)
        points, stats = cf.sample_boundary(density, 2000 if body.dim == 2 else 500,
                                           seed=seed, return_stats=True)
        out[body.label] = [[v.hex() for v in points.ravel().tolist()],
                           [stats.accepted, stats.proposals, stats.acceptance_rate.hex()]]
    disk = cf.boundary_density(bodies[0], p=1.0)
    for n in (2, 3, 4):
        out["deficit|%d" % n] = cf.expected_deficit(disk, n, trials=16, seed=n).mean.hex()
    return out


def _transformed():
    c, s = math.cos(0.4), math.sin(0.4)
    ca, sa, cb, sb = math.cos(0.7), math.sin(0.7), math.cos(1.1), math.sin(1.1)
    spin = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    ellipse = cf.make_ellipsoid(2, cf.ellipsoid_matrix([2.0, 1.0]))
    return [
        cf.transform(ellipse, [[c, -s], [s, c]]),
        cf.transform(cf.make_perturbed_ball(2, mode=3, eps=0.1), 1.3),
        cf.transform(_spatial()[0], spin @ tilt),
        cf.from_support(ellipse.support, 2),
    ]


def _transforms():
    bodies = _transformed()
    out = {}
    for body in bodies:
        points = body.gradient(cf.default_rule(body.dim).nodes)
        out[body.label] = _record(body) + [cf.body_volume(body).hex(),
                                           [v.hex() for v in points.ravel().tolist()]]
    for seed, body in enumerate(bodies[:2]):
        density = cf.boundary_density(body, p=1.0)
        for n in (250, 500):
            est = cf.expected_deficit(density, n, trials=8, seed=(seed, n))
            out["%s|%d" % (body.label, n)] = est.mean.hex()
    return out


_FMTS = ("--json", "--csv", "--pretty")
_MC = ["--p", "1", "--N", "20,40,80", "--trials", "6", "--seed", "1"]


def _cli_battery(tmp):
    """The battery's argv lists, with "{c}" the corpus and "{t}" the temporary directory."""
    names = [p.name for p in sorted(Path(tmp, "corpus").glob("*.json"))]

    def body(name):
        return ["--body", "{c}/" + name]

    runs = []
    for name in names:
        for fmt in _FMTS:
            runs.append(["eval", "--p", "1", fmt] + body(name))
            runs.append(["sweep", "--p-grid", "0.5:4:3", fmt] + body(name))
            runs.append(["divergence", "--gen", "kl", fmt] + body(name))
        runs.append(["eval", "--p", "inf"] + body(name))
        for claim in ("holder3", "holdervol", "kinterp", "monotone", "petty",
                      "limit-inf", "limit-zero"):
            runs.append(["verify", claim] + body(name))
        if name.startswith("ball3") or name.startswith("ellipsoid"):
            runs.append(["mc-polytope", "--dim-3-ok", "--N", "8,12,16", "--trials", "3",
                         "--seed", "2", "--p", "1"] + body(name))
        else:
            for fmt in _FMTS:
                runs.append(["mc-polytope", fmt] + _MC + body(name))
    ellipse, disk = body("ellipse_2_1.json"), body("ball2.json")
    for gen in ("kl-rev", "hellinger:0.5", "renyi:0.5", "power:2", "sqrt"):
        runs.append(["divergence", "--gen", gen] + ellipse)
    for gen in ("kl", "kl-rev"):
        runs.append(["divergence", "--gen", gen, "--normalized"]
                    + body("perturbed_disk_eps005.json"))
    for claim in ("holder3", "monotone", "limit-zero"):
        for fmt in _FMTS[1:]:
            runs.append(["verify", claim, fmt] + ellipse)
    # a flag the claim does not read is ignored, parsed or not
    for flags in (["petty", "--p-grid", "garbage"], ["holder3", "--p-schedule", "x"],
                  ["petty", "--r", "3"], ["holdervol", "--p", "2"],
                  ["limit-inf", "--p-grid", "1,2"], ["monotone", "--p-schedule", "1,a"]):
        runs.append(["verify"] + flags + ellipse)
    runs += [
        ["eval", "--p", "2", "--m", "2", "--k", "1.5", "--i", "2"] + disk,
        ["eval", "--p", "1", "--json", "--out", "{t}/out.json"] + disk,
        ["eval", "--p", "0.5", "--m", "2", "--i", "0,1", "--rule", "16x32"]
        + body("ellipsoid_2_1_1.json"),
        ["eval", "--p=-0.5", "--rule", "256", "--csv"] + ellipse,
        ["sweep", "--p-grid", "0.25:16:7:log"] + ellipse,
        ["sweep", "--p-grid", "1,2,3", "--csv"] + ellipse,
        ["verify", "holder3", "--r", "4", "--s", "0", "--t", "1"] + disk,
        ["verify", "kinterp", "--r", "0", "--s", "1", "--t", "2"] + disk,
        ["verify", "monotone", "--p-grid", "1,1e5"] + body("perturbed_disk_eps01.json"),
        ["verify", "limit-zero", "--p-schedule", "0.2,0.05,0.02"] + ellipse,
        ["verify", "all", "--corpus", "{c}"],
        ["verify", "all", "--corpus", "{c}", "--csv", "--rule2", "128", "--rule3", "16x32"],
        ["verify", "all", "--corpus", "{c}", "--pretty", "--rule2", "128",
         "--rule3", "16x32"],
        ["corpus-gen", "{t}/again"],
        ["--version"],
        # malformed input
        ["eval", "--p", "-2"] + disk,
        ["eval", "--p", "-3"] + body("ball3.json"),
        ["eval", "--p", "1", "--m", "2", "--i", "1"] + disk,
        ["eval", "--p", "1", "--k", "inf"] + disk,
        ["eval", "--p", "1", "--rule", "abc"] + disk,
        ["eval", "--p", "-x"] + disk,
        ["eval", "--p", "1", "--body", "{t}/nope.json"],
        ["eval"] + disk,
        ["frobnicate"],
        ["sweep", "--p-grid", "1,-2"] + disk,
        ["sweep", "--p-grid", "4:1:0"] + disk,
        ["divergence", "--gen", "what"] + disk,
        ["divergence", "--gen", "sqrt", "--normalized"] + disk,
        ["divergence", "--gen", "hellinger:nan"] + disk,
        ["divergence", "--gen", "renyi:inf"] + disk,
        ["verify", "holder3"],
        ["verify", "all"],
        ["verify", "all", "--corpus", "{t}/empty"],
        ["verify", "all", "--corpus", "{c}", "--rule2", "abc"],
        ["verify", "all", "--corpus", "{c}", "--rule3", "8x8"],
        ["mc-polytope", "--p", "1", "--N", "40,80", "--trials", "4"] + disk,
        ["mc-polytope", "--p", "1", "--N", "40,40,80", "--trials", "4", "--seed", "1"] + disk,
    ]
    for flags in (
            ["eval", "--p", "nan"], ["eval", "--p=-inf"], ["eval", "--p", "-Infinity"],
            ["eval", "--p", "abc"], ["mc-polytope", "--p", "nan", "--N", "40,80,160",
                                     "--trials", "4", "--seed", "1"],
            ["verify", "monotone", "--p-grid", "1,2,inf"],
            ["verify", "limit-inf", "--p-schedule", "10,30,inf"],
            ["verify", "limit-zero", "--p-schedule", "0.3,0.1,0"],
            ["verify", "monotone", "--p-grid", "1,1e17"],
            ["sweep", "--p-grid", "1:2"], ["sweep", "--p-grid", "1:2:x"],
            ["sweep", "--p-grid", "0:4:5:log"], ["sweep", "--p-grid", "1,a"],
            ["divergence", "--gen", "kl:1"], ["divergence", "--gen", "hellinger"],
            ["divergence", "--gen", "hellinger:abc"],
            ["verify", "limit-inf", "--p-schedule", "1,a"],
            ["eval", "--p", "1", "--i", "1,x"],
            ["mc-polytope", "--p", "1", "--N", "10,x", "--trials", "4", "--seed", "1"]):
        runs.append(flags + disk)
    bad = {"not-an-object": [2, "ball"], "dim-4": {"dim": 4, "type": "ball"},
           "no-type": {"dim": 2}, "unknown-key": {"dim": 2, "type": "ball", "size": 1},
           "radius-nan": {"dim": 2, "type": "ball", "radius": math.nan},
           "no-epsilon": {"dim": 2, "type": "perturbed_ball", "mode": 3},
           "asymmetric": {"dim": 2, "type": "ellipsoid", "matrix": [[2, 1], [0, 2]]}}
    for name, spec in bad.items():
        Path(tmp, name + ".json").write_text(json.dumps(spec))
        runs.append(["eval", "--p", "1", "--body", "{t}/%s.json" % name])
    Path(tmp, "malformed.json").write_text("{")
    runs.append(["eval", "--p", "1", "--body", "{t}/malformed.json"])
    return [[a.format(c=Path(tmp, "corpus"), t=tmp) for a in argv] for argv in runs]


def _cli():
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cli.corpus_gen(Path(tmp, "corpus"))
        Path(tmp, "empty").mkdir()
        for argv in _cli_battery(tmp):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
            texts = [stdout.getvalue(), stderr.getvalue()]
            if "--out" in argv:
                texts.append(Path(argv[argv.index("--out") + 1]).read_text())
            out.append(_digest([[a.replace(tmp, "<tmp>") for a in argv], code]
                               + [t.replace(tmp, "<tmp>") for t in texts]))
    return out


def _digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _acceptance(body, rule=None):
    density = cf.boundary_density(body, p=1.0, rule=rule)
    _, stats = cf.sample_boundary(density, 20000, seed=0, return_stats=True)
    return stats.acceptance_rate


def criterion10_payload():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import _determinism_payload

    return _determinism_payload()


def _print_body(name, body, means, rule=None):
    own = {k: v for k, v in means.items() if k.split("|")[0] == body.label}
    print("  %-30s %s  acceptance %.4f" % (name, _digest(own), _acceptance(body, rule)))


def _print_means(name, bodies, means):
    print("%-12s %s" % (name, _digest(means)))
    for body in bodies:
        _print_body(body.label, body, means)


def main():
    bodies, spatial = _bodies(), _spatial()
    _print_means("means", bodies, _means(bodies, (1.0, 0.5), (250, 500, 1000)))
    _print_means("means3d", spatial, _means(spatial, (1.0,), (8, 12, 16)))
    ellipsoid, rule = _spatial()[0], _shuffled(cf.default_rule(3))
    _print_body(ellipsoid.label + " shuffled", ellipsoid,
                _means([ellipsoid], (1.0,), (8, 12, 16), rule), rule)
    print("%-12s %s" % ("criterion10", _digest(criterion10_payload())))
    print("%-12s %s" % ("scalars", _digest(_scalars(_bodies() + _spatial()))))
    print("%-12s %s" % ("grids", _digest(_grids(_bodies() + _spatial()))))
    print("%-12s %s" % ("loaded", _digest(_loaded())))
    print("%-12s %s" % ("files", _digest(_files())))
    print("%-12s %s" % ("sums", _digest(_sums())))
    print("%-12s %s" % ("omega", _digest(_omega())))
    print("%-12s %s" % ("verify", _digest(_verify())))
    print("%-12s %s" % ("samples", _digest(_samples(_bodies() + _spatial()))))
    print("%-12s %s" % ("cli", _digest(_cli())))
    print("%-12s %s" % ("transforms", _digest(_transforms())))


if __name__ == "__main__":
    main()
