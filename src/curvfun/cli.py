"""Command-line surface over the library.

Subcommands: eval, sweep, divergence, verify (single claims or the full
suite on a body corpus), mc-polytope, corpus-gen.  Machine output is JSON
lines by default, CSV behind --csv, human-readable text behind --pretty.
Exit codes: 0 on success (and no violated verdicts), 1 if any verdict is
"violated", 2 on usage errors.  Every command is deterministic for fixed
flags and seed.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import analysis, divergence, functionals, geometry, quadrature, randpoly
from ._version import __version__

__all__ = ["run", "main", "corpus_gen"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # single-line diagnostics on stderr, exit code 2, no usage dump
    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(records, args, columns=None):
    """Write records (list of dicts) in the selected format."""
    fmt = getattr(args, "format", "json")
    buf = io.StringIO()
    if fmt == "csv":
        cols = columns or sorted({k for rec in records for k in rec})
        writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for rec in records:
            row = {}
            for c in cols:
                v = _jsonable(rec.get(c, ""))
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True)
                row[c] = v
            writer.writerow(row)
    elif fmt == "pretty":
        for rec in records:
            parts = []
            for k, v in rec.items():
                v = _jsonable(v)
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True)
                parts.append("%s=%s" % (k, v))
            buf.write("  ".join(parts) + "\n")
    else:
        for rec in records:
            buf.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
    text = buf.getvalue()
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_format_flags(p, default="json"):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", dest="format", action="store_const", const="json",
                   help="JSON lines output (default)")
    g.add_argument("--csv", dest="format", action="store_const", const="csv",
                   help="CSV output")
    g.add_argument("--pretty", dest="format", action="store_const", const="pretty",
                   help="human-readable output")
    p.set_defaults(format=default)
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def _add_body_flag(p):
    p.add_argument("--body", required=True, metavar="F",
                   help="body specification file (JSON)")


def _add_index_flags(p):
    p.add_argument("--m", type=int, default=0, help="weight order m (default 0)")
    p.add_argument("--k", type=float, default=0.0, help="support exponent slot k (default 0)")
    p.add_argument("--i", default="", metavar="I1,I2",
                   help="comma-separated multiplicities i_1[,i_2]; empty means all zero")


def _add_rule_flag(p):
    p.add_argument("--rule", metavar="R",
                   help='quadrature spec: "512" for dim 2, "64x128" for dim 3')


def _load_body(path):
    try:
        return geometry.load_body(path)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError("cannot load body %s: %s" % (path, exc))


def _parse_i(spec, dim):
    text = (spec or "").strip()
    if not text:
        return (0,) * (dim - 1)
    try:
        vals = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError("--i expects comma-separated integers, got %r" % spec)
    return vals


def _make_index(args, dim):
    try:
        return functionals.WeightIndex(args.m, args.k, _parse_i(args.i, dim))
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _make_rule(args, dim):
    spec = getattr(args, "rule", None)
    if spec is None:
        return quadrature.default_rule(dim)
    try:
        return quadrature.parse_rule_spec(spec, dim)
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_p(text):
    try:
        p = float(text)
    except ValueError:
        raise UsageError("--p expects a number or inf, got %r" % text)
    if math.isnan(p) or p == -math.inf:
        raise UsageError("--p expects a real number or +inf")
    return p


def _parse_p_grid(spec):
    """a:b:steps[:log] or a plain comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise UsageError("--p-grid expects a:b:steps[:log], got %r" % spec)
        try:
            a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError("--p-grid expects numeric bounds and integer steps")
        if steps < 2:
            raise UsageError("--p-grid needs at least 2 steps")
        if len(parts) == 4:
            if a <= 0 or b <= 0:
                raise UsageError("log grids need positive endpoints")
            return [float(v) for v in np.geomspace(a, b, steps)]
        return [float(v) for v in np.linspace(a, b, steps)]
    try:
        return [float(v) for v in spec.split(",")]
    except ValueError:
        raise UsageError("--p-grid expects a:b:steps[:log] or a comma list")


def _parse_float_list(spec, flag):
    try:
        return [float(v) for v in spec.split(",")]
    except ValueError:
        raise UsageError("%s expects comma-separated numbers, got %r" % (flag, spec))


def _parse_int_list(spec, flag):
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise UsageError("%s expects comma-separated integers, got %r" % (flag, spec))


# ---------------------------------------------------------------------------
# subcommands


def _eval_record(body, index, p, rule):
    fv = functionals.weighted_asa(body, index, p, rule)
    return {
        "body": body.label,
        "dim": body.dim,
        "m": index.m,
        "k": index.k,
        "i": list(index.i),
        "p": fv.p,
        "rule": rule.name,
        "value": fv.value,
    }


_EVAL_COLS = ["body", "dim", "m", "k", "i", "p", "rule", "value"]


def _cmd_eval(args):
    body = _load_body(args.body)
    index = _make_index(args, body.dim)
    rule = _make_rule(args, body.dim)
    p = _parse_p(args.p)
    try:
        rec = _eval_record(body, index, p, rule)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit([rec], args, columns=_EVAL_COLS)
    return 0


def _cmd_sweep(args):
    body = _load_body(args.body)
    index = _make_index(args, body.dim)
    rule = _make_rule(args, body.dim)
    grid = _parse_p_grid(args.p_grid)
    records = []
    for p in grid:
        try:
            records.append(_eval_record(body, index, p, rule))
        except ValueError as exc:
            raise UsageError("p=%g: %s" % (p, exc))
    _emit(records, args, columns=_EVAL_COLS)
    return 0


def _parse_gen(spec):
    name, _, arg = spec.partition(":")
    needs_arg = name in ("hellinger", "renyi", "power")
    if needs_arg:
        if not arg:
            raise UsageError("--gen %s needs a parameter, e.g. %s:0.5" % (name, name))
        try:
            alpha = float(arg)
        except ValueError:
            raise UsageError("--gen %s parameter must be a number, got %r" % (name, arg))
        return name, alpha
    if arg:
        raise UsageError("--gen %s takes no parameter" % name)
    if name not in ("kl", "kl-rev", "sqrt"):
        raise UsageError("unknown generator %r" % spec)
    return name, None


def _cmd_divergence(args):
    body = _load_body(args.body)
    index = _make_index(args, body.dim)
    rule = _make_rule(args, body.dim)
    name, alpha = _parse_gen(args.gen)
    if args.normalized and name not in ("kl", "kl-rev"):
        raise UsageError("--normalized only applies to the kl and kl-rev generators")
    try:
        if name == "kl":
            value = divergence.kl_divergence(body, index, "PQ", rule,
                                             normalized=args.normalized)
        elif name == "kl-rev":
            value = divergence.kl_divergence(body, index, "QP", rule,
                                             normalized=args.normalized)
        elif name == "hellinger":
            value = divergence.hellinger(body, index, alpha, rule)
        elif name == "renyi":
            value = divergence.renyi(body, index, alpha, rule)
        elif name == "power":
            value = divergence.f_divergence(body, index,
                                            divergence.power_generator(alpha), rule)
        else:
            value = divergence.f_divergence(body, index,
                                            divergence.sqrt_generator(), rule)
    except ValueError as exc:
        raise UsageError(str(exc))
    rec = {
        "body": body.label,
        "dim": body.dim,
        "m": index.m,
        "k": index.k,
        "i": list(index.i),
        "gen": args.gen,
        "normalized": bool(args.normalized) if name in ("kl", "kl-rev") else False,
        "rule": rule.name,
        "value": value,
    }
    _emit([rec], args, columns=["body", "dim", "m", "k", "i", "gen",
                                "normalized", "rule", "value"])
    return 0


_VERIFY_COLS = ["claim", "body", "verdict", "slack", "lhs", "rhs",
                "equality_case", "params"]


def _verify_exit(reports):
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _emit_reports(reports, args, summary=None):
    records = [r.to_record() for r in reports]
    if summary is not None:
        records.append(summary)
    _emit(records, args, columns=_VERIFY_COLS)


def _cmd_verify(args):
    if args.claim == "all":
        return _verify_all(args)
    body = _load_body(args.body)
    index = _make_index(args, body.dim)
    rule = _make_rule(args, body.dim)
    try:
        if args.claim == "holder3":
            rep = analysis.verify_holder_three(body, index, args.r, args.s, args.t, rule)
        elif args.claim == "holdervol":
            rep = analysis.verify_holder_volume(body, index, args.r, args.t, rule)
        elif args.claim == "kinterp":
            rep = analysis.verify_k_interpolation(
                body, args.m, _parse_i(args.i, body.dim), args.p,
                args.r, args.s, args.t, rule)
        elif args.claim == "monotone":
            grid = (_parse_p_grid(args.p_grid) if args.p_grid
                    else analysis.default_suite_grids(body.dim)["monotone_grid"])
            rep = analysis.monotonicity_scan(body, index, grid, rule)
        elif args.claim == "petty":
            stats = analysis.petty_ratio_stats(body, rule)
            rep = analysis.VerificationReport(
                claim="petty", body_label=body.label, params={},
                lhs=stats.vmin, rhs=stats.vmax, slack=stats.spread,
                verdict="equality" if stats.is_ellipsoid else "holds",
                equality_case=analysis.equality_class(body, rule),
                extra={"spread": stats.spread})
        elif args.claim == "limit-inf":
            sched = (_parse_float_list(args.p_schedule, "--p-schedule")
                     if args.p_schedule else (10.0, 30.0, 100.0, 300.0, 1000.0))
            rep = analysis.limit_p_infinity(body, index, rule, sched)
        else:
            sched = (_parse_float_list(args.p_schedule, "--p-schedule")
                     if args.p_schedule else (0.3, 0.1, 0.03, 0.01))
            rep = analysis.limit_p_zero(body, index, rule, sched)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit_reports([rep], args)
    return _verify_exit([rep])


def _verify_all(args):
    corpus = args.corpus
    if not corpus or not os.path.isdir(corpus):
        raise UsageError("verify all needs --corpus DIR with body files")
    paths = sorted(p for p in os.listdir(corpus) if p.endswith(".json"))
    if not paths:
        raise UsageError("no .json body files in %s" % corpus)
    bodies = [_load_body(os.path.join(corpus, p)) for p in paths]
    rule2 = (quadrature.parse_rule_spec(args.rule2, 2) if args.rule2
             else quadrature.default_rule(2))
    rule3 = (quadrature.parse_rule_spec(args.rule3, 3) if args.rule3
             else quadrature.default_rule(3))
    reports = analysis.run_verification_suite(bodies, rule2=rule2, rule3=rule3)
    counts = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = {
        "claim": "summary",
        "body": corpus,
        "verdict": "violated" if counts.get("violated") else "holds",
        "params": {"reports": len(reports), "counts": counts},
    }
    _emit_reports(reports, args, summary=summary)
    return _verify_exit(reports)


_MC_COLS = ["N", "mean_deficit", "stderr", "scaled", "target", "ratio"]


def _cmd_mc_polytope(args):
    body = _load_body(args.body)
    index = _make_index(args, body.dim)
    rule = _make_rule(args, body.dim)
    schedule = _parse_int_list(args.N, "--N")
    try:
        check = randpoly.interpretation_check(
            body, p=_parse_p(args.p), index=index, n_schedule=schedule,
            trials=args.trials, seed=args.seed, rule=rule,
            allow_dim3=args.dim_3_ok)
    except ValueError as exc:
        raise UsageError(str(exc))
    records = []
    for est in check.estimates:
        records.append({
            "N": est.n_points,
            "mean_deficit": est.mean,
            "stderr": est.stderr,
            "scaled": est.scaled_mean,
            "target": check.target,
            "ratio": est.scaled_mean / check.target,
        })
    records.append({
        "N": "inf",
        "mean_deficit": "",
        "stderr": "",
        "scaled": check.extrapolated,
        "target": check.target,
        "ratio": check.extrapolated / check.target,
    })
    _emit(records, args, columns=_MC_COLS)
    return 0


_CORPUS_SPECS = [
    ("ball2.json", {"dim": 2, "type": "ball", "radius": 1.0}),
    ("ball3.json", {"dim": 3, "type": "ball", "radius": 1.0}),
    ("ellipse_2_1.json", {"dim": 2, "type": "ellipsoid", "semi_axes": [2.0, 1.0]}),
    ("ellipse_3_1.json", {"dim": 2, "type": "ellipsoid", "semi_axes": [3.0, 1.0]}),
    ("ellipsoid_2_1_1.json", {"dim": 3, "type": "ellipsoid",
                              "semi_axes": [2.0, 1.0, 1.0]}),
    ("perturbed_disk_eps002.json", {"dim": 2, "type": "perturbed_ball",
                                    "mode": 3, "epsilon": 0.02}),
    ("perturbed_disk_eps005.json", {"dim": 2, "type": "perturbed_ball",
                                    "mode": 3, "epsilon": 0.05}),
    ("perturbed_disk_eps01.json", {"dim": 2, "type": "perturbed_ball",
                                   "mode": 3, "epsilon": 0.1}),
]


def corpus_gen(out_dir):
    """Write the canonical 8-body corpus; returns the file paths.

    Every body is validated through the construction gate before its file
    is written; regeneration is byte-identical (sorted keys, fixed indent,
    no timestamps).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, spec in _CORPUS_SPECS:
        spec = dict(spec)
        spec["provenance"] = "curvfun corpus-gen %s" % __version__
        geometry.body_from_dict(spec, label=name[:-5], validate=True)
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(json.dumps(spec, sort_keys=True, indent=2) + "\n")
        paths.append(path)
    return paths


def _cmd_corpus_gen(args):
    for path in corpus_gen(args.out_dir):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = _Parser(prog="curvfun",
                     description="curvature functionals of smooth convex bodies")
    parser.add_argument("--version", action="version",
                        version="curvfun %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one weighted functional")
    _add_body_flag(p)
    p.add_argument("--p", required=True, help="exponent p (inf for the polar limit)")
    _add_index_flags(p)
    _add_rule_flag(p)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="evaluate over a p grid")
    _add_body_flag(p)
    p.add_argument("--p-grid", required=True, metavar="A:B:STEPS[:log]",
                   help="grid spec a:b:steps, optional :log, or a comma list")
    _add_index_flags(p)
    _add_rule_flag(p)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("divergence", help="f-divergences of the cone measures")
    _add_body_flag(p)
    _add_index_flags(p)
    p.add_argument("--gen", required=True,
                   help="kl | kl-rev | hellinger:A | renyi:A | power:A | sqrt")
    p.add_argument("--normalized", action="store_true",
                   help="normalize both measures to probability (kl/kl-rev only)")
    _add_rule_flag(p)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("verify", help="machine-verify one claim or the full suite")
    p.add_argument("claim", choices=["holder3", "holdervol", "kinterp", "monotone",
                                     "petty", "limit-inf", "limit-zero", "all"])
    p.add_argument("--body", metavar="F", help="body file (single claims)")
    p.add_argument("--corpus", metavar="DIR", help="body directory (verify all)")
    _add_index_flags(p)
    p.add_argument("--p", type=float, default=1.0, help="exponent p (kinterp)")
    p.add_argument("--r", type=float, default=1.0, help="first exponent/k-slot value")
    p.add_argument("--s", type=float, default=0.0, help="middle exponent/k-slot value")
    p.add_argument("--t", type=float, default=4.0, help="last exponent/k-slot value")
    p.add_argument("--p-grid", metavar="GRID", help="grid for monotone")
    p.add_argument("--p-schedule", metavar="LIST", help="schedule for the limit claims")
    _add_rule_flag(p)
    p.add_argument("--rule2", metavar="R", help="dim-2 rule for verify all")
    p.add_argument("--rule3", metavar="R", help="dim-3 rule for verify all")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc-polytope", help="Monte Carlo hull-deficit check")
    _add_body_flag(p)
    p.add_argument("--p", required=True, help="exponent p of the sampling density")
    _add_index_flags(p)
    p.add_argument("--N", required=True, metavar="N1,N2,...",
                   help="hull sizes (at least 3, distinct)")
    p.add_argument("--trials", required=True, type=int, help="trials per hull size")
    p.add_argument("--seed", required=True, type=int, help="base RNG seed")
    p.add_argument("--dim-3-ok", action="store_true",
                   help="allow the expensive dim-3 run")
    _add_rule_flag(p)
    _add_format_flags(p, default="csv")
    p.set_defaults(func=_cmd_mc_polytope)

    p = sub.add_parser("corpus-gen", help="write the canonical body corpus")
    p.add_argument("out_dir", metavar="DIR")
    p.set_defaults(func=_cmd_corpus_gen)

    return parser


def run(argv=None):
    """Entry point with the documented exit-code contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.command == "verify" and args.claim != "all" and not args.body:
        print("error: verify %s needs --body" % args.claim, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
