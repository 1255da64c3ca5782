"""Command-line surface over the library.

Subcommands: eval, sweep, divergence, verify (single claims or the full
suite on a body corpus), mc-polytope, corpus-gen.  Machine output is JSON
lines by default, CSV behind --csv, human-readable text behind --pretty.
Exit codes: 0 on success; 1 if any verdict is "violated"; 2, with one
"error: ..." line on stderr, for any bad input, an unreadable body file and
an unwritable --out included.  Every command is deterministic for fixed
flags and seed.
"""

import argparse
import collections
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, divergence, functionals, geometry, quadrature, randpoly
from ._version import __version__

__all__ = ["run", "main", "corpus_gen"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.13's pattern, widened to the non-finite spellings: "-1e3",
        # "-.5" and "-inf" are values, not options, so each meets its
        # domain check
        self._negative_number_matcher = re.compile(
            r"^-(?:\.?\d|(?:inf|infinity|nan)$)", re.I)

    # no usage dump: run prints the one error line
    def error(self, message):
        raise ValueError(message)


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


def _cell(v):
    # a CSV or pretty cell: nested values become sorted-key JSON
    v = _jsonable(v)
    return json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v


def _emit(records, args, columns=None):
    """Write records (list of dicts) in the selected format.

    CSV columns default to the first record's keys, in order.
    """
    if args.format == "csv":
        cols = columns or list(records[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([_cell(rec.get(c, "")) for c in cols] for rec in records)
        text = buf.getvalue()
    elif args.format == "pretty":
        text = "".join("  ".join("%s=%s" % (k, _cell(v)) for k, v in rec.items()) + "\n"
                       for rec in records)
    else:
        text = "".join(json.dumps(_jsonable(rec), sort_keys=True) + "\n" for rec in records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_format_flags(p, default="json"):
    g = p.add_mutually_exclusive_group()
    for fmt, text in (("json", "JSON lines output"), ("csv", "CSV output"),
                      ("pretty", "human-readable output")):
        g.add_argument("--" + fmt, dest="format", action="store_const", const=fmt,
                       help=text + (" (default)" if fmt == default else ""))
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
        raise ValueError("cannot load body %s: %s" % (path, exc))


_LIST_OF = {int: "integers", float: "numbers"}


def _parse_list(spec, flag, cast):
    """A comma-separated list of cast values (int or float)."""
    try:
        return [cast(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError("%s expects comma-separated %s, got %r"
                         % (flag, _LIST_OF[cast], spec))


def _make_rule(spec, dim):
    if spec is None:
        return quadrature.default_rule(dim)
    return quadrature.parse_rule_spec(spec, dim)


def _body_index_rule(args):
    """The --body file, the weight index of --m, --k and --i, and the --rule."""
    body = _load_body(args.body)
    i = _parse_list(args.i, "--i", int) if args.i.strip() else [0] * (body.dim - 1)
    index = functionals.WeightIndex(args.m, args.k, i)
    return body, index, _make_rule(args.rule, body.dim)


def _parse_p_grid(spec):
    """a:b:steps[:log] or a plain comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ValueError("--p-grid expects a:b:steps[:log], got %r" % spec)
        try:
            a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError("--p-grid expects numeric bounds and integer steps")
        if steps < 2:
            raise ValueError("--p-grid needs at least 2 steps")
        if len(parts) == 4:
            if a <= 0 or b <= 0:
                raise ValueError("log grids need positive endpoints")
            return [float(v) for v in np.geomspace(a, b, steps)]
        return [float(v) for v in np.linspace(a, b, steps)]
    try:
        return [float(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError("--p-grid expects a:b:steps[:log] or a comma list")


# ---------------------------------------------------------------------------
# subcommands


def _record(body, index, rule, value, **fields):
    # eval and divergence rows: the body and index, the fields, the value
    return {"body": body.label, "dim": body.dim, "m": index.m, "k": index.k,
            "i": list(index.i), **fields, "rule": rule.name, "value": value}


def _eval_record(body, index, p, rule):
    fv = functionals.weighted_asa(body, index, p, rule)
    return _record(body, index, rule, fv.value, p=fv.p)


def _cmd_eval(args):
    body, index, rule = _body_index_rule(args)
    _emit([_eval_record(body, index, args.p, rule)], args)
    return 0


def _cmd_sweep(args):
    body, index, rule = _body_index_rule(args)
    records = []
    for p in _parse_p_grid(args.p_grid):
        try:
            records.append(_eval_record(body, index, p, rule))
        except ValueError as exc:
            raise ValueError("p=%g: %s" % (p, exc))
    _emit(records, args)
    return 0


# --gen name -> (takes a parameter, --normalized applies, library call);
# the call gets (body, index, rule, parameter, normalized)
_GENERATORS = {
    "kl": (False, True, lambda body, index, rule, alpha, norm: divergence.kl_divergence(
        body, index, "PQ", rule, normalized=norm)),
    "kl-rev": (False, True, lambda body, index, rule, alpha, norm: divergence.kl_divergence(
        body, index, "QP", rule, normalized=norm)),
    "hellinger": (True, False, lambda body, index, rule, alpha, norm: divergence.hellinger(
        body, index, alpha, rule)),
    "renyi": (True, False, lambda body, index, rule, alpha, norm: divergence.renyi(
        body, index, alpha, rule)),
    "power": (True, False, lambda body, index, rule, alpha, norm: divergence.f_divergence(
        body, index, divergence.power_generator(alpha), rule)),
    "sqrt": (False, False, lambda body, index, rule, alpha, norm: divergence.f_divergence(
        body, index, divergence.sqrt_generator(), rule)),
}
_NORMALIZABLE = [name for name, (_, norm, _) in _GENERATORS.items() if norm]


def _parse_gen(spec):
    name, _, arg = spec.partition(":")
    if name not in _GENERATORS:
        raise ValueError("unknown generator %r" % spec)
    takes_arg, _, _ = _GENERATORS[name]
    if not takes_arg:
        if arg:
            raise ValueError("--gen %s takes no parameter" % name)
        return name, None
    if not arg:
        raise ValueError("--gen %s needs a parameter, e.g. %s:0.5" % (name, name))
    try:
        return name, float(arg)
    except ValueError:
        raise ValueError("--gen %s parameter must be a number, got %r" % (name, arg))


def _cmd_divergence(args):
    body, index, rule = _body_index_rule(args)
    name, alpha = _parse_gen(args.gen)
    _, normalizable, call = _GENERATORS[name]
    if args.normalized and not normalizable:
        raise ValueError("--normalized only applies to the %s generators"
                         % " and ".join(_NORMALIZABLE))
    value = call(body, index, rule, alpha, args.normalized)
    _emit([_record(body, index, rule, value, gen=args.gen, normalized=args.normalized)],
          args)
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


# verify's claim flags by the CLAIMS keyword they set, each with its reader
# (--p, --r, --s and --t arrive as floats)
_CLAIM_FLAGS = {"p": float, "r": float, "s": float, "t": float, "p_grid": _parse_p_grid,
                "p_schedule": lambda spec: _parse_list(spec, "--p-schedule", float)}


def _cmd_verify(args):
    if args.claim == "all":
        return _verify_all(args)
    if not args.body:
        raise ValueError("verify %s needs --body" % args.claim)
    body, index, rule = _body_index_rule(args)
    claim = analysis.CLAIMS[args.claim]
    # only the flags the claim reads are parsed; an absent or empty one keeps
    # the claim's default
    params = {name: _CLAIM_FLAGS[name](getattr(args, name))
              for name in claim.__kwdefaults__ or () if getattr(args, name) not in (None, "")}
    rep = claim(body, index, rule, **params)
    _emit_reports([rep], args)
    return _verify_exit([rep])


def _verify_all(args):
    corpus = args.corpus
    if not corpus or not os.path.isdir(corpus):
        raise ValueError("verify all needs --corpus DIR with body files")
    paths = sorted(p for p in os.listdir(corpus) if p.endswith(".json"))
    if not paths:
        raise ValueError("no .json body files in %s" % corpus)
    bodies = [_load_body(os.path.join(corpus, p)) for p in paths]
    reports = analysis.run_verification_suite(
        bodies, rule2=_make_rule(args.rule2, 2), rule3=_make_rule(args.rule3, 3))
    counts = collections.Counter(r.verdict for r in reports)
    summary = {
        "claim": "summary",
        "body": corpus,
        "verdict": "violated" if counts.get("violated") else "holds",
        "params": {"reports": len(reports), "counts": counts},
    }
    _emit_reports(reports, args, summary=summary)
    return _verify_exit(reports)


def _cmd_mc_polytope(args):
    body, index, rule = _body_index_rule(args)
    check = randpoly.interpretation_check(
        body, p=args.p, index=index, n_schedule=_parse_list(args.N, "--N", int),
        trials=args.trials, seed=args.seed, rule=rule, allow_dim3=args.dim_3_ok)

    def row(n, mean, stderr, scaled, scaled_stderr):
        return {"N": n, "mean_deficit": mean, "stderr": stderr, "scaled": scaled,
                "scaled_stderr": scaled_stderr, "target": check.target,
                "ratio": scaled / check.target}

    records = [row(e.n_points, e.mean, e.stderr, e.scaled_mean, e.scaled_stderr)
               for e in check.estimates]
    records.append(row("inf", "", "", check.extrapolated, check.extrapolated_stderr))
    _emit(records, args)
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
        geometry.body_from_dict(spec)
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
    p.add_argument("--p", type=float, required=True,
                   help="exponent p (inf for the polar limit)")
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
    p.add_argument("--gen", required=True, help=" | ".join(
        name + (":A" if spec[0] else "") for name, spec in _GENERATORS.items()))
    p.add_argument("--normalized", action="store_true",
                   help="normalize both measures to probability (%s only)"
                   % "/".join(_NORMALIZABLE))
    _add_rule_flag(p)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("verify", help="machine-verify one claim or the full suite")
    p.add_argument("claim", choices=[*analysis.CLAIMS, "all"])
    p.add_argument("--body", metavar="F", help="body file (single claims)")
    p.add_argument("--corpus", metavar="DIR", help="body directory (verify all)")
    _add_index_flags(p)
    p.add_argument("--p", type=float, help="exponent p (kinterp); default per claim")
    p.add_argument("--r", type=float, help="first exponent/k-slot value; default per claim")
    p.add_argument("--s", type=float, help="middle exponent/k-slot value; default per claim")
    p.add_argument("--t", type=float, help="last exponent/k-slot value; default per claim")
    p.add_argument("--p-grid", metavar="GRID", help="grid for monotone")
    p.add_argument("--p-schedule", metavar="LIST", help="schedule for the limit claims")
    _add_rule_flag(p)
    p.add_argument("--rule2", metavar="R", help="dim-2 rule for verify all")
    p.add_argument("--rule3", metavar="R", help="dim-3 rule for verify all")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc-polytope", help="Monte Carlo hull-deficit check")
    _add_body_flag(p)
    p.add_argument("--p", type=float, required=True,
                   help="exponent p of the sampling density")
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
    """Entry point with the exit-code contract of the module docstring."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and --version
        return exc.code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
