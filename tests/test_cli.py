import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curvfun as cf
import curvfun.cli as cli


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert cli.run(["corpus-gen", str(d)]) == 0
    return d


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_gen_contents(corpus_dir):
    names = sorted(p.name for p in corpus_dir.glob("*.json"))
    assert names == [
        "ball2.json", "ball3.json", "ellipse_2_1.json", "ellipse_3_1.json",
        "ellipsoid_2_1_1.json", "perturbed_disk_eps002.json",
        "perturbed_disk_eps005.json", "perturbed_disk_eps01.json",
    ]
    for name in names:
        spec = json.loads((corpus_dir / name).read_text())
        assert spec["dim"] in (2, 3)


def test_corpus_gen_reproducible(corpus_dir, tmp_path, capsys):
    other = tmp_path / "again"
    code, out, err = run_cli(["corpus-gen", str(other)], capsys)
    assert code == 0
    for p in sorted(corpus_dir.glob("*.json")):
        assert (other / p.name).read_bytes() == p.read_bytes()


@pytest.mark.parametrize("module", ["curvfun", "curvfun.cli"])
def test_runs_as_module(module, corpus_dir, tmp_path):
    # python -m works without the installed console script
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "bodies"
    proc = subprocess.run([sys.executable, "-m", module, "corpus-gen", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in out.glob("*.json"))
    assert len(written) == 8
    for name in written:
        assert (out / name).read_bytes() == (corpus_dir / name).read_bytes()


def test_eval_ball3(corpus_dir, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ball3.json"), "--p", "1", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["value"] - 4 * math.pi) < 1e-9
    assert rec["m"] == 0 and rec["k"] == 0.0
    assert rec["p"] == 1.0


def test_eval_infinite_p(corpus_dir, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ellipse_2_1.json"), "--p", "inf", "--json"],
        capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["p"] == "inf"
    assert abs(rec["value"] - math.pi) < 1e-9


@pytest.mark.parametrize("p", ["1e308", "-1e308"])
def test_eval_huge_finite_p(corpus_dir, tmp_path, p):
    # the p = inf value, and no numpy warning on the way (-W error)
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "curvfun", "eval", "--body",
         str(corpus_dir / "ball2.json"), "--p=" + p, "--json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == 2 * math.pi


def test_eval_weighted_index(corpus_dir, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ball2.json"), "--p", "2",
         "--m", "2", "--k", "1.5", "--i", "2", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["value"] - 2 * math.pi) < 1e-9


def test_eval_excluded_p_exits_2(corpus_dir, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ball3.json"), "--p", "-3"], capsys)
    assert code == 2
    assert "error" in err.lower()
    assert out == ""


def test_eval_bad_index_exits_2(corpus_dir, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ball2.json"), "--p", "1",
         "--m", "2", "--i", "1"], capsys)
    assert code == 2
    assert "constraint" in err


def test_eval_missing_body_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(tmp_path / "nope.json"), "--p", "1"], capsys)
    assert code == 2
    assert err.strip()


def test_missing_required_flag_exits_2(corpus_dir, capsys):
    code, out, err = run_cli(["eval", "--body", str(corpus_dir / "ball2.json")], capsys)
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run_cli(["frobnicate"], capsys)
    assert code == 2


def test_sweep_csv(corpus_dir, capsys):
    code, out, err = run_cli(
        ["sweep", "--body", str(corpus_dir / "ellipse_2_1.json"),
         "--p-grid", "1:4:4", "--csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "body,dim,m,k,i,p,rule,value"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert [r["p"] for r in rows] == ["1.0", "2.0", "3.0", "4.0"]
    want = 2 * math.pi * 2.0 ** ((2 - 1.0) / (2 + 1.0))
    assert abs(float(rows[0]["value"]) - want) < 1e-9


def test_sweep_log_grid(corpus_dir, capsys):
    code, out, err = run_cli(
        ["sweep", "--body", str(corpus_dir / "ball2.json"),
         "--p-grid", "0.25:16:7:log", "--csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ps = [float(r["p"]) for r in rows]
    assert len(ps) == 7
    assert ps[0] == pytest.approx(0.25) and ps[-1] == pytest.approx(16.0)
    ratios = [b / a for a, b in zip(ps, ps[1:])]
    assert max(ratios) - min(ratios) < 1e-9


def test_sweep_bad_grid_exits_2(corpus_dir, capsys):
    code, out, err = run_cli(
        ["sweep", "--body", str(corpus_dir / "ball2.json"), "--p-grid", "4:1:0"], capsys)
    assert code == 2


def test_divergence_kl(corpus_dir, capsys):
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "ellipse_2_1.json"),
         "--gen", "kl", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["value"] - (-2 * math.pi * math.log(2))) < 1e-9
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "ellipse_2_1.json"),
         "--gen", "kl", "--csv"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "body,dim,m,k,i,gen,normalized,rule,value"
    assert float(row.split(",")[-1]) == rec["value"]


def test_divergence_hellinger(corpus_dir, capsys):
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "ellipse_2_1.json"),
         "--gen", "hellinger:0.5", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["value"] - 2 * math.pi) < 1e-9


def test_divergence_normalized_flag(corpus_dir, capsys):
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "perturbed_disk_eps005.json"),
         "--gen", "kl", "--normalized", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["value"] > 0.0
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "ball2.json"),
         "--gen", "sqrt", "--normalized"], capsys)
    assert code == 2  # normalization only applies to the kl generators


def test_divergence_unknown_gen_exits_2(corpus_dir, capsys):
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "ball2.json"), "--gen", "what"], capsys)
    assert code == 2


@pytest.mark.parametrize("gen", ["hellinger:nan", "renyi:inf", "power:nan"])
def test_divergence_non_finite_alpha_exits_2(corpus_dir, capsys, gen):
    code, out, err = run_cli(
        ["divergence", "--body", str(corpus_dir / "ball2.json"), "--gen", gen], capsys)
    assert code == 2
    assert "alpha must be finite" in err
    assert out == ""


@pytest.mark.parametrize("gen, flags, call", [
    ("kl", [], lambda b, z: cf.kl_divergence(b, z, "PQ")),
    ("kl-rev", [], lambda b, z: cf.kl_divergence(b, z, "QP")),
    ("kl", ["--normalized"], lambda b, z: cf.kl_divergence(b, z, "PQ", normalized=True)),
    ("kl-rev", ["--normalized"], lambda b, z: cf.kl_divergence(b, z, "QP", normalized=True)),
    ("hellinger:0.5", [], lambda b, z: cf.hellinger(b, z, 0.5)),
    ("renyi:0.5", [], lambda b, z: cf.renyi(b, z, 0.5)),
    ("power:2", [], lambda b, z: cf.f_divergence(b, z, cf.power_generator(2.0))),
    ("sqrt", [], lambda b, z: cf.f_divergence(b, z, cf.sqrt_generator())),
], ids=["kl", "kl-rev", "kl-normalized", "kl-rev-normalized", "hellinger", "renyi",
        "power", "sqrt"])
@pytest.mark.parametrize("name", ["ellipse_2_1.json", "ellipsoid_2_1_1.json"])
def test_divergence_matches_library(corpus_dir, capsys, name, gen, flags, call):
    # each generator prints the library's value to the last bit
    path = corpus_dir / name
    code, out, err = run_cli(["divergence", "--body", str(path), "--gen", gen, "--json"]
                             + flags, capsys)
    assert code == 0, err
    rec = json.loads(out)
    body = cf.load_body(str(path))
    assert rec["value"].hex() == call(body, cf.WeightIndex.zero(body.dim)).hex()
    assert rec["normalized"] is bool(flags)


@pytest.mark.parametrize("command, flags, message", [
    ("eval", ["--p", "nan"], "p must be a real number or +inf, got nan"),
    ("eval", ["--p=-inf"], "p must be a real number or +inf, got -inf"),
    ("eval", ["--p", "-inf"], "p must be a real number or +inf, got -inf"),
    ("eval", ["--p", "-Infinity"], "p must be a real number or +inf, got -inf"),
    ("eval", ["--p", "abc"], "invalid float value: 'abc'"),
    ("mc-polytope", ["--p", "nan", "--N", "40,80,160", "--trials", "4", "--seed", "1"],
     "p must be a real number or +inf, got nan"),
    # a non-finite p list entry: no NaN record, and p = 0: no traceback
    ("verify", ["monotone", "--p-grid", "1,2,inf"], "p grid entries must be finite, got inf"),
    ("verify", ["limit-inf", "--p-schedule", "10,30,inf"],
     "schedule entries must be finite, got inf"),
    ("verify", ["limit-zero", "--p-schedule", "0.3,0.1,inf"],
     "schedule entries must be finite, got inf"),
    ("verify", ["limit-zero", "--p-schedule", "0.3,0.1,0"], "must not contain 0"),
    # a p whose omega has omega^inf's bits carries no information
    ("verify", ["monotone", "--p-grid", "1,1e308"], "p = 1e+308 cannot be told from p = inf"),
    ("verify", ["monotone", "--p-grid", "1,1e17"], "p = 1e+17 cannot be told from p = inf"),
    ("verify", ["limit-inf", "--p-schedule", "10,30,100,300,1e17"],
     "p = 1e+17 cannot be told from p = inf"),
    # malformed lists, grids and generator specs
    ("sweep", ["--p-grid", "1:2"], "error: --p-grid expects a:b:steps[:log], got '1:2'"),
    ("sweep", ["--p-grid", "1:2:x"],
     "error: --p-grid expects numeric bounds and integer steps"),
    ("sweep", ["--p-grid", "0:4:5:log"], "error: log grids need positive endpoints"),
    ("sweep", ["--p-grid", "1,a"], "error: --p-grid expects a:b:steps[:log] or a comma list"),
    ("divergence", ["--gen", "kl:1"], "error: --gen kl takes no parameter"),
    ("divergence", ["--gen", "hellinger"],
     "error: --gen hellinger needs a parameter, e.g. hellinger:0.5"),
    ("divergence", ["--gen", "hellinger:abc"],
     "error: --gen hellinger parameter must be a number, got 'abc'"),
    ("verify", ["limit-inf", "--p-schedule", "1,a"],
     "error: --p-schedule expects comma-separated numbers, got '1,a'"),
    ("eval", ["--p", "1", "--i", "1,x"],
     "error: --i expects comma-separated integers, got '1,x'"),
    ("mc-polytope", ["--p", "1", "--N", "10,x", "--trials", "4", "--seed", "1"],
     "error: --N expects comma-separated integers, got '10,x'"),
    # a library refusal, bare and with the sweep's p=... context
    ("eval", ["--p", "-2"], "error: p = -2 is excluded (the exponents divide by n+p)\n"),
    ("sweep", ["--p-grid", "1,-2"],
     "error: p=-2: p = -2 is excluded (the exponents divide by n+p)\n"),
], ids=["eval-nan", "eval-neg-inf", "eval-neg-inf-spaced", "eval-neg-infinity-spaced",
        "eval-abc", "mc-polytope-nan", "monotone-inf", "limit-inf-inf", "limit-zero-inf",
        "limit-zero-0", "monotone-1e308", "monotone-1e17", "limit-inf-1e17",
        "p-grid-two-parts", "p-grid-steps-x", "p-grid-log-zero", "p-grid-list-a",
        "gen-kl-param", "gen-hellinger-bare", "gen-hellinger-abc", "p-schedule-a", "i-x",
        "N-x", "eval-p-minus-n", "sweep-p-minus-n"])
def test_bad_p_exits_2(corpus_dir, capsys, command, flags, message):
    code, out, err = run_cli([command, "--body", str(corpus_dir / "ball2.json")] + flags,
                             capsys)
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["eval", "--body", "{d}/ball2.json", "--p", "1", "--out", "{t}/missing/x.json"],
     "error: [Errno 2] No such file or directory: '%s'\n"),
    (["corpus-gen", "{t}/file.json"], "error: [Errno 17] File exists: '%s'\n"),
], ids=["out-missing-dir", "corpus-gen-on-a-file"])
def test_os_error_exits_2(corpus_dir, tmp_path, capsys, argv, message):
    # an OSError is bad input too: one error line and exit 2, no traceback
    (tmp_path / "file.json").write_text("{}")
    argv = [a.format(d=corpus_dir, t=tmp_path) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", message % argv[-1])
    assert not (tmp_path / "missing").exists()


def test_eval_non_finite_k_exits_2(tmp_path, capsys):
    disk = tmp_path / "disk_r2.json"
    disk.write_text(json.dumps({"dim": 2, "type": "ball", "radius": 2.0}))
    for k in ("inf", "-inf"):
        code, out, err = run_cli(["eval", "--body", str(disk), "--p", "1", "--k", k], capsys)
        assert code == 2
        assert "k must be finite, got %s" % k in err
        assert out == ""


@pytest.mark.parametrize("spec, message", [
    ({"dim": 2, "type": "ball", "radius": math.nan}, "ball radius must be positive and finite"),
    ({"dim": 3, "type": "ball", "radius": math.inf}, "ball radius must be positive and finite"),
    ({"dim": 2, "type": "perturbed_ball", "mode": 3, "epsilon": math.nan},
     "eps must be nonnegative and finite"),
    ({"dim": 3, "type": "ellipsoid", "semi_axes": [1.0, math.nan, 2.0]},
     "semi-axes must be positive and finite"),
    ({"dim": 2, "type": "perturbed_ball", "mode": math.inf, "epsilon": 0.05},
     "mode must be an integer >= 3"),
    ({"dim": 2, "type": "perturbed_ball", "mode": math.nan, "epsilon": 0.05},
     "mode must be an integer >= 3"),
    # malformed specs
    ([2, "ball"], "body spec must be a JSON object"),
    ({"dim": 4, "type": "ball"}, "body spec dim must be 2 or 3, got 4"),
    ({"dim": 2, "type": "ellipsoid"}, "ellipsoid spec needs either 'matrix' or 'semi_axes'"),
    ({"dim": 2, "type": "perturbed_ball", "mode": 3}, "perturbed_ball spec needs 'epsilon'"),
    ({"dim": 2, "type": "ellipsoid", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "matrix shape (3, 3) does not match dim 2"),
    ({"dim": 2, "type": "ellipsoid", "matrix": [[2, 1], [0, 2]]},
     "ellipsoid matrix must be symmetric"),
    ({"dim": 2, "type": "ellipsoid", "matrix": [[1, 2], [2, 1]]},
     "ellipsoid matrix must be positive definite"),
    # dim is 2 or 3 as a number, never truncated or parsed; a label is a string
    ({"dim": 2.7, "type": "ball"}, "body spec dim must be 2 or 3, got 2.7"),
    ({"dim": "2", "type": "ball"}, "body spec dim must be 2 or 3, got '2'"),
    ({"dim": "abc", "type": "ball"}, "body spec dim must be 2 or 3, got 'abc'"),
    ({"dim": 2, "type": "ball", "label": 5}, "body spec label must be a string, got 5"),
], ids=["radius-nan", "radius-inf", "epsilon-nan", "semi-axis-nan", "mode-inf", "mode-nan",
        "not-an-object", "dim-4", "ellipsoid-no-form", "perturbed-no-epsilon",
        "matrix-shape", "matrix-asymmetric", "matrix-indefinite", "dim-2.7", "dim-string",
        "dim-abc", "label-int"])
def test_non_finite_body_file_exits_2(tmp_path, capsys, spec, message):
    # json writes NaN and Infinity, and json.load reads them back
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["eval", "--body", str(path), "--p", "1"], capsys)
    assert code == 2
    assert "cannot load body" in err and message in err
    assert out == ""


@pytest.mark.parametrize("command, flags", [
    ("eval", []),
    ("mc-polytope", ["--N", "40,80,160", "--trials", "2", "--seed", "1"]),
])
@pytest.mark.parametrize("p", ["-1e3", "-1.5e-2", "-.5"])
def test_negative_scientific_p_is_a_value(corpus_dir, capsys, command, flags, p):
    argv = [command, "--body", str(corpus_dir / "ball2.json")] + flags
    code, out, err = run_cli(argv + ["--p", p], capsys)
    assert code == 0, err
    assert (code, out, err) == run_cli(argv + ["--p=" + p], capsys)


def test_option_like_p_still_exits_2(corpus_dir, capsys):
    code, out, err = run_cli(["eval", "--body", str(corpus_dir / "ball2.json"), "--p", "-x"],
                             capsys)
    assert code == 2
    assert "expected one argument" in err
    assert out == ""


def test_verify_single_claims(corpus_dir, capsys):
    body = str(corpus_dir / "ellipse_2_1.json")
    for claim in ("holder3", "holdervol", "petty", "monotone"):
        code, out, err = run_cli(["verify", claim, "--body", body, "--json"], capsys)
        assert code == 0, (claim, err)
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["verdict"] in ("holds", "equality")
    # (omega^p/omega^0)^(n+p) past the float range prints "inf"
    code, out, err = run_cli(
        ["verify", "monotone", "--body", str(corpus_dir / "perturbed_disk_eps01.json"),
         "--p-grid", "1,1e5", "--json"], capsys)
    assert code == 0, err
    rec = json.loads(out)
    assert rec["verdict"] == "holds" and rec["extra"]["form_ii_vol"][-1] == "inf"
    assert [round(v, 3) for v in rec["extra"]["form_ii"]] == [0.841, 0.722]


_Z2 = cf.WeightIndex.zero(2)


@pytest.mark.parametrize("claim, flags, call", [
    ("holder3", [], lambda b: cf.verify_holder_three(b, _Z2, 1.0, 0.0, 4.0)),
    ("holdervol", [], lambda b: cf.verify_holder_volume(b, _Z2, 1.0, 4.0)),
    ("kinterp", ["--r", "0", "--s", "1", "--t", "2"],
     lambda b: cf.verify_k_interpolation(b, 0, (0,), 1.0, 0.0, 1.0, 2.0)),
    ("kinterp", [], lambda b: cf.verify_k_interpolation(b, 0, (0,), 1.0, 0.0, 1.0, 2.0)),
    ("monotone", [], lambda b: cf.monotonicity_scan(b, _Z2)),
    ("monotone", ["--p-grid", "0.5,1,2,4"],
     lambda b: cf.monotonicity_scan(b, _Z2, [0.5, 1.0, 2.0, 4.0])),
    ("petty", [], lambda b: cf.verify_petty(b)),
    ("limit-inf", [], lambda b: cf.limit_p_infinity(b, _Z2)),
    ("limit-zero", [], lambda b: cf.limit_p_zero(b, _Z2)),
    ("limit-zero", ["--p-schedule", "0.2,0.05,0.02"],
     lambda b: cf.limit_p_zero(b, _Z2, p_schedule=[0.2, 0.05, 0.02])),
], ids=["holder3", "holdervol", "kinterp", "kinterp-defaults", "monotone", "monotone-p-grid",
        "petty", "limit-inf", "limit-zero", "limit-zero-p-schedule"])
def test_verify_claim_matches_library(corpus_dir, capsys, claim, flags, call):
    # a single-claim record is the library call's, defaults included
    path = corpus_dir / "ellipse_2_1.json"
    code, out, err = run_cli(["verify", claim, "--body", str(path), "--json"] + flags,
                             capsys)
    assert code == 0, err
    expected = cli._jsonable(call(cf.load_body(str(path))).to_record())
    assert json.loads(out) == expected


def test_verify_kinterp_slots(corpus_dir, capsys):
    code, out, err = run_cli(
        ["verify", "kinterp", "--body", str(corpus_dir / "ball2.json"),
         "--r", "0", "--s", "1", "--t", "2", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["verdict"] == "equality"


def test_verify_limit_inf(corpus_dir, capsys):
    code, out, err = run_cli(
        ["verify", "limit-inf", "--body", str(corpus_dir / "ellipse_2_1.json"),
         "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert abs(rec["lhs"] - 16.0) / 16.0 < 1e-4


def test_verify_single_needs_body(capsys):
    code, out, err = run_cli(["verify", "holder3"], capsys)
    assert code == 2
    assert "--body" in err


def test_verify_hypothesis_violated_is_exit_0(corpus_dir, capsys):
    code, out, err = run_cli(
        ["verify", "holder3", "--body", str(corpus_dir / "ball2.json"),
         "--r", "4", "--s", "0", "--t", "1", "--json"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["verdict"] == "hypothesis_violated"


def test_verify_violated_exit_code(corpus_dir, capsys, monkeypatch):
    # no sound claim on the corpus is violated, so force one to check the
    # exit-code contract
    real = cli.analysis.verify_holder_three

    def fake(*args, **kwargs):
        rep = real(*args, **kwargs)
        return cli.analysis.VerificationReport(
            claim=rep.claim, body_label=rep.body_label, params=rep.params,
            lhs=rep.lhs, rhs=rep.rhs, slack=-1.0, verdict="violated",
            equality_case=rep.equality_case, extra=rep.extra)

    monkeypatch.setattr(cli.analysis, "verify_holder_three", fake)
    code, out, err = run_cli(
        ["verify", "holder3", "--body", str(corpus_dir / "ball2.json"), "--json"],
        capsys)
    assert code == 1


def test_verify_all(corpus_dir, capsys):
    code, out, err = run_cli(
        ["verify", "all", "--corpus", str(corpus_dir), "--json"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]
    assert summary["claim"] == "summary"
    counts = summary["params"]["counts"]
    assert counts.get("violated", 0) == 0
    assert summary["params"]["reports"] == len(records) - 1
    assert len(records) > 300


def test_verify_all_needs_corpus(capsys, tmp_path):
    code, out, err = run_cli(["verify", "all"], capsys)
    assert code == 2
    code, out, err = run_cli(["verify", "all", "--corpus", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: no .json body files in %s\n" % tmp_path


@pytest.mark.parametrize("flag, spec, dim, example", [
    ("--rule2", "abc", 2, "512"), ("--rule3", "8x8", 3, "64x128")])
def test_verify_all_bad_rule_exits_2(corpus_dir, capsys, flag, spec, dim, example):
    code, out, err = run_cli(
        ["verify", "all", "--corpus", str(corpus_dir), flag, spec], capsys)
    assert code == 2
    assert err == ("error: bad rule spec '%s' for dimension %d (expected e.g. '%s')\n"
                   % (spec, dim, example))
    assert out == ""


def test_mc_polytope_csv(corpus_dir, capsys):
    argv = ["mc-polytope", "--body", str(corpus_dir / "ball2.json"), "--p", "1",
            "--N", "50,100,200", "--trials", "60", "--seed", "9"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["N"] for r in rows] == ["50", "100", "200", "inf"]
    header = out.splitlines()[0].split(",")
    assert header == ["N", "mean_deficit", "stderr", "scaled", "scaled_stderr",
                      "target", "ratio"]
    target = float(rows[0]["target"])
    assert abs(target - 4 * math.pi ** 3) < 1e-9
    assert float(rows[-1]["ratio"]) == pytest.approx(
        float(rows[-1]["scaled"]) / target)
    # stderr is the unscaled mean's, scaled_stderr the scaled column's: the
    # finite rows scale one by N^2, and the N = inf row carries only the
    # extrapolated constant's standard error
    for row in rows[:-1]:
        assert float(row["scaled_stderr"]) == pytest.approx(
            float(row["stderr"]) * int(row["N"]) ** 2, rel=1e-12)
    assert rows[-1]["stderr"] == ""
    assert float(rows[-1]["scaled_stderr"]) > 0.0


def test_mc_polytope_deterministic(corpus_dir, capsys):
    argv = ["mc-polytope", "--body", str(corpus_dir / "ball2.json"), "--p", "1",
            "--N", "40,80,160", "--trials", "40", "--seed", "3"]
    code, first, err = run_cli(argv, capsys)
    assert code == 0
    code, second, err = run_cli(argv, capsys)
    assert code == 0
    assert first == second
    argv[-1] = "4"
    code, third, err = run_cli(argv, capsys)
    assert code == 0
    assert third != first


def test_mc_polytope_requires_seed(corpus_dir, capsys):
    code, out, err = run_cli(
        ["mc-polytope", "--body", str(corpus_dir / "ball2.json"), "--p", "1",
         "--N", "40,80,160", "--trials", "40"], capsys)
    assert code == 2


def test_mc_polytope_dim3_gate(corpus_dir, capsys):
    code, out, err = run_cli(
        ["mc-polytope", "--body", str(corpus_dir / "ball3.json"), "--p", "1",
         "--N", "8,12,16", "--trials", "8", "--seed", "1"], capsys)
    assert code == 2
    assert "dim-3" in err
    assert "--dim-3-ok" in err
    code, out, err = run_cli(
        ["mc-polytope", "--body", str(corpus_dir / "ball3.json"), "--p", "1",
         "--N", "8,12,16", "--trials", "8", "--seed", "1", "--dim-3-ok"], capsys)
    assert code == 0


def test_out_flag_writes_file(corpus_dir, tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ball2.json"), "--p", "1",
         "--json", "--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    rec = json.loads(out_file.read_text().strip())
    assert abs(rec["value"] - 2 * math.pi) < 1e-9


def test_pretty_format(corpus_dir, capsys):
    code, out, err = run_cli(
        ["eval", "--body", str(corpus_dir / "ball2.json"), "--p", "1", "--pretty"],
        capsys)
    assert code == 0
    assert "value" in out and "=" in out


@pytest.mark.parametrize("command, default", [("eval", "--json"),
                                              ("mc-polytope", "--csv")])
def test_help_names_default_format(capsys, monkeypatch, command, default):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run_cli([command, "--help"], capsys)
    assert code == 0
    marked = [line.split()[0] for line in out.splitlines() if "(default)" in line]
    assert marked == [default]


def test_version_flag(capsys):
    code, out, err = run_cli(["--version"], capsys)
    assert code == 0
    assert out.startswith("curvfun ")
