import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_verify_single_claims(corpus_dir, capsys):
    body = str(corpus_dir / "ellipse_2_1.json")
    for claim in ("holder3", "holdervol", "petty", "monotone"):
        code, out, err = run_cli(["verify", claim, "--body", body, "--json"], capsys)
        assert code == 0, (claim, err)
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["verdict"] in ("holds", "equality")


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


def test_verify_all_needs_corpus(capsys):
    code, out, err = run_cli(["verify", "all"], capsys)
    assert code == 2


def test_mc_polytope_csv(corpus_dir, capsys):
    argv = ["mc-polytope", "--body", str(corpus_dir / "ball2.json"), "--p", "1",
            "--N", "50,100,200", "--trials", "60", "--seed", "9"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["N"] for r in rows] == ["50", "100", "200", "inf"]
    header = out.splitlines()[0].split(",")
    assert header == ["N", "mean_deficit", "stderr", "scaled", "target", "ratio"]
    target = float(rows[0]["target"])
    assert abs(target - 4 * math.pi ** 3) < 1e-9
    assert float(rows[-1]["ratio"]) == pytest.approx(
        float(rows[-1]["scaled"]) / target)


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


def test_version_flag(capsys):
    code, out, err = run_cli(["--version"], capsys)
    assert code == 0
    assert out.startswith("curvfun ")
