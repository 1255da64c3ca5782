#!/usr/bin/env python3
"""curvfun benchmark: end-to-end metrics per workload, or a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc2d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads: mc2d, mc3d, verify, evals (see perfbench/README.md); ``all``
runs the four in turn.  With --trace 0 the end-to-end metrics are
measured untraced; with --trace 1 a traced run reports the per-layer
metrics.  Each workload runs in fresh interpreters with BLAS pinned to
one thread and CURVFUN_THREADS unset.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a table of every metric with unit and sample
count, and the environment the numbers were taken in.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc2d", "mc3d", "verify", "evals")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# fresh-interpreter set-ups per untraced run; the workload process is one
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60
RUN_TIMEOUT_EXTRA = 90


class WorkerError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode, wrong):
    """Run worker.py in a fresh interpreter; return (spawn time, its result)."""
    env = dict(os.environ, **BLAS_PIN)
    env.pop("CURVFUN_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if wrong:
        cmd.append("--wrong-expected")
    timeout = SETUP_TIMEOUT if mode == "setup" else seconds + RUN_TIMEOUT_EXTRA
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError("%s worker for %s timed out after %ds" % (mode, workload, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("%s worker for %s exited with code %d"
                          % (mode, workload, proc.returncode))
    return t0, json.loads(lines[-1])


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "curvfun").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, wrong):
    """Returns (attempted, failed, rows, notes, versions); rows are the
    metrics and notes the other figures printed, both as (name, value,
    unit, samples)."""
    if trace:
        _, res = _worker(workload, seed, seconds, "trace", wrong)
        rows = [tuple(row) for row in res["per_layer"]]
        return res["attempted"], res["failed"], rows, [], res["versions"]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        t0, res = _worker(workload, seed, seconds, "setup", wrong)
        setups.append(res["ready"] - t0)
    t0, res = _worker(workload, seed, seconds, "run", wrong)
    setups.append(res["ready"] - t0)
    n_lat = res["latency_samples"]
    rows = [("setup_s", statistics.median(setups), "s", len(setups)),
            ("ops_per_s", res["attempted"] / res["busy_s"], "ops/s", res["attempted"]),
            ("op_p50_ms", res["op_p50_ms"], "ms", n_lat),
            ("op_p99_ms", res["op_p99_ms"], "ms", n_lat),
            ("peak_rss_mb", res["peak_rss_mb"], "MB", res["rss_ops"])]
    notes = [tuple(row) for row in res["notes"]]
    return res["attempted"], res["failed"], rows, notes, res["versions"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-expected", action="store_true",
                    help="check against deliberately wrong expected values "
                         "(used by selfcheck.py to prove the checks live)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    env = {"git_sha": _git_sha(), "src_sha256": _source_digest(),
           "nproc": os.cpu_count(), "blas_threads": BLAS_PIN,
           "CURVFUN_THREADS": "unset", "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    try:
        for name in names:
            a, f, rows, notes, versions = run_workload(
                name, args.seed, args.seconds, args.trace, args.wrong_expected)
            attempted += a
            failed += f
            print("workload %s: seed %d, %g s, trace %d"
                  % (name, args.seed, args.seconds, args.trace))
            notes = [("error_rate", f / a, "fraction", a)] + notes
            for metric, value, unit, samples in rows + notes:
                print("  %-44s %14.6g %-8s n=%d" % (metric, value, unit, samples))
            prefix = name + "." if args.workload == "all" else ""
            for metric, value, unit, _ in rows:
                metrics[prefix + metric] = {"value": value, "unit": unit}
            env.update(versions)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
