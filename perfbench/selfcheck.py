#!/usr/bin/env python3
"""Prove the benchmark's correctness checks are live.

For every workload, a short run against the true expected values must
report no failed op, and a run against deliberately wrong expected values
(run.py --wrong-expected) must report failed ops.  The traced Monte Carlo
run is checked the same way, since it adds the traced-equals-untraced
check.  The metric names reported must be exactly those BENCHMARK.json
lists.

Usage, from the repository root:

    python3 perfbench/selfcheck.py [--seconds 2]
"""

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def _run(workload, seconds, trace, wrong):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    if wrong:
        cmd.append("--wrong-expected")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s exited with code %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: sorted(m["name"] for m in spec["end_to_end"]),
             1: sorted(m["name"] for m in spec["per_layer"])}
    problems = []
    cases = [(w, 0) for w in WORKLOADS] + [("mc2d", 1)]
    for workload, trace in cases:
        good = _run(workload, args.seconds, trace, False)
        bad = _run(workload, args.seconds, trace, True)
        label = "%s trace %d" % (workload, trace)
        print("%-16s true expected: %d/%d failed; wrong expected: %d/%d failed"
              % (label, good["failed"], good["attempted"], bad["failed"], bad["attempted"]))
        if good["failed"] or not good["correct"]:
            problems.append("%s fails against the true expected values" % label)
        if not bad["failed"] or bad["correct"]:
            problems.append("%s passes against wrong expected values" % label)
        if sorted(good["metrics"]) != names[trace]:
            problems.append("%s reports metrics %s, BENCHMARK.json lists %s"
                            % (label, sorted(good["metrics"]), names[trace]))
    for problem in problems:
        print("FAIL: " + problem)
    if not problems:
        print("selfcheck: all checks live")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
