"""One benchmark process: set up a workload, run it, print one JSON line.

Started by run.py in a fresh interpreter, so that set-up is timed from
interpreter start.  Modes:

* ``setup``: stop at the first timed op and report that moment;
* ``run``: run the workload untraced for --seconds and report op counts,
  latencies and peak memory;
* ``trace``: run traced/untraced pairs of the workload's units for
  --seconds, then the layer probe, and report the per-layer metrics.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _tail_p99(values, segments=5):
    """Median over equal consecutive segments of each one's 99th percentile.

    A stall of the shared host that hits one or two segments moves the
    pooled 99th percentile of a run, but not this median.
    """
    n = len(values) // segments
    if n < 2:
        return _percentile(values, 0.99)
    return statistics.median(_percentile(values[i * n:(i + 1) * n], 0.99)
                             for i in range(segments))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "curvfun" / "__init__.py").is_file():
        print("perfbench: no curvfun sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import curvfun as cf
    import numpy
    import scipy

    from probe import layer_metrics, layer_probe
    from tracer import NullTracer, Tracer
    from workloads import NULL, Stats, make_workload

    tracing = args.mode == "trace"
    tr = Tracer() if tracing else NullTracer()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as tmp:
        tr.op = "setup"
        wl = make_workload(args.workload, cf, args.seed, Path(tmp), tr, args.wrong_expected)
        ready = time.monotonic()
        result = {"ready": ready}
        if args.mode != "setup":
            wl.prepare(tracing)
            stats = Stats()
            pairs = []
            rss = None
            end = time.monotonic() + args.seconds
            k = 0
            while time.monotonic() < end:
                if tracing:
                    pairs.append(wl.pair(k, stats, tr))
                else:
                    wl.unit(k, stats, NULL)
                k += 1
                if rss is None and stats.attempted >= wl.rss_ops:
                    rss = (_peak_rss_mb(), stats.attempted)
            rss = rss or (_peak_rss_mb(), stats.attempted)
            result.update(attempted=stats.attempted, failed=stats.failed, busy_s=stats.busy,
                          peak_rss_mb=rss[0], rss_ops=rss[1],
                          versions={"python": platform.python_version(),
                                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                                    "curvfun": cf.__version__})
            if tracing:
                layer_probe(cf, tr, Path(tmp), stats)
                result.update(attempted=stats.attempted, failed=stats.failed,
                              per_layer=layer_metrics(tr, pairs))
                tr.write(OUT / ("trace-%s.jsonl" % args.workload),
                         {"workload": args.workload, "seed": args.seed,
                          "versions": result["versions"],
                          "span_fields": ["name", "tag", "start", "end", "parent", "op"]})
            else:
                lat = stats.latencies
                result.update(latency_samples=len(lat),
                              op_p50_ms=_percentile(lat, 0.5) * 1e3,
                              op_p99_ms=_tail_p99(lat) * 1e3,
                              notes=wl.notes(stats))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
