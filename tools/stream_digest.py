"""Print SHA-256 digests of the 2-D Monte Carlo stream, for same-bits checks.

Two digests, each over exact float64 bits (float.hex):

* ``means``: the per-N mean deficits of ``interpretation_check`` at fixed
  seeds (schedule 250/500/1000, 12 trials, p = 1 and 0.5) on the disk, the
  2:1 ellipse, the eps = 0.1 (L = 3) and L = 5 perturbed disks, and a
  rotated recentered ellipse;
* ``criterion10``: the determinism payload of acceptance criterion 10.

Run it on two checkouts and compare the output:

    PYTHONPATH=src python tools/stream_digest.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import curvfun as cf

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


def means_payload():
    out = {}
    for seed, body in enumerate(_bodies()):
        for p in (1.0, 0.5):
            mc = cf.interpretation_check(body, p=p, n_schedule=(250, 500, 1000),
                                         trials=12, seed=seed)
            out["%s|%g" % (body.label, p)] = [e.mean.hex() for e in mc.estimates]
    return json.dumps(out, sort_keys=True)


def criterion10_payload():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import _determinism_payload

    return _determinism_payload()


def main():
    for name, payload in (("means", means_payload()),
                          ("criterion10", criterion10_payload())):
        print("%-12s %s" % (name, hashlib.sha256(payload.encode()).hexdigest()))


if __name__ == "__main__":
    main()
