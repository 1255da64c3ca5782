import os
import subprocess
import sys
from pathlib import Path

import curvfun as cf
from curvfun import analysis, divergence, functionals, geometry, quadrature, randpoly

_MODULES = [quadrature, geometry, functionals, divergence, analysis, randpoly]
_ROOT = Path(__file__).resolve().parents[1]


def test_public_names_declared_once():
    # each module's __all__ is its one list of public names; the package
    # re-exports them in order, each name once and as the module's own object
    assert cf.__all__ == ["__version__", *(n for m in _MODULES for n in m.__all__)]
    assert len(set(cf.__all__)) == len(cf.__all__)
    for module in _MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(cf, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert "MIN_RADIUS" in geometry.__all__


def test_demos_run():
    # the README's runnable walkthroughs run to the end on the package in src
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    demos = sorted((_ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr)
