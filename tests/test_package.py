import curvfun as cf
from curvfun import analysis, divergence, functionals, geometry, quadrature, randpoly

_MODULES = [quadrature, geometry, functionals, divergence, analysis, randpoly]


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
