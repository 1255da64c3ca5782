"""Curvature functionals of smooth convex bodies.

Bodies are given by support functions with analytic derivatives; every
integral is taken sphere-side over fixed quadrature rules, so results are
deterministic to the last bit for a given rule.  The package evaluates
weighted L_p affine surface areas, f-divergences of the associated cone
measures, verifies the inequality and limit structure connecting them,
and Monte Carlos the random-polytope volume-deficit interpretation.
"""

from . import analysis, divergence, functionals, geometry, quadrature, randpoly
from ._version import __version__
from .analysis import *
from .divergence import *
from .functionals import *
from .geometry import *
from .quadrature import *
from .randpoly import *

__all__ = ["__version__", *quadrature.__all__, *geometry.__all__, *functionals.__all__,
           *divergence.__all__, *analysis.__all__, *randpoly.__all__]
