"""Curvature functionals of smooth convex bodies.

Bodies are given by support functions with analytic derivatives; every
integral is taken sphere-side over fixed quadrature rules, so results are
deterministic to the last bit for a given rule.  The package evaluates
weighted L_p affine surface areas, f-divergences of the associated cone
measures, verifies the inequality and limit structure connecting them,
and Monte Carlos the random-polytope volume-deficit interpretation.
"""

from ._version import __version__
from .quadrature import (
    SphereRule,
    circle_rule,
    default_rule,
    integrate,
    parse_rule_spec,
    sphere_area,
    sphere_rule,
)
from .geometry import (
    MIN_RADIUS,
    BodyConstructionError,
    ConvexityError,
    CurvatureGrid,
    CurvaturePoint,
    SupportBody,
    body_from_dict,
    body_volume,
    centroid,
    check_c2plus,
    curvature_arrays,
    curvature_at,
    curvature_grid,
    ellipsoid_matrix,
    from_support,
    load_body,
    make_ball,
    make_ellipsoid,
    make_perturbed_ball,
    polar_body,
    polar_volume,
    recenter,
    support_extension,
    transform,
)
from .functionals import (
    FunctionalValue,
    WeightIndex,
    asa,
    asa_exponents,
    homogeneity_degree,
    lutwak_density,
    mu_density,
    weighted_asa,
    weighted_polar_volume,
    weighted_volume,
)
from .divergence import (
    ConeDensityPair,
    DivergenceGenerator,
    JensenBound,
    adjoint,
    check_shape,
    cone_densities,
    f_divergence,
    hellinger,
    jensen_bound,
    kl_divergence,
    kl_generator,
    linear_generator,
    neg_log_generator,
    power_generator,
    renyi,
    sqrt_generator,
)
from .analysis import (
    EQUALITY_TOL,
    STRICT_TOL,
    LIMIT_TOL,
    PettyStats,
    VerificationReport,
    default_suite_grids,
    equality_class,
    limit_p_infinity,
    limit_p_zero,
    monotonicity_scan,
    petty_ratio_stats,
    run_verification_suite,
    verify_holder_three,
    verify_holder_volume,
    verify_k_interpolation,
    verify_petty,
)
from .randpoly import (
    BoundaryDensity,
    DeficitEstimate,
    EnvelopeError,
    HullResult,
    IdentityCheck,
    MCInterpretation,
    SampleStats,
    boundary_density,
    density_functional_identity,
    expected_deficit,
    hull_volume,
    interpretation_check,
    random_polytope_constant,
    sample_boundary,
)

__all__ = [
    "__version__",
    # quadrature
    "SphereRule", "circle_rule", "sphere_rule", "default_rule",
    "parse_rule_spec", "integrate", "sphere_area",
    # geometry
    "SupportBody", "CurvaturePoint", "CurvatureGrid", "ConvexityError",
    "BodyConstructionError", "MIN_RADIUS", "make_ball", "make_ellipsoid",
    "ellipsoid_matrix", "make_perturbed_ball", "from_support",
    "support_extension", "curvature_at", "curvature_arrays",
    "curvature_grid", "check_c2plus", "body_volume", "polar_volume",
    "centroid", "recenter", "transform", "polar_body", "body_from_dict",
    "load_body",
    # functionals
    "WeightIndex", "FunctionalValue", "weighted_asa", "asa",
    "weighted_volume", "weighted_polar_volume", "homogeneity_degree",
    "lutwak_density", "mu_density", "asa_exponents",
    # divergence
    "DivergenceGenerator", "ConeDensityPair", "JensenBound", "adjoint",
    "kl_generator", "neg_log_generator", "power_generator",
    "sqrt_generator", "linear_generator", "check_shape", "cone_densities",
    "f_divergence", "kl_divergence", "hellinger", "renyi", "jensen_bound",
    # analysis
    "EQUALITY_TOL", "STRICT_TOL", "LIMIT_TOL", "PettyStats", "VerificationReport",
    "petty_ratio_stats", "equality_class", "verify_holder_three",
    "verify_holder_volume", "verify_k_interpolation", "verify_petty",
    "monotonicity_scan",
    "limit_p_infinity", "limit_p_zero", "default_suite_grids",
    "run_verification_suite",
    # randpoly
    "BoundaryDensity", "DeficitEstimate", "EnvelopeError", "HullResult",
    "IdentityCheck", "MCInterpretation", "SampleStats", "boundary_density",
    "density_functional_identity", "expected_deficit", "hull_volume",
    "interpretation_check", "random_polytope_constant", "sample_boundary",
]
