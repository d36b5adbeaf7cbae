"""marginlab: optimal-value (marginal) functions on finite grids.

The library evaluates marginal functions mu(x) = min {phi(x, y) : y in F(x)}
of parametric minimization problems sampled on uniform grids, and verifies
the convex-analysis identities that relate them to Fenchel conjugates,
epsilon-subdifferentials, near convexity of graphs and Lagrangian duality.
Every checker pairs a structured formula with an independent brute-force
route and reports where the two agree.
"""

import types

from .conjugate import (
    FastConjugateReport,
    biconjugate,
    biconjugate_minorant_check,
    conjugate,
    conjugate_at,
    conjugate_fast,
    default_dual_grid,
    fast_conjugate_check,
    fenchel_young_check,
    inf_convolution,
    max_dots_minus,
    partial_conjugate,
    support_function,
)
from .core import (
    INF,
    Axis,
    Grid,
    GriddedFunction,
    Verdict,
    ext_add_arrays,
    ext_sum,
    eval_on_grid,
    product_grid,
    render_value,
)
from .duality import (
    ConjugateRepresentationReport,
    DualityReport,
    LagrangianIdentityReport,
    LagrangianTable,
    SlaterReport,
    conjugate_representation_check,
    dual_value_1,
    dual_value_2,
    graph_adapted_xgrid,
    lagrangian_dual,
    lagrangian_identity_check,
    primal_value,
    sampled_inf_convolution,
    slater_strong_duality_check,
    strong_duality_check,
)
from .errors import (
    DimensionMismatch,
    ExpressionError,
    ExprSyntaxError,
    GridMismatch,
    GridNotAdapted,
    HypothesisNotMet,
    MarginlabError,
    MissingSection,
    NonFiniteExpression,
    NotANode,
    NotFiniteAtPoint,
    NotNodePreserving,
    NotOnGraph,
    PointNotInSet,
    RasterError,
    SpecError,
    SpecSyntaxError,
    UnknownKey,
    UnknownVariable,
    UnsupportedDimension,
    UnsupportedShape,
    ZeroNotOnGrid,
)
from .marginal import (
    ATTAINED,
    INFEASIBLE,
    UNBOUNDED,
    EpigraphReport,
    ProbeLevel,
    LipschitzReport,
    MarginalResult,
    SemicontinuityReport,
    StructureReport,
    convexity_check,
    domain_identity_check,
    epigraph_projection_check,
    eta_solutions,
    lipschitz_probe,
    marginal,
    marginal_structure_check,
    semicontinuity_probe,
)
from .nearconvex import (
    ImageReport,
    NearConvexityReport,
    RasterCheckReport,
    RasterSet,
    closure,
    dump_raster,
    hull_raster,
    image_preservation_check,
    interior,
    intersection_preservation_check,
    is_convex_raster,
    is_int_nearly_convex,
    is_nearly_convex_with_witness,
    load_raster,
    projection_map,
    raster_check,
    refine_raster,
)
from .setmap import (
    SetValuedMap,
    full_map,
    graph_support,
    lipschitz_estimate_map,
    map_conjugate,
    map_conjugate_at,
    map_from_constraints,
    map_from_inequalities,
    map_from_points,
)
from .subdiff import (
    DEFAULT_ETAS,
    EpsSubdifferentialReport,
    HPolyhedron,
    RestrictedConjugateReport,
    Interval,
    SumRuleReport,
    TheoremReport,
    conj_subdiff_check,
    eps_coderivative,
    eps_normal_cone,
    eps_subdifferential,
    eps_subdifferential_check,
    feasible_point,
    is_empty,
    marginal_subdiff_check,
    restricted_conjugate_check,
    sum_rule_check,
)
from .spec import ProblemSpec, parse_spec
from .tables import Tables

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
