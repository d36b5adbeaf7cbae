"""marginlab: optimal-value (marginal) functions on finite grids.

The library evaluates marginal functions mu(x) = min {phi(x, y) : y in F(x)}
of parametric minimization problems sampled on uniform grids, and verifies
the convex-analysis identities that relate them to Fenchel conjugates,
epsilon-subdifferentials, near convexity of graphs and Lagrangian duality.
Every checker pairs a structured formula with an independent brute-force
route and reports where the two agree.

The namespace is lazy (PEP 562): `import marginlab` loads no submodule and
no numpy, and each public name imports its submodule on first access.  So
`marginlab.cli` can still choose how numpy starts when it is the first to
import it.  `marginal` and `conjugate` name both a submodule and one of its
functions; the package attribute is always the function.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "conjugate": (
        "FastConjugateReport",
        "biconjugate",
        "biconjugate_minorant_check",
        "conjugate",
        "conjugate_at",
        "conjugate_fast",
        "default_dual_grid",
        "fast_conjugate_check",
        "fenchel_young_check",
        "inf_convolution",
        "max_dots_minus",
        "partial_conjugate",
        "support_function",
    ),
    "core": (
        "INF",
        "Axis",
        "Grid",
        "GriddedFunction",
        "Verdict",
        "ext_add_arrays",
        "ext_sum",
        "eval_on_grid",
        "product_grid",
        "render_value",
    ),
    "duality": (
        "ConjugateRepresentationReport",
        "DualityReport",
        "LagrangianIdentityReport",
        "LagrangianTable",
        "SlaterReport",
        "conjugate_representation_check",
        "dual_value_1",
        "dual_value_2",
        "graph_adapted_xgrid",
        "lagrangian_dual",
        "lagrangian_identity_check",
        "primal_value",
        "sampled_inf_convolution",
        "slater_strong_duality_check",
        "strong_duality_check",
    ),
    "errors": (
        "DimensionMismatch",
        "ExpressionError",
        "ExprSyntaxError",
        "GridMismatch",
        "GridNotAdapted",
        "HypothesisNotMet",
        "MarginlabError",
        "MissingSection",
        "NonFiniteExpression",
        "NotANode",
        "NotFiniteAtPoint",
        "NotNodePreserving",
        "PointNotInSet",
        "RasterError",
        "SpecError",
        "SpecSyntaxError",
        "UnknownKey",
        "UnknownVariable",
        "UnsupportedDimension",
        "UnsupportedShape",
        "ZeroNotOnGrid",
    ),
    "marginal": (
        "ATTAINED",
        "INFEASIBLE",
        "UNBOUNDED",
        "EpigraphReport",
        "ProbeLevel",
        "LipschitzReport",
        "MarginalResult",
        "SemicontinuityReport",
        "StructureReport",
        "convexity_check",
        "domain_identity_check",
        "epigraph_projection_check",
        "eta_solutions",
        "lipschitz_probe",
        "marginal",
        "marginal_structure_check",
        "semicontinuity_probe",
    ),
    "nearconvex": (
        "ImageReport",
        "NearConvexityReport",
        "RasterCheckReport",
        "RasterSet",
        "closure",
        "dump_raster",
        "hull_raster",
        "image_preservation_check",
        "interior",
        "intersection_preservation_check",
        "is_int_nearly_convex",
        "load_raster",
        "projection_map",
        "raster_check",
        "refine_raster",
    ),
    "polyhedra": ("HPolyhedron", "Interval", "feasible_point", "is_empty"),
    "setmap": (
        "SetValuedMap",
        "full_map",
        "graph_support",
        "lipschitz_estimate_map",
        "map_conjugate_at",
        "map_from_constraints",
        "map_from_inequalities",
        "map_from_points",
    ),
    "subdiff": (
        "DEFAULT_ETAS",
        "EpsSubdifferentialReport",
        "RestrictedConjugateReport",
        "SumRuleReport",
        "TheoremReport",
        "conj_subdiff_check",
        "eps_normal_cone",
        "eps_subdifferential",
        "eps_subdifferential_check",
        "marginal_subdiff_check",
        "restricted_conjugate_check",
        "sum_rule_check",
    ),
    "spec": ("ProblemSpec", "parse_spec"),
    "tables": ("Tables",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)


class _Namespace(types.ModuleType):
    """The package module: loading a submodule never rebinds a public name.

    Importlib sets each submodule it loads as an attribute of its package,
    which would replace the functions `marginal` and `conjugate` with their
    modules; those modules stay reachable in sys.modules.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and name in _ORIGIN:
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
