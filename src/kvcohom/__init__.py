"""Exact cohomology of Koszul-Vinberg algebras.

A KV algebra is a vector space with a product whose associator is symmetric
in its first two arguments; affine manifolds, convex cones, and
left-symmetric structures all speak this language.  This package computes
the intrinsic cochain complex of such algebras with bimodule coefficients
over exact rational arithmetic, classifies algebra and module extensions by
cocycles, solves formal deformation equations order by order, handles the
two-graded variants, and carries the small worked geometric examples
(connection cocycles, geodesics of the associated connections, radiant
primitives).

Importing the package executes only the layers every CLI verb needs:
``errors``, ``linalg``, ``core``, ``fixtures``, ``serialize`` and ``cli``.
The six heavier layers (``complexes``, ``extensions``, ``deform``,
``graded``, ``geom`` and ``battery``) are in ``sys.modules`` from the start
but execute on first attribute access, and the names re-exported here
resolve through the module ``__getattr__``.
"""

import importlib.util
import sys


def _lazy(name: str):
    """Register the submodule ``name`` so that it executes on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Registered before the eager imports, since serialize and cli import these
# layers by ``from . import ...``, which would otherwise execute them.
complexes = _lazy("complexes")
extensions = _lazy("extensions")
deform = _lazy("deform")
graded = _lazy("graded")
geom = _lazy("geom")
battery = _lazy("battery")

from . import errors, linalg, core, fixtures, serialize, cli  # noqa: E402

_EXPORTS = {
    "core": (
        "CheckResult", "Element", "KVAlgebra", "KVModule", "associator", "center",
        "direct_sum", "hom_module", "is_kv", "is_module", "jacobi_algebra",
        "jacobi_module", "left_regular_module", "lie_bracket", "mixed_associators",
        "module_direct_sum", "multilinear_module", "random_kv", "random_module",
        "regular_bimodule", "semidirect", "zero_module",
    ),
    "complexes": (
        "Cochain", "CohomologyReport", "DegreeData", "coboundary", "coboundary0",
        "coboundary_matrix", "cohomology", "is_coboundary", "is_cocycle",
        "nijenhuis_cohomology",
    ),
    "errors": (
        "BudgetError", "DegenerateFitError", "DimensionError", "InputError",
        "KVError", "PreconditionError",
    ),
    "linalg": ("Mat", "Subspace", "image", "kernel", "rank", "rat", "solve", "vec"),
    "extensions": (
        "AlgebraExtension", "BigradedCochain", "ModuleExtension",
        "algebra_cocycle_from_section", "algebra_extension_from_cocycle",
        "algebra_extensions_equivalent", "bigrade", "cocycle_from_section",
        "e11_cohomology", "extend_module_to_semidirect", "extensions_equivalent",
        "graded_piece", "module_extension_from_cocycle",
    ),
    "deform": (
        "BasisFlowJet", "MultiplicationJet", "NextOrderSolution", "RigidityReport",
        "bilinear_cochain", "curvature_check", "jet_check", "jet_residuals",
        "kv_bracket", "pushforward_jet", "rigidity_report", "solve_next_order",
        "trilinear_cochain",
    ),
    "graded": (
        "ConnectionlikePair", "ConnectionlikeReport", "GradedKVAlgebra",
        "cocycle_from_connectionlike", "connectionlike_from_cocycle", "deform_graded",
        "graded_component", "is_connectionlike", "is_kv_chain", "is_theta_cocycle",
    ),
    "geom": (
        "GeodesicProblem", "PencilReport", "RadiantSolutions", "Trajectory",
        "aff_algebra", "closed_form_x", "deformed_connection", "find_radiant",
        "integrate_geodesic", "pencil_suite", "radiant_primitive", "s_alpha_beta",
        "y_power_law_fit",
    ),
    "battery": ("BatteryReport", "run_battery"),
    "cli": ("JobSpec", "Report", "main", "run"),
}
# Each re-exported name and the layer it is read from on every access.
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"
