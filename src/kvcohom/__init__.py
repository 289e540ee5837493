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
"""

from .core import (
    CheckResult,
    Element,
    KVAlgebra,
    KVModule,
    associator,
    center,
    direct_sum,
    hom_module,
    is_kv,
    is_module,
    jacobi_algebra,
    jacobi_module,
    left_regular_module,
    lie_bracket,
    mixed_associators,
    module_direct_sum,
    multilinear_module,
    random_kv,
    random_module,
    regular_bimodule,
    semidirect,
    zero_module,
)
from .complexes import (
    Cochain,
    CohomologyReport,
    DegreeData,
    coboundary,
    coboundary0,
    coboundary_matrix,
    cohomology,
    is_coboundary,
    is_cocycle,
    nijenhuis_cohomology,
)
from .errors import (
    BudgetError,
    DegenerateFitError,
    DimensionError,
    InputError,
    KVError,
    PreconditionError,
)
from .linalg import Mat, Subspace, image, kernel, rank, rat, solve, vec
from .extensions import (
    AlgebraExtension,
    BigradedCochain,
    ModuleExtension,
    algebra_cocycle_from_section,
    algebra_extension_from_cocycle,
    algebra_extensions_equivalent,
    bigrade,
    cocycle_from_section,
    e11_cohomology,
    extend_module_to_semidirect,
    extensions_equivalent,
    graded_piece,
    module_extension_from_cocycle,
)
from .deform import (
    BasisFlowJet,
    MultiplicationJet,
    NextOrderSolution,
    RigidityReport,
    bilinear_cochain,
    curvature_check,
    jet_check,
    jet_residuals,
    kv_bracket,
    pushforward_jet,
    rigidity_report,
    solve_next_order,
    trilinear_cochain,
)
from .graded import (
    ConnectionlikePair,
    ConnectionlikeReport,
    GradedKVAlgebra,
    cocycle_from_connectionlike,
    connectionlike_from_cocycle,
    deform_graded,
    graded_component,
    is_connectionlike,
    is_kv_chain,
    is_theta_cocycle,
)
from .geom import (
    GeodesicProblem,
    PencilReport,
    RadiantSolutions,
    Trajectory,
    aff_algebra,
    closed_form_x,
    deformed_connection,
    find_radiant,
    integrate_geodesic,
    pencil_suite,
    radiant_primitive,
    s_alpha_beta,
    y_power_law_fit,
)
from .battery import BatteryReport, run_battery
from .cli import JobSpec, Report, main, run

__version__ = "0.1.0"
