"""Desk-scale numerical checks for a fully nonlinear Hermitian PDE estimate.

The package solves a twisted Monge-Ampere type equation on small periodic
grids, verifies the pointwise structure its maximum-principle argument rests
on, and runs the local comparison construction around the minimum point of
the solved potential.
"""

from .auxiliary import (
    AuxiliarySolution,
    LocalChart,
    build_chart,
    check_comparison,
    comparison_scale,
    hinge_mass,
    run_localization,
    smooth_hinge,
    solve_dirichlet_ma,
    tilted_potential,
)
from .descriptors import ExperimentDescriptor
from .errors import (
    ChartFailureError,
    ConeViolationError,
    DegeneracyError,
    DegeneratePointError,
    InconsistentInputError,
    InfeasibleStartError,
    MetricDegeneracyError,
    NFormError,
    NonConvergenceError,
    UnsupportedDimensionError,
)
from .grid import (
    TorusGrid,
    complex_hessian,
    entropy_norm,
    hermitian_inverse,
    identity_metric,
    integrate,
    laplacian,
    normalize_sup,
    twisted_from_hessian,
    twisted_metric,
    volume_density,
)
from .hermlin import (
    endomorphism_eigs,
    g_orthonormal_eigenframe,
    linearization,
    random_admissible_parts,
    trace_reversal,
    verify_trace_reversal_identities,
)
from .manufactured import (
    forcing_from_hessian,
    radial_field,
    radial_profile,
    trig_hessian,
    trig_potential,
)
from .solver import (
    L1BoundReport,
    NewtonRecord,
    PrimaryProblem,
    PrimarySolution,
    l1_bound_check,
    residual,
    solve_primary,
)
from .symfun import (
    ConeIntersection,
    GammaBound,
    GammaK,
    OperatorSpec,
    PIndexCone,
    combine,
    cone_margin,
    evaluate,
    gamma_lower_bound,
    gradient,
    hessian,
    in_cone,
    interior_margin,
    monge_ampere,
    p_monge_ampere,
    sample_cone,
    sigma_j,
)

__version__ = "0.1.0"
